"""Unit tests for the structured run families.

The families are generated as bit arithmetic on the run layout.  The
tuple-set generators they replaced — built from the paper's run
constructions in :mod:`repro.core.run` — live on below as the oracle:
every family must yield exactly the oracle's runs, packed, in the
oracle's order, and the packed random draw must match the tuple-set
``random_run`` draw bit for bit, rng state included.
"""

import itertools
import random

import pytest

from repro.adversary.structured import (
    CHAIN_CUTS,
    DOUBLE_LOSSES,
    INPUT_SILENCES,
    PARTIAL_ROUND_CUTS,
    ROUND_CUTS,
    SINGLE_LOSSES,
    TREE_RUNS,
    standard_families,
)
from repro.core.measures import run_modified_level
from repro.core.packed import layout_for, random_bits
from repro.core.run import (
    Run,
    all_message_tuples,
    chain_run,
    good_run,
    partial_round_cut_run,
    random_run,
    round_cut_run,
    silent_run,
    spanning_tree_run,
)
from repro.core.topology import Topology


def _input_variants(topology):
    variants = [frozenset(topology.processes)]
    variants.extend(frozenset([i]) for i in topology.processes)
    return variants


def oracle_chain_cuts(topology, num_rounds):
    if topology.num_processes != 2:
        return
    for inputs in _input_variants(topology):
        yield chain_run(num_rounds, None, inputs)
        for break_round in range(1, num_rounds + 1):
            yield chain_run(num_rounds, break_round, inputs)


def oracle_round_cuts(topology, num_rounds):
    for inputs in _input_variants(topology):
        for cut in range(1, num_rounds + 2):
            yield round_cut_run(topology, num_rounds, cut, inputs)


def oracle_partial_round_cuts(topology, num_rounds):
    processes = list(topology.processes)
    if topology.num_processes <= 4:
        blocked_sets = [
            combo
            for size in range(1, topology.num_processes)
            for combo in itertools.combinations(processes, size)
        ]
    else:
        blocked_sets = [(i,) for i in processes] + [
            tuple(j for j in processes if j != i) for i in processes
        ]
    for inputs in _input_variants(topology):
        for cut in range(1, num_rounds + 1):
            for blocked in blocked_sets:
                yield partial_round_cut_run(
                    topology, num_rounds, cut, blocked, inputs
                )


def oracle_single_losses(topology, num_rounds):
    base = good_run(topology, num_rounds)
    for message in all_message_tuples(topology, num_rounds):
        yield base.removing(message)


def oracle_double_losses(topology, num_rounds):
    tuples = all_message_tuples(topology, num_rounds)
    base = good_run(topology, num_rounds)
    for first, second in itertools.combinations(tuples, 2):
        if len(tuples) <= 24 or first.round == second.round:
            yield base.removing(first, second)


def oracle_crash_links(topology, num_rounds):
    base = good_run(topology, num_rounds)
    for source, target in topology.directed_links():
        for crash_round in range(1, num_rounds + 1):
            yield base.removing(
                *[
                    (source, target, round_number)
                    for round_number in range(crash_round, num_rounds + 1)
                ]
            )


def oracle_tree_runs(topology, num_rounds):
    if not topology.is_connected():
        return
    full = spanning_tree_run(topology, num_rounds)
    yield full
    for cut in range(1, num_rounds + 1):
        yield full.restricted_to_rounds(cut)


def oracle_input_silences(topology, num_rounds):
    for process in topology.processes:
        yield silent_run(topology, num_rounds, [process])


#: Family name -> its tuple-set generator.
ORACLES = {
    "chain-cuts": oracle_chain_cuts,
    "round-cuts": oracle_round_cuts,
    "partial-round-cuts": oracle_partial_round_cuts,
    "single-losses": oracle_single_losses,
    "double-losses": oracle_double_losses,
    "crash-links": oracle_crash_links,
    "tree-runs": oracle_tree_runs,
    "input-silences": oracle_input_silences,
}


def oracle_random_run(
    topology, num_rounds, rng, delivery_probability=0.5, input_probability=0.5
):
    """The tuple-set random draw: inputs in process order, then tuples."""
    inputs = frozenset(
        i for i in topology.processes if rng.random() < input_probability
    )
    kept = frozenset(
        m
        for m in all_message_tuples(topology, num_rounds)
        if rng.random() < delivery_probability
    )
    return Run(num_rounds, inputs, kept)


#: Named topologies covering every generator branch: the pair (chain
#: cuts), more than 4 processes (singleton/complement partial cuts),
#: more than 24 tuples at N >= 3 (same-round double losses only) and
#: disconnected graphs (no tree runs).
GRID = {
    "pair": Topology.pair(),
    "path:3": Topology.path(3),
    "path:4": Topology.path(4),
    "path:7": Topology.path(7),
    "ring:4": Topology.ring(4),
    "ring:5": Topology.ring(5),
    "star:4": Topology.star(4),
    "star:6": Topology.star(6),
    "complete:3": Topology.complete(3),
    "complete:4": Topology.complete(4),
    "complete:5": Topology.complete(5),
    "grid:2x3": Topology.grid(2, 3),
    "two-edges:4": Topology.from_edges(4, [(1, 2), (3, 4)]),
    "triangle-edge:5": Topology.from_edges(5, [(1, 2), (2, 3), (1, 3), (4, 5)]),
}


def _random_connected():
    """A random connected topology per m = 2..7 and horizon N = 1..8."""
    rng = random.Random(2029)
    cases = []
    for m in range(2, 8):
        for num_rounds in range(1, 9):
            density = rng.choice((0.2, 0.6))
            topology = Topology.random_connected(m, density, rng)
            cases.append(
                pytest.param(
                    topology, num_rounds, id=f"m{m}-N{num_rounds}-d{density}"
                )
            )
    return cases


def assert_matches_oracle(topology, num_rounds):
    layout = layout_for(topology, num_rounds)
    for family in standard_families():
        oracle = ORACLES[family.name](topology, num_rounds)
        assert list(family.generate(layout)) == [
            layout.pack_bits(run) for run in oracle
        ], (family.name, topology.describe(), num_rounds)


class TestOracleParity:
    @pytest.mark.parametrize("num_rounds", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("name", list(GRID))
    def test_grid_matches_oracle(self, name, num_rounds):
        assert_matches_oracle(GRID[name], num_rounds)

    @pytest.mark.parametrize("topology, num_rounds", _random_connected())
    def test_random_connected_match_oracle(self, topology, num_rounds):
        assert_matches_oracle(topology, num_rounds)

    def test_every_branch_is_covered(self):
        # The oracle parity above only means something if the grid
        # reaches each branch of the generators.
        wide = layout_for(Topology.complete(4), 3)
        assert wide.num_message_bits > 24
        assert len(list(DOUBLE_LOSSES.generate(wide))) == 3 * 66
        assert any(t.num_processes > 4 for t in GRID.values())
        disconnected = layout_for(GRID["two-edges:4"], 2)
        assert list(TREE_RUNS.generate(disconnected)) == []
        assert list(CHAIN_CUTS.generate(layout_for(Topology.path(3), 2))) == []

    def test_runs_is_the_unpacked_view(self):
        topology = Topology.ring(4)
        for family in standard_families():
            assert family.runs(topology, 3) == list(
                ORACLES[family.name](topology, 3)
            )

    def test_chain_cuts_need_the_pair_edge(self):
        with pytest.raises(ValueError, match="does not follow an edge"):
            CHAIN_CUTS.runs(Topology(2, frozenset()), 2)


class TestRandomDraw:
    @pytest.mark.parametrize(
        "delivery_probability, input_probability",
        [(0.5, 0.5), (0.2, 0.9), (1.0, 0.0)],
    )
    def test_packed_draw_matches_oracle(
        self, delivery_probability, input_probability
    ):
        cases = [tuple(case.values) for case in _random_connected()]
        for topology, num_rounds in cases + [(t, 3) for t in GRID.values()]:
            layout = layout_for(topology, num_rounds)
            packed_rng, oracle_rng, view_rng = (
                random.Random(17) for _ in range(3)
            )
            for _ in range(5):
                expected = oracle_random_run(
                    topology, num_rounds, oracle_rng,
                    delivery_probability, input_probability,
                )
                bits = random_bits(
                    layout, packed_rng, delivery_probability, input_probability
                )
                assert bits == layout.pack_bits(expected)
                assert packed_rng.getstate() == oracle_rng.getstate()
                # The unpacked view: equal sets, built in the same order.
                run = random_run(
                    topology, num_rounds, view_rng,
                    delivery_probability, input_probability,
                )
                assert run == expected
                assert list(run.inputs) == list(expected.inputs)
                assert list(run.messages) == list(expected.messages)
                assert view_rng.getstate() == oracle_rng.getstate()


class TestFamilyShapes:
    def test_chain_cuts_two_generals_only(self, pair, path3):
        assert CHAIN_CUTS.runs(pair, 4)
        assert CHAIN_CUTS.runs(path3, 4) == []

    def test_chain_cuts_cover_all_breaks(self, pair):
        runs = CHAIN_CUTS.runs(pair, 4)
        # 3 input variants x (unbroken + 4 break rounds).
        assert len(runs) == 3 * 5

    def test_round_cuts_include_good_and_silent(self, pair):
        runs = ROUND_CUTS.runs(pair, 3)
        assert good_run(pair, 3) in runs
        assert any(run.message_count() == 0 for run in runs)

    def test_partial_round_cuts_block_proper_subsets(self, path3):
        runs = PARTIAL_ROUND_CUTS.runs(path3, 2)
        assert runs
        for run in runs:
            assert run.is_valid_for(path3)

    def test_partial_round_cuts_scale_down_for_larger_graphs(self):
        big = Topology.complete(6)
        runs = PARTIAL_ROUND_CUTS.runs(big, 2)
        # Blocked sets restricted to singletons and co-singletons.
        assert len(runs) == (6 + 1) * 2 * (6 + 6)

    def test_single_losses_count(self, pair):
        runs = SINGLE_LOSSES.runs(pair, 3)
        assert len(runs) == 6
        full = good_run(pair, 3).message_count()
        assert all(run.message_count() == full - 1 for run in runs)

    def test_tree_runs_have_ml_one_at_full_length(self):
        topology = Topology.star(4)
        runs = TREE_RUNS.runs(topology, 4)
        full = runs[0]
        assert run_modified_level(full, 4) == 1

    def test_tree_runs_empty_for_disconnected(self):
        disconnected = Topology.from_edges(4, [(1, 2), (3, 4)])
        assert TREE_RUNS.runs(disconnected, 3) == []

    def test_input_silences_one_per_process(self, path3):
        runs = INPUT_SILENCES.runs(path3, 3)
        assert len(runs) == 3
        assert all(run.message_count() == 0 for run in runs)
        assert {tuple(run.inputs) for run in runs} == {(1,), (2,), (3,)}


class TestStandardFamilies:
    def test_all_runs_valid_for_topology(self, pair, ring4):
        for topology in (pair, ring4):
            for family in standard_families():
                for run in family.runs(topology, 3):
                    assert run.is_valid_for(topology), (family.name, run)

    def test_families_have_distinct_names(self):
        names = [family.name for family in standard_families()]
        assert len(set(names)) == len(names)

    def test_contains_protocol_a_worst_case(self, pair):
        """The chain-cut family must include A's analytic worst runs."""
        from repro.core.run import chain_run

        runs = CHAIN_CUTS.runs(pair, 5)
        for break_round in range(2, 6):
            assert chain_run(5, break_round, [1, 2]) in runs

    def test_contains_protocol_s_worst_case(self, pair):
        """The partial-cut family attains Pr[PA] = eps for Protocol S."""
        from repro.protocols.protocol_s import ProtocolS

        protocol = ProtocolS(epsilon=0.125)
        best = max(
            protocol.closed_form_probabilities(pair, run).pr_partial_attack
            for run in PARTIAL_ROUND_CUTS.runs(pair, 8)
        )
        assert best == pytest.approx(0.125)


class TestLossAndCrashFamilies:
    def test_double_losses_small_graph_all_pairs(self, pair):
        from repro.adversary.structured import DOUBLE_LOSSES
        from repro.core.run import good_run

        runs = DOUBLE_LOSSES.runs(pair, 3)  # 6 tuples -> C(6,2) = 15
        assert len(runs) == 15
        full = good_run(pair, 3).message_count()
        assert all(run.message_count() == full - 2 for run in runs)

    def test_double_losses_large_graph_same_round_only(self):
        from repro.adversary.structured import DOUBLE_LOSSES

        topology = Topology.complete(4)
        runs = DOUBLE_LOSSES.runs(topology, 3)
        # 12 directed links per round, 3 rounds: 3 * C(12, 2) pairs.
        assert len(runs) == 3 * 66

    def test_crash_links_shape(self, pair):
        from repro.adversary.structured import CRASH_LINKS

        runs = CRASH_LINKS.runs(pair, 4)
        assert len(runs) == 2 * 4  # 2 directed links x 4 crash rounds
        # Crashing link (1, 2) at round 2 kills its later messages only.
        crashed = [
            run
            for run in runs
            if not run.delivers(1, 2, 2) and run.delivers(1, 2, 1)
        ]
        assert len(crashed) == 1
        witness = crashed[0]
        assert not witness.delivers(1, 2, 4)
        assert witness.delivers(2, 1, 4)

    def test_crash_links_valid_on_ring(self, ring4):
        from repro.adversary.structured import CRASH_LINKS

        for run in CRASH_LINKS.runs(ring4, 2):
            assert run.is_valid_for(ring4)
