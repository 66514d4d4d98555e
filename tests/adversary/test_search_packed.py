"""Packed search paths: parity with the legacy tuple-set searches.

Every search runs on packed runs on every backend.  The tuple-set
searches they replaced — the per-``Run`` list scans of the exhaustive,
family and random searches and the tuple-flip hill-climb — live on
below as oracles, evaluating through the reference simulator directly
(the family scan over the tuple-set family generators of
``test_structured``, the random scan over its tuple-set draw), so the
packed paths are still checked against a separate implementation:
same maxima, same witnesses, same ``runs_examined`` budgets and
certifications on both the vectorized and the reference engine, for
both the unsafety objective (``U_s``) and the negated-liveness
objective (``L(R)`` minimization), on K2/K3/chain/star instances, on
sweeps spanning many kernel batches, and on a two-word layout past the
single-word array enumeration.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import search
from repro.adversary.search import (
    exhaustive_search,
    greedy_search,
    negated_liveness_objective,
    unsafety_objective,
    worst_case_unsafety,
)
from repro.adversary.strong import StrongAdversary
from repro.adversary.structured import standard_families
from repro.core.packed import enumerate_orbit_representatives, layout_for
from repro.core.probability import evaluate
from repro.core.run import (
    all_message_tuples,
    good_run,
    random_run,
    run_space_size,
)
from repro.core.topology import Topology
from repro.engine import Engine
from repro.protocols.ablations import NaiveCountingS
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW

from .test_structured import ORACLES, oracle_random_run

PAIR = Topology.pair()
K3 = Topology.complete(3)
PATH3 = Topology.path(3)
STAR4 = Topology.star(4)

INSTANCES = [
    (PAIR, 3, ProtocolW(2)),
    (PAIR, 2, ProtocolS(epsilon=0.25)),
    (K3, 1, ProtocolW(2)),
    (K3, 1, ProtocolS(epsilon=0.25)),
    (PATH3, 1, ProtocolS(epsilon=0.25)),
    (STAR4, 1, ProtocolW(2)),
]

OBJECTIVES = [unsafety_objective, negated_liveness_objective]


@pytest.fixture
def vec_engine():
    return Engine(backend="vectorized")


@pytest.fixture
def ref_engine():
    return Engine(backend="reference")


def legacy_scan(protocol, topology, runs, objective):
    """The tuple list scan: every ``Run``, first strict max wins."""
    runs = list(runs)
    best_value, best_run = float("-inf"), None
    for run in runs:
        value = objective(evaluate(protocol, topology, run))
        if value > best_value:
            best_value, best_run = value, run
    return best_value, best_run, len(runs)


def legacy_exhaustive(protocol, topology, num_rounds, objective, fixed_inputs=None):
    """The list scan over every run of the strong adversary."""
    adversary = StrongAdversary(fixed_inputs=fixed_inputs)
    return legacy_scan(
        protocol, topology, adversary.enumerate(topology, num_rounds), objective
    )


def legacy_family(protocol, topology, num_rounds, objective):
    """The list scan over the tuple-set families, in family order."""
    runs = [
        run
        for family in standard_families()
        for run in ORACLES[family.name](topology, num_rounds)
    ]
    return legacy_scan(protocol, topology, runs, objective)


def legacy_random(protocol, topology, num_rounds, samples, objective, rng):
    """The list scan over ``samples`` tuple-set random draws."""
    runs = [oracle_random_run(topology, num_rounds, rng) for _ in range(samples)]
    return legacy_scan(protocol, topology, runs, objective)


def legacy_greedy(protocol, topology, num_rounds, seed_run, objective, max_passes=3):
    """The tuple-flip hill-climb: message tuples in order, then inputs."""
    all_tuples = all_message_tuples(topology, num_rounds)
    current = seed_run
    current_value = objective(evaluate(protocol, topology, current))
    examined = 1
    for _ in range(max_passes):
        neighbors = [
            current.removing(message)
            if message in current.messages
            else current.adding(message)
            for message in all_tuples
        ]
        for process in topology.processes:
            if process in current.inputs:
                neighbors.append(current.with_inputs(current.inputs - {process}))
            else:
                neighbors.append(current.with_inputs(current.inputs | {process}))
        examined += len(neighbors)
        best_neighbor, best_value = None, current_value
        for neighbor in neighbors:
            value = objective(evaluate(protocol, topology, neighbor))
            if value > best_value:
                best_neighbor, best_value = neighbor, value
        if best_neighbor is None:
            break
        current, current_value = best_neighbor, best_value
    return current_value, current, examined


class TestExhaustiveParity:
    @pytest.mark.parametrize("topology, num_rounds, protocol", INSTANCES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_packed_matches_legacy(
        self, topology, num_rounds, protocol, objective, vec_engine, ref_engine
    ):
        value, run, examined = legacy_exhaustive(
            protocol, topology, num_rounds, objective
        )
        for engine in (vec_engine, ref_engine):
            packed = exhaustive_search(
                protocol, topology, num_rounds, objective, engine=engine
            )
            assert packed.value == value
            assert packed.run == run
            assert packed.runs_examined == examined
            assert packed.certification == "exact"
            assert packed.reduction_factor is None

    @pytest.mark.parametrize("topology, num_rounds, protocol", INSTANCES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_orbit_reduced_matches_unreduced(
        self, topology, num_rounds, protocol, objective, vec_engine
    ):
        full = exhaustive_search(
            protocol, topology, num_rounds, objective, engine=vec_engine
        )
        reduced = exhaustive_search(
            protocol,
            topology,
            num_rounds,
            objective,
            engine=vec_engine,
            symmetry_reduction=True,
        )
        assert reduced.value == full.value
        assert reduced.runs_examined <= full.runs_examined
        assert reduced.reduction_factor is not None
        assert reduced.reduction_factor >= 1.0
        # The witness comes from the representative set, so it must
        # attain the maximum (checked against the full sweep's value).
        assert reduced.run is not None

    def test_examined_counts_preserved(self, vec_engine, ref_engine):
        # The historical budget numbers the parity suite pins.
        for engine in (vec_engine, ref_engine):
            result = exhaustive_search(
                ProtocolS(epsilon=0.25), PAIR, 3, engine=engine
            )
            assert result.runs_examined == 256
            fixed = exhaustive_search(
                ProtocolS(epsilon=0.25),
                PAIR,
                3,
                fixed_inputs=frozenset({1, 2}),
                engine=engine,
            )
            assert fixed.runs_examined == 64

    def test_fixed_inputs_orbit_parity(self, vec_engine):
        fixed = frozenset({1, 2, 3})
        full = exhaustive_search(
            ProtocolW(2), K3, 1, fixed_inputs=fixed, engine=vec_engine
        )
        reduced = exhaustive_search(
            ProtocolW(2),
            K3,
            1,
            fixed_inputs=fixed,
            engine=vec_engine,
            symmetry_reduction=True,
        )
        assert reduced.value == full.value
        assert reduced.runs_examined < full.runs_examined

    def test_symmetry_flag_is_inert_without_protocol_support(
        self, vec_engine
    ):
        # A protocol that does not declare its symmetry (default hook
        # returns None) gets the plain sweep even when asked to reduce.
        from repro.protocols.protocol_a import ProtocolA

        result = exhaustive_search(
            ProtocolA(3), PAIR, 3, engine=vec_engine, symmetry_reduction=True
        )
        assert result.reduction_factor is None
        assert result.runs_examined == run_space_size(
            PAIR, 3, fixed_inputs=False
        )

    @pytest.mark.parametrize(
        "protocol, expected", [(ProtocolS(epsilon=0.25), 0.25), (ProtocolW(1), 0.0)]
    )
    def test_wide_layout_streams_onto_the_kernel(
        self, protocol, expected, vec_engine, ref_engine
    ):
        # 62 processes with all inputs fixed and one edge over 2 rounds:
        # a 66-bit, two-word layout of 16 runs, past the single-word
        # array enumeration, that the kernel still evaluates.
        topology = Topology(62, ((1, 2),))
        fixed = frozenset(topology.processes)
        assert layout_for(topology, 2).num_words == 2
        value, run, examined = legacy_exhaustive(
            protocol, topology, 2, unsafety_objective, fixed_inputs=fixed
        )
        assert (value, examined) == (expected, 16)
        for engine in (vec_engine, ref_engine):
            result = exhaustive_search(
                protocol, topology, 2, fixed_inputs=fixed, engine=engine
            )
            assert result.value == value
            assert result.run == run
            assert result.runs_examined == examined
        assert vec_engine.stats.vectorized_evaluations == examined
        assert ref_engine.stats.vectorized_evaluations == 0

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_first_maximizer_across_batches(
        self, objective, vec_engine, monkeypatch
    ):
        # With 24-run batches these spaces span many kernel batches and
        # orbit-reduction slices, so the strict ``>`` across batches and
        # the re-chunking of each slice's survivors decide the witness.
        monkeypatch.setattr(search, "EXHAUSTIVE_CHUNK", 24)
        for protocol in (ProtocolS(epsilon=0.25), ProtocolW(2)):
            value, run, examined = legacy_exhaustive(protocol, PAIR, 3, objective)
            result = exhaustive_search(
                protocol, PAIR, 3, objective, engine=vec_engine
            )
            assert (result.value, result.run, result.runs_examined) == (
                value,
                run,
                examined,
            )
        protocol = ProtocolW(2)
        representatives = [
            packed.unpack()
            for packed, _ in enumerate_orbit_representatives(K3, 1, ())
        ]
        values = [
            objective(evaluate(protocol, K3, run)) for run in representatives
        ]
        best = max(values)
        reduced = exhaustive_search(
            protocol, K3, 1, objective, engine=vec_engine, symmetry_reduction=True
        )
        assert reduced.value == best
        assert reduced.run == representatives[values.index(best)]
        assert reduced.runs_examined == len(representatives)

    def test_objective_must_be_elementwise(self, vec_engine):
        def peak(result):
            return float(result.pr_partial_attack.max())

        with pytest.raises(TypeError, match="not elementwise"):
            exhaustive_search(
                ProtocolS(epsilon=0.25), PAIR, 2, peak, engine=vec_engine
            )

    def test_limit_guard_still_raises(self, vec_engine):
        with pytest.raises(ValueError, match="enumeration limit"):
            exhaustive_search(
                ProtocolW(2), K3, 1, limit=100, engine=vec_engine
            )
        with pytest.raises(ValueError, match="enumeration limit"):
            exhaustive_search(
                ProtocolW(2),
                K3,
                2,
                limit=10,
                engine=vec_engine,
                symmetry_reduction=True,
            )


class TestGreedyParity:
    @pytest.mark.parametrize("topology, num_rounds, protocol", INSTANCES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_incremental_matches_legacy(
        self, topology, num_rounds, protocol, objective, vec_engine, ref_engine
    ):
        rng = random.Random(31)
        seeds = [good_run(topology, num_rounds)]
        seeds.extend(random_run(topology, num_rounds, rng) for _ in range(3))
        for seed in seeds:
            value, run, examined = legacy_greedy(
                protocol, topology, num_rounds, seed, objective
            )
            for engine in (vec_engine, ref_engine):
                result = greedy_search(
                    protocol, topology, num_rounds, seed, objective,
                    engine=engine,
                )
                assert result.value == value
                assert result.run == run
                assert result.runs_examined == examined

    def test_incremental_path_is_taken(self, vec_engine):
        result = greedy_search(
            ProtocolW(2), K3, 2, good_run(K3, 2), engine=vec_engine
        )
        assert vec_engine.stats.vectorized_evaluations > 0
        # One seed evaluation plus max_passes full neighborhoods, where
        # a neighborhood is every single-bit flip of the packed run.
        num_bits = layout_for(K3, 2).num_bits
        assert (result.runs_examined - 1) % num_bits == 0

    def test_reference_backend_has_no_incremental(self, ref_engine):
        greedy_search(ProtocolW(2), K3, 2, good_run(K3, 2), engine=ref_engine)
        assert ref_engine.stats.vectorized_evaluations == 0

    def test_runs_evaluated_match_across_backends(self, vec_engine, ref_engine):
        # Every pass requests the current run and its whole
        # neighborhood on either backend.
        protocol, num_rounds = ProtocolS(epsilon=0.25), 4
        num_bits = layout_for(PAIR, num_rounds).num_bits
        results = [
            greedy_search(
                protocol, PAIR, num_rounds, good_run(PAIR, num_rounds),
                engine=engine,
            )
            for engine in (vec_engine, ref_engine)
        ]
        passes = (results[0].runs_examined - 1) // num_bits
        assert passes >= 2
        assert results[0] == results[1]
        assert (
            ref_engine.stats.runs_evaluated
            == vec_engine.stats.runs_evaluated
            == passes * (1 + num_bits)
        )

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_seed_must_fit_the_horizon(self, backend):
        with pytest.raises(ValueError, match="horizon"):
            greedy_search(
                ProtocolS(epsilon=0.25), PAIR, 2, good_run(PAIR, 3),
                engine=Engine(backend=backend),
            )


def legacy_composite(protocol, topology, num_rounds, objective, samples, rng):
    """``worst_case_unsafety`` above its exhaustive budget, on tuples:
    ``(value, witness, runs_examined, certification)``."""
    family = legacy_family(protocol, topology, num_rounds, objective)
    candidates = [family]
    if family[1] is not None:
        candidates.append(
            legacy_greedy(protocol, topology, num_rounds, family[1], objective)
        )
    if samples:
        candidates.append(
            legacy_random(protocol, topology, num_rounds, samples, objective, rng)
        )
    value, witness, _ = max(candidates, key=lambda candidate: candidate[0])
    examined = sum(candidate[2] for candidate in candidates)
    certification = "family" if value <= family[0] else "heuristic"
    return value, witness, examined, certification


def attack_skew(result):
    """How much more often the last process attacks than process 1."""
    return result.pr_attack[-1] - result.pr_attack[0]


#: The composite's heuristic branch: the exhaustive instances, two
#: wider ones (m > 4 and more than 24 message tuples on K5), and naive
#: counting on K3, where greedy refinement beats the families (both
#: objectives) and the random probes beat both (``attack_skew``).
HEURISTIC_CASES = [
    (*instance, objective)
    for instance in INSTANCES
    + [
        (PAIR, 6, ProtocolS(epsilon=0.2)),
        (Topology.complete(5), 2, ProtocolW(2)),
        (K3, 2, NaiveCountingS(epsilon=0.25)),
    ]
    for objective in OBJECTIVES
] + [(K3, 2, NaiveCountingS(epsilon=0.5), attack_skew)]


class TestHeuristicParity:
    @pytest.mark.parametrize(
        "topology, num_rounds, protocol, objective", HEURISTIC_CASES
    )
    @pytest.mark.parametrize("samples", [100, 0])
    def test_composite_matches_legacy(
        self, topology, num_rounds, protocol, objective, samples,
        vec_engine, ref_engine,
    ):
        expected = legacy_composite(
            protocol, topology, num_rounds, objective, samples,
            random.Random(7),
        )
        for engine in (vec_engine, ref_engine):
            result = worst_case_unsafety(
                protocol, topology, num_rounds, objective,
                exhaustive_limit=0, random_samples=samples,
                rng=random.Random(7), engine=engine,
            )
            assert (
                result.value,
                result.run,
                result.runs_examined,
                result.certification,
            ) == expected

    def test_cases_reach_every_stage(self):
        # Parity above only pins the greedy and random stages' witnesses
        # if some case is won by each of them.
        protocol = NaiveCountingS(epsilon=0.25)
        family = legacy_family(protocol, K3, 2, unsafety_objective)
        value, _, _, certification = legacy_composite(
            protocol, K3, 2, unsafety_objective, 0, random.Random(7)
        )
        assert certification == "heuristic"
        assert value > family[0]
        protocol = NaiveCountingS(epsilon=0.5)
        greedy = legacy_composite(
            protocol, K3, 2, attack_skew, 0, random.Random(7)
        )
        probes = legacy_random(
            protocol, K3, 2, 100, attack_skew, random.Random(7)
        )
        assert probes[0] > greedy[0]
