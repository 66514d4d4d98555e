"""Packed search paths: parity with the legacy tuple-set searches.

``exhaustive_search`` and ``greedy_search`` run on packed runs on
every backend.  The tuple-set searches they replaced — the per-``Run``
list scan and the tuple-flip hill-climb — live on below as oracles,
evaluating through the reference simulator directly, so the packed
paths are still checked against a separate implementation: same
maxima, same witnesses, same ``runs_examined`` budgets on both the
vectorized and the reference engine, for both the unsafety objective
(``U_s``) and the negated-liveness objective (``L(R)`` minimization),
on K2/K3/chain/star instances.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.search import (
    exhaustive_search,
    greedy_search,
    negated_liveness_objective,
    unsafety_objective,
)
from repro.adversary.strong import StrongAdversary
from repro.core.packed import layout_for
from repro.core.probability import evaluate
from repro.core.run import (
    all_message_tuples,
    good_run,
    random_run,
    run_space_size,
)
from repro.core.topology import Topology
from repro.engine import Engine
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW

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


def legacy_exhaustive(protocol, topology, num_rounds, objective, fixed_inputs=None):
    """The tuple list-scan search: every ``Run``, first strict max wins."""
    runs = list(
        StrongAdversary(fixed_inputs=fixed_inputs).enumerate(topology, num_rounds)
    )
    best_value, best_run = float("-inf"), None
    for run in runs:
        value = objective(evaluate(protocol, topology, run))
        if value > best_value:
            best_value, best_run = value, run
    return best_value, best_run, len(runs)


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
