"""Parity tests: the numpy batch kernel versus the reference simulator.

The engine's whole contract is that switching backends never changes a
number.  Hypothesis drives arbitrary runs on the named small
topologies, a fixed sweep covers random connected topologies, and in
every case the vectorized results must equal the reference closed
forms *exactly* (``==`` on the frozen result dataclass, no tolerance):
the kernel is an integer-exact transcription, not an approximation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import RunBatch
from repro.core.probability import evaluate
from repro.core.run import Run, bernoulli_run, good_run
from repro.core.topology import Topology
from repro.engine import Engine, vectorized
from repro.protocols.deterministic import NeverAttack
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW

from ..conftest import runs_for, small_topology_strategy

NAMED_TOPOLOGIES = [
    Topology.pair(),
    Topology.path(3),
    Topology.ring(4),
    Topology.star(4),
    Topology.complete(3),
]


def _topology_and_run() -> st.SearchStrategy:
    """(topology, run) pairs over the named small topologies."""
    return small_topology_strategy().flatmap(
        lambda topology: st.tuples(
            st.just(topology),
            st.integers(min_value=1, max_value=5).flatmap(
                lambda rounds: runs_for(topology, rounds)
            ),
        )
    )


def _protocols_for(num_rounds: int):
    return [
        ProtocolS(epsilon=0.25),
        ProtocolS(epsilon=1.0 / max(1, num_rounds)),
        ProtocolW(1),
        ProtocolW(max(1, num_rounds // 2)),
    ]


class TestBatchParity:
    @given(pair=_topology_and_run())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_exactly(self, pair):
        topology, run = pair
        for protocol in _protocols_for(run.num_rounds):
            expected = evaluate(protocol, topology, run)
            (actual,) = vectorized.evaluate_batch(protocol, topology, [run])
            assert actual == expected

    def test_random_connected_topologies(self):
        # Per-run rows from evaluate_batch, and the sweep path's result
        # columns from Engine.evaluate_packed_many on both engines: one
        # column per field, exactly the per-run reference values in
        # batch order, and read-only.
        rng = random.Random(2025)
        engines = [Engine(backend="vectorized"), Engine(backend="reference")]
        for m in (2, 3, 4, 5):
            for density in (0.3, 0.7):
                topology = Topology.random_connected(m, density, rng)
                num_rounds = rng.randint(1, 5)
                runs = [good_run(topology, num_rounds)] + [
                    bernoulli_run(topology, num_rounds, 0.4, rng)
                    for _ in range(8)
                ]
                batch = RunBatch.from_runs(topology, num_rounds, runs)
                for protocol in _protocols_for(num_rounds):
                    if not vectorized.supports(protocol, topology):
                        continue
                    expected = [
                        evaluate(protocol, topology, run) for run in runs
                    ]
                    actual = vectorized.evaluate_batch(
                        protocol, topology, runs
                    )
                    assert actual == expected
                    for engine in engines:
                        columns = engine.evaluate_packed_many(
                            protocol, topology, batch
                        )
                        for field in (
                            "pr_total_attack",
                            "pr_no_attack",
                            "pr_partial_attack",
                        ):
                            assert getattr(columns, field).tolist() == [
                                getattr(result, field) for result in expected
                            ]
                        assert columns.pr_attack.shape == (len(runs), m)
                        assert columns.pr_attack.tolist() == [
                            list(result.pr_attack) for result in expected
                        ]
                        assert columns.rows() == expected
                        with pytest.raises(ValueError, match="read-only"):
                            columns.pr_partial_attack[0] = 0.5
                        with pytest.raises(ValueError, match="read-only"):
                            columns.pr_attack[0, 0] = 0.5
        kernel, reference = engines
        assert kernel.stats.vectorized_evaluations > 0
        assert reference.stats.vectorized_evaluations == 0

    def test_batch_order_preserved(self):
        topology = Topology.pair()
        rng = random.Random(7)
        runs = [bernoulli_run(topology, 4, 0.5, rng) for _ in range(20)]
        protocol = ProtocolS(epsilon=0.125)
        batch = vectorized.evaluate_batch(protocol, topology, runs)
        serial = [evaluate(protocol, topology, run) for run in runs]
        assert batch == serial


class TestSupports:
    def test_supports_s_and_w_on_small_topologies(self):
        for topology in NAMED_TOPOLOGIES:
            assert vectorized.supports(ProtocolS(epsilon=0.5), topology)
            assert vectorized.supports(ProtocolW(2), topology)

    def test_rejects_other_protocols(self):
        pair = Topology.pair()
        assert not vectorized.supports(ProtocolA(4), pair)
        assert not vectorized.supports(NeverAttack(), pair)

    def test_rejects_subclasses(self):
        # A variant subclass may override decision logic the kernel
        # does not model; only the exact classes are fast-pathed.
        class TweakedS(ProtocolS):
            pass

        assert not vectorized.supports(
            TweakedS(epsilon=0.5), Topology.pair()
        )


class TestTensorConversion:
    def test_rejects_mixed_horizons(self):
        topology = Topology.pair()
        runs = [good_run(topology, 3), good_run(topology, 4)]
        with pytest.raises(ValueError):
            vectorized.runs_to_tensors(topology, 3, runs)

    def test_rejects_foreign_topology_run(self):
        pair = Topology.pair()
        path3 = Topology.path(3)
        with pytest.raises(ValueError):
            vectorized.runs_to_tensors(pair, 3, [good_run(path3, 3)])

    def test_good_run_delivers_everything(self):
        topology = Topology.ring(4)
        delivered, inputs = vectorized.runs_to_tensors(
            topology, 3, [good_run(topology, 3)]
        )
        assert delivered.all()
        assert inputs.all()


class TestPairKernels:
    def test_weak_estimates_are_reproducible(self):
        estimate_a = vectorized.pair_protocol_w_weak_estimate(
            12, 4, 0.3, 2_000, np.random.default_rng(5)
        )
        estimate_b = vectorized.pair_protocol_w_weak_estimate(
            12, 4, 0.3, 2_000, np.random.default_rng(5)
        )
        assert estimate_a == estimate_b

    def test_weak_estimate_s_bounds(self):
        estimate = vectorized.pair_protocol_s_weak_estimate(
            12, 1.0 / 12, 0.2, 2_000, np.random.default_rng(9)
        )
        assert 0.0 <= estimate.expected_unsafety <= 1.0
        assert 0.0 <= estimate.expected_liveness <= 1.0
