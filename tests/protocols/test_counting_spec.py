"""The counting spec: one closed form, one formula, one output rule.

Every Figure 1 protocol reads one :class:`CountingSpec`.  These tests
pin the shared closed form to the per-class closed forms it replaced
(kept in :mod:`legacy_closed_forms`) at ``==``, the scalar formula to
its column twin in the kernel, the spec-driven output rule to the
per-class ones on every draw, and the coordinator contract.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest

from repro.core.packed import RunBatch
from repro.core.probability import evaluate
from repro.core.run import bernoulli_run, good_run
from repro.core.topology import Topology
from repro.engine import vectorized
from repro.protocols import (
    CountingState,
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    ProtocolS,
    ProtocolW,
    RfireLaw,
    SkewedS,
    threshold_probabilities,
)

from .legacy_closed_forms import (
    legacy_closed_form,
    legacy_output,
    protocol_s_probabilities,
    protocol_w_probabilities,
    rfire_threshold_probabilities,
    skewed_cdf,
    threshold_probabilities_with_cdf,
)

EPSILONS = (
    1.0, 0.5, 1 / 3, 0.25, 0.2, 1 / 7, 0.125, 0.1, 1 / 12, 0.07,
    0.05, 0.03, 0.02, 0.013, 0.01,
)


def _counting_protocols(epsilon: float, coordinator: int):
    return [
        ProtocolS(epsilon=epsilon, coordinator=coordinator),
        EagerS(epsilon=epsilon, coordinator=coordinator),
        GreedyS(epsilon=epsilon, slack=1, coordinator=coordinator),
        GreedyS(epsilon=epsilon, slack=2, coordinator=coordinator),
        SkewedS(epsilon=epsilon, coordinator=coordinator),
        MessageValidityS(epsilon=epsilon, coordinator=coordinator),
    ]


def _topologies():
    rng = random.Random(25)
    return [
        Topology.pair(),
        Topology.path(3),
        Topology.star(4),
        Topology.complete(3),
        Topology.from_edges(3, [(1, 2)]),
        Topology.from_edges(4, [(2, 3)]),
    ] + [Topology.random_connected(m, 0.5, rng) for m in (2, 3, 4, 5)]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_identical(actual, expected) -> None:
    """``==`` plus the sign of every zero."""
    assert actual == expected
    for field in ("pr_total_attack", "pr_no_attack", "pr_partial_attack"):
        assert _bits(getattr(actual, field)) == _bits(getattr(expected, field))
    assert [_bits(p) for p in actual.pr_attack] == [
        _bits(p) for p in expected.pr_attack
    ]


class TestClosedFormMatchesLegacy:
    @pytest.mark.parametrize("num_rounds", [1, 2, 3, 5])
    def test_every_protocol_on_random_runs(self, num_rounds):
        rng = random.Random(num_rounds)
        checked = 0
        for topology in _topologies():
            m = topology.num_processes
            runs = [good_run(topology, num_rounds)] + [
                bernoulli_run(topology, num_rounds, rng.random(), rng).with_inputs(
                    i for i in topology.processes if rng.random() < 0.8
                )
                for _ in range(6)
            ]
            protocols = [ProtocolW(1), ProtocolW(max(1, num_rounds // 2))]
            for coordinator in sorted({1, m}):
                epsilon = rng.choice(EPSILONS)
                protocols += _counting_protocols(epsilon, coordinator)
            for protocol in protocols:
                for run in runs:
                    _assert_identical(
                        protocol.closed_form_probabilities(topology, run),
                        legacy_closed_form(protocol, topology, run),
                    )
                    checked += 1
        assert checked > 0


class TestOneFormula:
    """The three scalar helpers and the S/W arithmetic were one formula."""

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_scalar_helpers_agree(self, epsilon):
        rng = random.Random(hash(epsilon))
        t = 1.0 / epsilon
        uniform = RfireLaw("uniform", t)
        skewed = RfireLaw("sqrt", t)
        for m in range(1, 6):
            for _ in range(60):
                thresholds = [rng.randint(0, 80) for _ in range(m)]
                floats = [float(a) for a in thresholds]
                expected = protocol_s_probabilities(thresholds, t)
                _assert_identical(threshold_probabilities(thresholds, uniform), expected)
                _assert_identical(rfire_threshold_probabilities(floats, t), expected)
                _assert_identical(
                    threshold_probabilities_with_cdf(
                        floats, lambda c: min(1.0, c / t)
                    ),
                    expected,
                )
                _assert_identical(
                    threshold_probabilities(thresholds, skewed),
                    threshold_probabilities_with_cdf(
                        floats, lambda c: skewed_cdf(c, t)
                    ),
                )

    @pytest.mark.parametrize("k", range(1, 10))
    def test_step_law_is_protocol_w(self, k):
        rng = random.Random(k)
        for m in range(1, 6):
            for _ in range(60):
                counts = [rng.randint(0, 12) for _ in range(m)]
                _assert_identical(
                    threshold_probabilities(counts, RfireLaw("step", k)),
                    protocol_w_probabilities(counts, k),
                )

    @pytest.mark.parametrize(
        "law",
        [RfireLaw("uniform", 1.0 / e) for e in EPSILONS]
        + [RfireLaw("sqrt", 1.0 / e) for e in EPSILONS]
        + [RfireLaw("step", k) for k in range(1, 10)],
        ids=lambda law: f"{law.kind}-{law.top:g}",
    )
    def test_column_twin_matches_scalar(self, law):
        rng = np.random.default_rng(7)
        for m in range(1, 6):
            thresholds = rng.integers(0, 81, size=(m, 200), dtype=np.int64)
            thresholds[:, 0] = 0
            columns = vectorized.threshold_columns(thresholds, law)
            for lane, row in enumerate(columns.rows()):
                _assert_identical(
                    row, threshold_probabilities(thresholds[:, lane].tolist(), law)
                )

    def test_skewed_cdf_is_the_law(self):
        protocol = SkewedS(epsilon=0.125)
        for value in (0.0, 0.5, 1.0, 3.0, 8.0, 9.0, -1.0):
            assert _bits(protocol.cdf(value)) == _bits(skewed_cdf(value, 8.0))


class TestOutputRule:
    """The spec's output rule decides as each class's rule did."""

    def test_every_draw(self):
        rng = random.Random(11)
        protocols = [ProtocolW(1), ProtocolW(3)] + _counting_protocols(0.125, 1)
        draws = [rng.uniform(0.0, 8.0) for _ in range(200)]
        # Draws within an ulp of an integer, where count + slack >= rfire
        # and count >= rfire - slack can round apart.
        for n in range(0, 9):
            draws += [math.nextafter(float(n), math.inf), math.nextafter(float(n), 0.0)]
            draws += [float(n), n + 2.0**-50]
        draws = [d for d in draws if d > 0.0]
        for protocol in protocols:
            local = protocol.local_protocol(1, Topology.pair())
            for count in range(0, 10):
                for valid in (False, True):
                    if count >= 1 and not valid:
                        continue  # unreachable: counting needs validity
                    for rfire in [None] + draws:
                        state = CountingState(count, rfire, frozenset(), valid)
                        assert local.output(state) == legacy_output(
                            protocol, state
                        ), (protocol.name, state)


RFIRE_PROTOCOLS = [
    ProtocolS,
    EagerS,
    GreedyS,
    SkewedS,
    MessageValidityS,
    NaiveCountingS,
]


class TestCoordinator:
    @pytest.mark.parametrize("cls", RFIRE_PROTOCOLS, ids=lambda c: c.__name__)
    def test_coordinator_zero_is_refused(self, cls):
        with pytest.raises(ValueError, match="coordinator"):
            cls(epsilon=0.25, coordinator=0)

    @pytest.mark.parametrize("cls", RFIRE_PROTOCOLS, ids=lambda c: c.__name__)
    def test_coordinator_outside_the_topology(self, cls):
        pair = Topology.pair()
        protocol = cls(epsilon=0.25, coordinator=5)
        assert not protocol.supports_topology(pair)
        assert not vectorized.supports(protocol, pair)
        with pytest.raises(ValueError):
            evaluate(protocol, pair, good_run(pair, 4))


class TestKernelTakesEverySpec:
    def test_message_gate_on_the_kernel(self):
        # The coordinator with input but no delivery never starts.
        topology = Topology.path(3)
        runs = [good_run(topology, 3), good_run(topology, 3).with_inputs([1])]
        batch = RunBatch.from_runs(topology, 3, runs)
        for coordinator in (1, 2, 3):
            protocol = MessageValidityS(epsilon=0.25, coordinator=coordinator)
            assert vectorized.evaluate_packed_batch(
                protocol, topology, batch
            ).rows() == [evaluate(protocol, topology, run) for run in runs]
