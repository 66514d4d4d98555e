"""Parity tests: the numpy batch kernel versus the reference simulator.

The engine's whole contract is that switching backends never changes a
number.  Hypothesis drives arbitrary runs on the named small
topologies, a fixed sweep covers random connected topologies, and in
every case the vectorized results must equal the reference closed
forms *exactly* (``==`` on the frozen result dataclass, no tolerance):
the kernel is an integer-exact transcription, not an approximation.

Below the results, the kernel's round step is checked state by state
against the per-process loop it replaced, kept here as the oracle, and
the incremental neighbor kernel is checked neighbor by neighbor.
Last, Lemma 6.4 ties the kernel's final counts to the level
definitions of :mod:`repro.core.measures`.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measures import level_profile, modified_level_profile
from repro.core.packed import PackedRun, RunBatch, layout_for
from repro.core.probability import evaluate
from repro.core.run import bernoulli_run, good_run
from repro.core.topology import Topology
from repro.engine import Engine, vectorized
from repro.protocols import (
    CountingSpec,
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    NeverAttack,
    ProtocolA,
    ProtocolS,
    ProtocolW,
    RfireLaw,
    SkewedS,
    XorCoin,
)

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


def _protocols_for(num_rounds: int, num_processes: int):
    """S and W, and every S variant with coordinator 1 and m."""
    protocols = [
        ProtocolS(epsilon=0.25),
        ProtocolS(epsilon=1.0 / max(1, num_rounds)),
        ProtocolW(1),
        ProtocolW(max(1, num_rounds // 2)),
    ]
    for coordinator in sorted({1, num_processes}):
        protocols += [
            EagerS(epsilon=0.2, coordinator=coordinator),
            GreedyS(epsilon=0.1, slack=1, coordinator=coordinator),
            GreedyS(epsilon=1.0 / max(2, num_rounds), slack=2, coordinator=coordinator),
            SkewedS(epsilon=0.25, coordinator=coordinator),
            MessageValidityS(epsilon=0.25, coordinator=coordinator),
        ]
    return protocols


class TestBatchParity:
    @given(pair=_topology_and_run())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_exactly(self, pair):
        topology, run = pair
        for protocol in _protocols_for(run.num_rounds, topology.num_processes):
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
                for protocol in _protocols_for(num_rounds, m):
                    assert vectorized.supports(protocol, topology)
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
                        assert columns.pr_attack.shape == (m, len(runs))
                        assert columns.pr_attack.T.tolist() == [
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

    def test_takes_exactly_the_protocols_with_a_spec(self):
        # The kernel runs a counting spec: a protocol without one (its
        # own machine, or no counting at all) stays on the reference.
        pair = Topology.pair()
        for protocol in (
            NaiveCountingS(epsilon=0.25),
            ProtocolA(4),
            NeverAttack(),
            XorCoin(),
        ):
            assert not vectorized.supports(protocol, pair), protocol.name
            with pytest.raises(ValueError, match="not supported"):
                vectorized.evaluate_batch(protocol, pair, [good_run(pair, 2)])
        for topology in NAMED_TOPOLOGIES:
            for protocol in _protocols_for(4, topology.num_processes):
                assert vectorized.supports(protocol, topology), protocol.name


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


# ----------------------------------------------------------------------
# The per-process loop: the round step's state-level oracle.
# ----------------------------------------------------------------------

# One state as the loop holds it: (count, seen, valid, rknown), each of
# shape (batch, m) — the transpose of the kernel's (m, lanes) layout.
LoopState = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
STATE_FIELDS = ("count", "seen", "valid", "rknown")


def _loop_initial_state(
    topology: Topology, inputs: np.ndarray, spec: CountingSpec
) -> LoopState:
    m = topology.num_processes
    batch = inputs.shape[0]
    own = np.array([np.int64(1) << i for i in range(m)], dtype=np.int64)
    valid = inputs.copy()
    rknown = np.zeros((batch, m), dtype=bool)
    if spec.coordinator is not None:
        rknown[:, spec.coordinator - 1] = True
    if spec.rfire_gated:
        counting0 = valid & rknown
    else:
        counting0 = valid.copy()
    if spec.message_gated:
        counting0[:, spec.coordinator - 1] = False
    count = np.where(counting0, np.int64(1), np.int64(0))
    seen = np.where(counting0, own[None, :], np.int64(0))
    return count, seen, valid, rknown


def _loop_advance_rounds(
    topology: Topology,
    delivered: np.ndarray,
    state: LoopState,
    spec: CountingSpec,
) -> LoopState:
    """The Figure 1 round transition, one process at a time."""
    m = topology.num_processes
    links = list(topology.directed_links())
    in_links = [
        (
            [k for k, (_, target) in enumerate(links) if target == process],
            [source - 1 for source, target in links if target == process],
        )
        for process in topology.processes
    ]
    own = np.array([np.int64(1) << i for i in range(m)], dtype=np.int64)
    full_mask = np.int64((1 << m) - 1)
    count, seen, valid, rknown = state
    for round_number in range(delivered.shape[1]):
        d = delivered[:, round_number, :]
        prev_count, prev_seen, prev_valid, prev_rknown = count, seen, valid, rknown
        count = prev_count.copy()
        seen = prev_seen.copy()
        valid = prev_valid.copy()
        rknown = prev_rknown.copy()
        for i in range(m):
            columns, senders = in_links[i]
            if not columns:
                continue
            dcols = d[:, columns]
            any_msg = dcols.any(axis=1)
            # Figure 1 lines 1-2: adopt rfire and validity.
            rknown_i = prev_rknown[:, i] | (
                dcols & prev_rknown[:, senders]
            ).any(axis=1)
            valid_i = prev_valid[:, i] | (dcols & prev_valid[:, senders]).any(
                axis=1
            )
            # Line 3: start counting.
            can_start = (prev_count[:, i] == 0) & valid_i
            if spec.rfire_gated:
                can_start &= rknown_i
            if spec.message_gated and i == spec.coordinator - 1:
                can_start &= any_msg
            ci = np.where(can_start, np.int64(1), prev_count[:, i])
            si = np.where(can_start, own[i], prev_seen[:, i])
            # Counting block: merge the highest delivered count.
            active = (ci >= 1) & any_msg
            sender_counts = np.where(dcols, prev_count[:, senders], np.int64(-1))
            high = sender_counts.max(axis=1)
            is_high = dcols & (sender_counts == high[:, None])
            highseen = np.bitwise_or.reduce(
                np.where(is_high, prev_seen[:, senders], np.int64(0)), axis=1
            )
            equal = active & (high == ci)
            greater = active & (high > ci)
            si = np.where(equal, si | highseen | own[i], si)
            si = np.where(greater, highseen | own[i], si)
            ci = np.where(greater, high, ci)
            wrap = active & (si == full_mask)
            ci = np.where(wrap, ci + 1, ci)
            si = np.where(wrap, own[i], si)
            count[:, i] = ci
            seen[:, i] = si
            valid[:, i] = valid_i
            rknown[:, i] = rknown_i
    return count, seen, valid, rknown


def _assert_same_state(
    step: vectorized.CountingState, loop: LoopState, where: str
) -> None:
    for name, expected in zip(STATE_FIELDS, loop):
        actual = getattr(step, name)
        assert actual.dtype == expected.dtype, f"{name} dtype at {where}"
        assert np.array_equal(actual.T, expected), f"{name} at {where}"


def _state_topologies() -> List[Tuple[str, Topology]]:
    """Named shapes, random graphs for m = 2..8, and isolated vertices."""
    named = [
        ("pair", Topology.pair()),
        ("path3", Topology.path(3)),
        ("path4", Topology.path(4)),
        ("ring4", Topology.ring(4)),
        ("ring6", Topology.ring(6)),
        ("star4", Topology.star(4)),
        ("star5", Topology.star(5)),
        ("complete3", Topology.complete(3)),
        ("complete4", Topology.complete(4)),
        ("grid2x3", Topology.grid(2, 3)),
        ("grid3x3", Topology.grid(3, 3)),
    ]
    rng = random.Random(316)
    randoms = [
        (f"random-m{m}-p{density}", Topology.random_connected(m, density, rng))
        for m in range(2, 9)
        for density in (0.0, 0.3, 0.7)
    ]
    isolated = [
        ("isolated-process", Topology.from_edges(3, [(1, 2)])),
        ("isolated-coordinator", Topology.from_edges(4, [(2, 3)])),
    ]
    return named + randoms + isolated


def _random_batch(
    rng: np.random.Generator, topology: Topology, lanes: int, num_rounds: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deliveries at a per-lane rate, inputs mostly present; lane 0 has all."""
    num_links = len(list(topology.directed_links()))
    rate = rng.random((lanes, 1, 1))
    delivered = rng.random((lanes, num_rounds, num_links)) < rate
    inputs = rng.random((lanes, topology.num_processes)) < 0.8
    inputs[0] = True
    return delivered, inputs


def _gate_specs(m: int) -> List[CountingSpec]:
    """Every start-gate / coordinator / message-gate combination."""
    law = RfireLaw("uniform", 4.0)
    combos = [(False, None, False)]
    for coordinator in sorted({1, m}):
        combos += [
            (True, coordinator, False),
            (False, coordinator, False),
            (True, coordinator, True),
            (False, coordinator, True),
        ]
    return [
        CountingSpec(
            rfire_gated=rfire_gated,
            coordinator=coordinator,
            message_gated=message_gated,
            slack=0,
            law=law,
        )
        for rfire_gated, coordinator, message_gated in combos
    ]


S_SPEC = ProtocolS(epsilon=0.25).counting_spec


class TestRoundStepOracle:
    """The all-process round step equals the per-process loop."""

    @pytest.mark.parametrize(
        "topology",
        [pytest.param(topology, id=name) for name, topology in _state_topologies()],
    )
    def test_states_match_at_every_round_boundary(self, topology):
        rng = np.random.default_rng(topology.num_processes * 1009 + len(topology.edges))
        plan = vectorized._plan(topology)
        m = topology.num_processes
        for spec in _gate_specs(m):
            for lanes in (1, 7, 300):
                num_rounds = int(rng.integers(1, 7))
                delivered, inputs = _random_batch(rng, topology, lanes, num_rounds)
                loop = _loop_initial_state(topology, inputs, spec)
                step = vectorized._initial_state(plan, inputs, spec)
                _assert_same_state(step, loop, "round 0")
                loops, steps = [loop], [step]
                for q in range(num_rounds):
                    one_round = delivered[:, q : q + 1, :]
                    loop = _loop_advance_rounds(topology, one_round, loop, spec)
                    step = vectorized._advance_rounds(plan, one_round, step, spec)
                    _assert_same_state(step, loop, f"round {q + 1}")
                    loops.append(loop)
                    steps.append(step)
                # All rounds in one call, and the public history.
                whole = vectorized._advance_rounds(plan, delivered, steps[0], spec)
                _assert_same_state(whole, loops[-1], "one call")
                history = vectorized.simulate_counting_history(
                    topology, delivered, inputs, spec
                )
                for q, state in enumerate(history):
                    _assert_same_state(state, loops[q], f"history {q}")
                # Resume every boundary's state over fresh deliveries.
                for q in range(num_rounds):
                    suffix, _ = _random_batch(
                        rng, topology, lanes, num_rounds - q
                    )
                    resumed = vectorized._advance_rounds(plan, suffix, steps[q], spec)
                    expected = _loop_advance_rounds(topology, suffix, loops[q], spec)
                    _assert_same_state(resumed, expected, f"resumed at {q}")
                    _assert_same_state(steps[q], loops[q], f"input of {q}")

    def test_tiled_single_lane_resumes_like_the_loop(self):
        topology = Topology.grid(2, 3)
        plan = vectorized._plan(topology)
        rng = np.random.default_rng(8)
        delivered, inputs = _random_batch(rng, topology, 1, 4)
        history = vectorized.simulate_counting_history(
            topology, delivered, inputs, S_SPEC
        )
        suffix, _ = _random_batch(rng, topology, 7, 2)
        resumed = vectorized._advance_rounds(
            plan, suffix, history[2].tiled(7), S_SPEC
        )
        loop = _loop_initial_state(topology, inputs, S_SPEC)
        loop = _loop_advance_rounds(topology, delivered[:, :2, :], loop, S_SPEC)
        tiled = tuple(np.repeat(array, 7, axis=0) for array in loop)
        expected = _loop_advance_rounds(topology, suffix, tiled, S_SPEC)
        _assert_same_state(resumed, expected, "tiled resume")
        with pytest.raises(ValueError, match="single-run"):
            resumed.tiled(2)


# ----------------------------------------------------------------------
# The incremental neighbor kernel, neighbor by neighbor.
# ----------------------------------------------------------------------


def _neighbor_topologies() -> List[Topology]:
    rng = random.Random(1953)
    return [
        Topology.random_connected(m, density, rng)
        for m in (2, 3, 4, 5)
        for density in (0.2, 0.8)
    ] + [
        Topology.from_edges(3, [(1, 2)]),
        Topology.from_edges(4, [(2, 3)]),
    ]


class TestNeighborBatch:
    @pytest.mark.parametrize("num_rounds", [1, 2, 4])
    def test_every_neighbor_equals_reference(self, num_rounds):
        rng = random.Random(num_rounds)
        checked = 0
        for topology in _neighbor_topologies():
            layout = layout_for(topology, num_rounds)
            parents = [
                PackedRun(layout, (1 << layout.num_bits) - 1),
                PackedRun(layout, rng.getrandbits(layout.num_bits)),
            ]
            for protocol in _protocols_for(num_rounds, topology.num_processes):
                for parent in parents:
                    neighborhood, by_bit = vectorized.evaluate_neighbor_batch(
                        protocol, topology, parent
                    )
                    parent_result, *neighbors = neighborhood.rows()
                    assert parent_result == evaluate(
                        protocol, topology, parent.unpack()
                    )
                    assert len(by_bit) == layout.num_bits
                    assert by_bit.rows() == neighbors
                    for bit, result in enumerate(by_bit.rows()):
                        flipped = PackedRun(layout, parent.bits ^ (1 << bit))
                        assert result == evaluate(
                            protocol, topology, flipped.unpack()
                        ), (topology, protocol.name, parent.bits, bit)
                        checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# Lemma 6.4: the kernel's counts are the levels of core.measures.
# ----------------------------------------------------------------------


def _level_topologies() -> List[Tuple[str, Topology]]:
    rng = random.Random(64)
    randoms = [
        (f"random-m{m}-p{density}", Topology.random_connected(m, density, rng))
        for m in range(2, 9)
        for density in (0.0, 0.4, 0.8)
    ]
    return randoms + [
        ("grid3x3", Topology.grid(3, 3)),
        ("ring6", Topology.ring(6)),
        ("isolated-process", Topology.from_edges(3, [(1, 2)])),
        ("isolated-coordinator", Topology.from_edges(4, [(2, 3)])),
    ]


class TestLemma64:
    """Valid-gated counts are ``L_i(R)``; rfire-gated ones are ``ML_i(R)``.

    Lemma 6.4 proves ``count_i = ML_i(R)`` for Protocol S's machine,
    and the same argument without the rfire gate gives ``L_i(R)``.
    Every search reads these counts, so they are checked against the
    definitions here, not only against the reference simulator.
    """

    @pytest.mark.parametrize(
        "topology",
        [pytest.param(topology, id=name) for name, topology in _level_topologies()],
    )
    def test_counts_equal_levels(self, topology):
        rng = random.Random(topology.num_processes * 7919 + len(topology.edges))
        m = topology.num_processes
        for num_rounds in (1, 3, 6, 10):
            runs = [good_run(topology, num_rounds)]
            for _ in range(15):
                run = bernoulli_run(
                    topology, num_rounds, rng.choice((0.3, 0.6, 0.9)), rng
                )
                if rng.random() < 0.3:
                    run = run.with_inputs(
                        i for i in run.inputs if rng.random() < 0.6
                    )
                runs.append(run)
            delivered, inputs = vectorized.runs_to_tensors(
                topology, num_rounds, runs
            )
            counts, _ = vectorized.simulate_counting_batch(
                topology, delivered, inputs, ProtocolW(1).counting_spec
            )
            for lane, run in enumerate(runs):
                levels = level_profile(run, m)
                assert counts[lane].tolist() == [
                    levels.final_level(i) for i in topology.processes
                ], (run, "L")
            for coordinator in (1, m):
                spec = ProtocolS(epsilon=0.25, coordinator=coordinator).counting_spec
                counts, rknown = vectorized.simulate_counting_batch(
                    topology, delivered, inputs, spec
                )
                masked = np.where(rknown, counts, 0)
                for lane, run in enumerate(runs):
                    mlevels = modified_level_profile(run, m, coordinator)
                    assert masked[lane].tolist() == [
                        mlevels.final_level(i) for i in topology.processes
                    ], (run, "ML", coordinator)
