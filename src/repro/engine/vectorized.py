"""The vectorized backend: numpy batch evaluation of counting protocols.

This module generalizes the two-general recurrence that used to live
in :mod:`repro.analysis.fast_mc` to *arbitrary* topologies and batches
of runs.  The Figure 1 counting machine (see
:mod:`repro.protocols.counting`) has integer state — ``count``, a
``seen`` set, and the ``valid`` / ``rfire``-heard flags — all of which
vectorize across a batch of runs:

* the state is held as ``(process, lane)`` arrays, one lane per run;
* ``seen`` sets become bitmasks (one ``int64`` per process and lane),
  so the Figure 1 ``highseen`` union is a bitwise OR;
* deliveries become a boolean tensor ``(batch, round, directed link)``,
  which each round gathers into an ``(m, max in-degree, lanes)`` block
  through the padded in-link tables of :func:`_plan`;
* one python-level loop remains, over rounds: within a round every
  process reads only the previous round's state, so one step updates
  all processes of all lanes at once.

The kernel takes every protocol with a
:class:`~repro.protocols.counting.CountingSpec` (Protocols S and W and
the variants EagerS, GreedyS, SkewedS and MessageValidityS): the round
step reads the spec's start and message gates, and one finisher applies
its threshold map and rfire law.  Because the counting state is
integral, the batch kernel reproduces the reference simulator
*exactly* — not approximately — and :func:`threshold_columns` is the
column twin of the reference formula
:func:`~repro.protocols.counting.threshold_probabilities`, operation
for operation, so the floats are bit-identical too.
``tests/engine/test_vectorized.py`` enforces this on random connected
topologies, runs and neighborhoods, and checks the round step state by
state against the per-process loop it replaced.

The specialized two-general kernels (``simulate_pair_counts`` and the
valid-gated variant) remain as fast paths for the huge weak-adversary
sample sweeps; :mod:`repro.analysis.fast_mc` now delegates to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.packed import PackedRun, RunBatch, layout_for
from ..core.probability import EventColumns, EventProbabilities
from ..core.protocol import Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round
from ..protocols.counting import CountingProtocol, CountingSpec, RfireLaw

# ``seen`` bitmasks live in int64 lanes; one bit per process.
MAX_VECTORIZED_PROCESSES = 62


# ----------------------------------------------------------------------
# Topology plans: padded in-link gather tables, cached.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TopologyPlan:
    """In-link gather tables for one topology, padded to one width.

    Row ``i`` of ``link_columns`` and ``senders`` lists process
    ``i + 1``'s in-links as (delivery column, sender 0-index) pairs in
    :meth:`Topology.directed_links` order, padded to the largest
    in-degree (at least 1).  A pad entry's column is ``num_links``: the
    extra delivery column the step appends, which is never delivered,
    so a pad adds nothing to any gather; its sender index is 0, and
    the false delivery masks that state out.  ``own`` is each
    process's own ``seen`` bit as an ``(m, 1)`` column.
    """

    num_processes: int
    num_links: int
    link_columns: np.ndarray
    senders: np.ndarray
    own: np.ndarray
    full_mask: np.int64


@lru_cache(maxsize=128)
def _plan(topology: Topology) -> _TopologyPlan:
    links = tuple(topology.directed_links())
    m = topology.num_processes
    in_links: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    for k, (source, target) in enumerate(links):
        in_links[target - 1].append((k, source - 1))
    width = max(1, max(len(row) for row in in_links))
    link_columns = np.full((m, width), len(links), dtype=np.intp)
    senders = np.zeros((m, width), dtype=np.intp)
    for i, row in enumerate(in_links):
        for j, (column, sender) in enumerate(row):
            link_columns[i, j] = column
            senders[i, j] = sender
    own = np.left_shift(np.int64(1), np.arange(m, dtype=np.int64))[:, None]
    for table in (link_columns, senders, own):
        table.setflags(write=False)
    return _TopologyPlan(
        num_processes=m,
        num_links=len(links),
        link_columns=link_columns,
        senders=senders,
        own=own,
        full_mask=np.int64((1 << m) - 1),
    )


def runs_to_tensors(
    topology: Topology, num_rounds: Round, runs: Sequence[Run]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack runs into ``(delivered, inputs)`` boolean tensors.

    ``delivered`` has shape ``(batch, num_rounds, num_directed_links)``
    with the link order of :meth:`Topology.directed_links`; ``inputs``
    has shape ``(batch, num_processes)``.  Raises ``ValueError`` for a
    run that does not fit the topology or horizon (the same conditions
    the reference simulator rejects).

    Routed through :mod:`repro.core.packed`: each run becomes one
    bitmask (the ``RunLayout`` link order is by construction the
    ``_plan`` link order) and the tensors are extracted from the
    resulting :class:`RunBatch` in one vectorized pass.
    """
    layout = layout_for(topology, num_rounds)
    batch = RunBatch.from_bits(
        layout, (layout.pack_bits(run) for run in runs)
    )
    return batch.tensors()


# ----------------------------------------------------------------------
# The generalized counting kernel.
# ----------------------------------------------------------------------


@dataclass
class CountingState:
    """The Figure 1 machine's batched state at one round boundary.

    All arrays have shape ``(m, lanes)``: row ``i`` is process
    ``i + 1`` and column ``j`` is run ``j`` of the batch.  The state
    before round ``q`` depends only on deliveries in rounds ``< q``,
    which is what makes single-bit neighbor evaluation incremental: a
    run differing from its parent only in a round-``q`` delivery
    resumes from the parent's saved state instead of re-simulating
    rounds ``1..q-1`` (:func:`evaluate_neighbor_batch`).
    """

    count: np.ndarray
    seen: np.ndarray
    valid: np.ndarray
    rknown: np.ndarray

    def tiled(self, lanes: int) -> "CountingState":
        """A single-run state broadcast to ``lanes`` independent lanes."""
        if self.count.shape[1] != 1:
            raise ValueError("tiled() expects a single-run state")
        return CountingState(
            count=np.repeat(self.count, lanes, axis=1),
            seen=np.repeat(self.seen, lanes, axis=1),
            valid=np.repeat(self.valid, lanes, axis=1),
            rknown=np.repeat(self.rknown, lanes, axis=1),
        )


def _initial_state(
    plan: _TopologyPlan, inputs: np.ndarray, spec: CountingSpec
) -> CountingState:
    """The pre-round-1 state of the Figure 1 machine."""
    valid = np.ascontiguousarray(inputs.T)
    rknown = np.zeros_like(valid)
    if spec.coordinator is not None:
        # Only the coordinator holds a defined rfire at the start (the
        # other processes' tapes are constant None).
        rknown[spec.coordinator - 1] = True
    counting0 = valid & rknown if spec.rfire_gated else valid
    count = np.where(counting0, np.int64(1), np.int64(0))
    seen = np.where(counting0, plan.own, np.int64(0))
    if spec.message_gated and spec.coordinator is not None:
        # No message has arrived yet: the coordinator defers its start.
        count[spec.coordinator - 1] = 0
        seen[spec.coordinator - 1] = 0
    return CountingState(count=count, seen=seen, valid=valid, rknown=rknown)


def _advance_rounds(
    plan: _TopologyPlan,
    delivered: np.ndarray,
    state: CountingState,
    spec: CountingSpec,
) -> CountingState:
    """Advance the counting machine over ``delivered.shape[1]`` rounds.

    The single source of truth for the round transition — full
    simulation, the per-round history, and incremental resumption all
    go through this loop, so they are bit-identical by construction.
    Each round is one step over all processes at once: within a round
    every process reads only the previous round's state, so the
    Figure 1 update applies to the whole ``(m, in-degree, lanes)``
    gather of senders' states.  The input ``state`` is not mutated; a
    fresh state is returned.

    A process without in-links gathers only pads, so no message reaches
    it and its ``valid`` and ``rknown`` never change.  Its initial
    state therefore already counts if it can ever start (a message-gated
    coordinator never can), and otherwise its count stays 0: the step
    needs no has-in-links mask to leave such a process as it was.
    """
    lanes, num_rounds = delivered.shape[:2]
    # (round, link, lane), plus the never-delivered pad column.
    columns = np.zeros((num_rounds, plan.num_links + 1, lanes), dtype=bool)
    columns[:, :-1, :] = delivered.transpose(1, 2, 0)
    senders = plan.senders
    own = plan.own
    count = state.count
    seen = state.seen
    valid = state.valid
    rknown = state.rknown
    rfire_gated = spec.rfire_gated
    # The message gate holds back one row: the coordinator's.
    gated_row: Optional[int] = None
    if spec.message_gated and spec.coordinator is not None:
        gated_row = spec.coordinator - 1

    # d[i, k, lane]: whether process i's k-th in-link delivers.
    for d in columns[:, plan.link_columns]:
        # Figure 1 lines 1-2: adopt rfire and validity.
        rknown_next = rknown | (d & rknown[senders]).any(axis=1)
        valid_next = valid | (d & valid[senders]).any(axis=1)
        # Line 3: start counting.
        can_start = (count == 0) & valid_next
        if rfire_gated:
            can_start &= rknown_next
        if gated_row is not None:
            can_start[gated_row] &= d[gated_row].any(axis=0)
        ci = np.where(can_start, np.int64(1), count)
        si = np.where(can_start, own, seen)
        # Counting block: merge the highest delivered count.  An
        # undelivered entry reads -1, below every count, so ``high``
        # is -1 exactly when nothing arrived, and otherwise the
        # entries equal to ``high`` are the delivered highest ones.
        sender_counts = np.where(d, count[senders], np.int64(-1))
        high = sender_counts.max(axis=1)
        is_high = sender_counts == high[:, None, :]
        highseen = np.bitwise_or.reduce(
            np.where(is_high, seen[senders], np.int64(0)), axis=1
        )
        merged = highseen | own
        active = (ci >= 1) & (high >= 0)
        equal = active & (high == ci)
        greater = active & (high > ci)
        si = np.where(equal, si | merged, si)
        si = np.where(greater, merged, si)
        ci = np.where(greater, high, ci)
        wrap = active & (si == plan.full_mask)
        ci = np.where(wrap, ci + 1, ci)
        si = np.where(wrap, own, si)
        count, seen, valid, rknown = ci, si, valid_next, rknown_next
    return CountingState(count=count, seen=seen, valid=valid, rknown=rknown)


def _check_kernel_shapes(
    plan: _TopologyPlan, delivered: np.ndarray
) -> None:
    m = plan.num_processes
    if m > MAX_VECTORIZED_PROCESSES:
        raise ValueError(
            f"vectorized kernel supports at most {MAX_VECTORIZED_PROCESSES} "
            f"processes, got {m}"
        )
    if delivered.shape[2] != plan.num_links:
        raise ValueError("delivery tensor does not match the topology")


def simulate_counting_batch(
    topology: Topology,
    delivered: np.ndarray,
    inputs: np.ndarray,
    spec: CountingSpec,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the Figure 1 counting machine over a batch of runs.

    Returns ``(counts, rfire_known)`` of shape ``(batch, m)``: the
    final ``count_i`` values and whether each process ever heard the
    coordinator's ``rfire`` draw.  ``spec`` supplies the start gate
    (rfire-gated for Protocol S, valid-gated for plain level tracking),
    the coordinator and the message gate.

    The transition is a line-for-line vectorization of
    ``CountingLocal.transition``; ``seen`` sets are bitmasks.
    """
    plan = _plan(topology)
    _check_kernel_shapes(plan, delivered)
    state = _initial_state(plan, inputs, spec)
    final = _advance_rounds(plan, delivered, state, spec)
    return final.count.T, final.rknown.T


def simulate_counting_history(
    topology: Topology,
    delivered: np.ndarray,
    inputs: np.ndarray,
    spec: CountingSpec,
) -> List[CountingState]:
    """Run the counting machine, keeping the state at every boundary.

    Returns ``num_rounds + 1`` states: ``states[k]`` is the state
    after ``k`` rounds (``states[0]`` is pre-round-1).  Each round is
    advanced through the same :func:`_advance_rounds` loop as the flat
    simulation, so ``states[-1]`` equals the
    :func:`simulate_counting_batch` result exactly.
    """
    plan = _plan(topology)
    _check_kernel_shapes(plan, delivered)
    state = _initial_state(plan, inputs, spec)
    states = [state]
    for round_number in range(delivered.shape[1]):
        state = _advance_rounds(
            plan,
            delivered[:, round_number : round_number + 1, :],
            state,
            spec,
        )
        states.append(state)
    return states


# ----------------------------------------------------------------------
# The finisher: threshold map and rfire law, as columns.
# ----------------------------------------------------------------------


def threshold_columns(thresholds: np.ndarray, law: RfireLaw) -> EventColumns:
    """Event probabilities from ``(m, lanes)`` attack thresholds.

    The column twin of
    :func:`~repro.protocols.counting.threshold_probabilities`,
    operation for operation (``min``/``max`` become reductions over
    processes), so every float matches the reference bit for bit.
    Thresholds are non-negative integers.
    """
    if law.kind == "uniform":
        pr_attack = np.minimum(1.0, thresholds / law.top)
    elif law.kind == "sqrt":
        pr_attack = np.minimum(1.0, np.sqrt(thresholds / law.top))
    else:
        pr_attack = (thresholds >= law.top).astype(np.float64)
    pr_ta = pr_attack.min(axis=0)
    pr_na = 1.0 - pr_attack.max(axis=0)
    pr_pa = np.maximum(0.0, 1.0 - pr_ta - pr_na)
    return EventColumns(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=pr_attack,
        method="closed-form",
    )


def _finish(
    spec: CountingSpec, count: np.ndarray, rknown: np.ndarray
) -> EventColumns:
    """The one finisher: the spec's threshold map over final
    ``(m, lanes)`` states (:meth:`CountingSpec.threshold`), then its law."""
    if spec.coordinator is None:
        thresholds = count
    elif spec.slack == 0:
        # Without slack a count of 0 maps to 0 either way: one pass.
        thresholds = np.where(rknown, count, np.int64(0))
    else:
        thresholds = np.where(
            rknown & (count >= 1), count + spec.slack, np.int64(0)
        )
    return threshold_columns(thresholds, spec.law)


def supports(protocol: Protocol, topology: Topology) -> bool:
    """Whether the vectorized backend can evaluate this pair exactly.

    The kernel takes every protocol with a counting spec
    (:class:`~repro.protocols.counting.CountingProtocol`) on a topology
    it supports, up to :data:`MAX_VECTORIZED_PROCESSES` processes.
    """
    if topology.num_processes > MAX_VECTORIZED_PROCESSES:
        return False
    return isinstance(protocol, CountingProtocol) and protocol.supports_topology(
        topology
    )


def _spec_of(protocol: Protocol) -> CountingSpec:
    """The counting spec the kernel runs; ``ValueError`` without one."""
    if not isinstance(protocol, CountingProtocol):
        raise ValueError(
            f"protocol {protocol.name!r} is not supported by the vectorized "
            "backend"
        )
    return protocol.counting_spec


def evaluate_batch(
    protocol: Protocol, topology: Topology, runs: Sequence[Run]
) -> List[EventProbabilities]:
    """Evaluate a uniform-horizon batch of runs on a supported protocol."""
    if not runs:
        return []
    num_rounds = runs[0].num_rounds
    batch = RunBatch.from_runs(topology, num_rounds, runs)
    return evaluate_packed_batch(protocol, topology, batch).rows()


def evaluate_packed_batch(
    protocol: Protocol, topology: Topology, batch: RunBatch
) -> EventColumns:
    """Evaluate a :class:`RunBatch` directly — no per-run unpacking.

    The packed words are the wire form all the way from enumeration:
    tensors come out of :meth:`RunBatch.tensors` as one bit-extraction
    pass and feed the counting kernel unchanged, and the results stay
    columns, so no per-run Python object exists at any point.  Their
    :meth:`~repro.core.probability.EventColumns.rows` are bit-identical
    to :func:`evaluate_batch` over the unpacked runs.
    """
    if batch.layout.topology != topology:
        raise ValueError("batch layout does not match the topology")
    spec = _spec_of(protocol)
    delivered, inputs = batch.tensors()
    counts, rknown = simulate_counting_batch(topology, delivered, inputs, spec)
    return _finish(spec, counts.T, rknown.T)


def evaluate_neighbor_batch(
    protocol: Protocol, topology: Topology, parent: PackedRun
) -> Tuple[EventColumns, EventColumns]:
    """Evaluate a run and every single-bit neighbor incrementally.

    Returns ``(neighborhood, by_bit)``: the columns of the parent
    followed by its neighbors in bit order, and the same columns
    without the parent, so ``by_bit`` holds one run per layout bit.
    The parent is simulated once with its per-round state history
    retained; a neighbor differing in a round-``q`` delivery resumes
    from the parent's state before round ``q`` (the counting machine
    is causal), all ``L`` round-``q`` neighbors in one batch.
    Input-bit flips change the initial state and re-run the whole
    horizon in one ``m``-lane batch.  Every lane goes through the same
    :func:`_advance_rounds` loop as a from-scratch evaluation, and one
    finisher call covers all lanes, so the results are bit-identical
    to it.
    """
    layout = parent.layout
    if layout.topology != topology:
        raise ValueError("parent layout does not match the topology")
    spec = _spec_of(protocol)
    plan = _plan(topology)
    m = layout.num_processes
    num_links = layout.num_links
    delivered, inputs = RunBatch.from_bits(layout, (parent.bits,)).tensors()
    states = simulate_counting_history(topology, delivered, inputs, spec)
    # Input-bit neighbors: the flip changes the initial state, so the
    # whole horizon re-runs.
    flipped_inputs = np.repeat(inputs, m, axis=0)
    flipped_inputs[np.arange(m), np.arange(m)] ^= True
    finals = [
        states[-1],
        _advance_rounds(
            plan,
            np.repeat(delivered, m, axis=0),
            _initial_state(plan, flipped_inputs, spec),
            spec,
        ),
    ]
    # Message-bit neighbors, by round: resume the L round-q lanes from
    # the parent's pre-round-q state and advance the suffix only.
    lanes = np.arange(num_links)
    for flip_round in range(1, layout.num_rounds + 1):
        suffix = np.repeat(delivered[:, flip_round - 1 :, :], num_links, axis=0)
        suffix[lanes, 0, lanes] ^= True
        finals.append(
            _advance_rounds(
                plan, suffix, states[flip_round - 1].tiled(num_links), spec
            )
        )
    neighborhood = _finish(
        spec,
        np.concatenate([state.count for state in finals], axis=1),
        np.concatenate([state.rknown for state in finals], axis=1),
    )
    return neighborhood, neighborhood[1:]


# ----------------------------------------------------------------------
# Two-general fast paths (the former analysis.fast_mc kernels).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairCounts:
    """Vectorized final states for a batch of two-general runs."""

    count_1: np.ndarray
    count_2: np.ndarray
    rfire_heard_2: np.ndarray  # process 1 always knows rfire


def simulate_pair_counts(
    delivered_1_to_2: np.ndarray,
    delivered_2_to_1: np.ndarray,
    input_1: bool = True,
    input_2: bool = True,
) -> PairCounts:
    """Run the ``m = 2`` rfire-gated counting recurrence over a batch.

    ``delivered_x_to_y`` are boolean arrays of shape
    ``(num_runs, num_rounds)``: whether the round-``r`` message on that
    directed link is delivered.  Returns the final counts (which equal
    the modified levels, Lemma 6.4) and whether process 2 ever heard
    ``rfire``.  On the pair topology the ``seen`` set fills instantly,
    so the Figure 1 machine collapses to this two-variable recurrence.
    """
    if delivered_1_to_2.shape != delivered_2_to_1.shape:
        raise ValueError("delivery matrices must have identical shape")
    num_runs, num_rounds = delivered_1_to_2.shape
    c1 = np.zeros(num_runs, dtype=np.int64)
    c2 = np.zeros(num_runs, dtype=np.int64)
    v1 = np.full(num_runs, bool(input_1))
    v2 = np.full(num_runs, bool(input_2))
    f2 = np.zeros(num_runs, dtype=bool)
    c1[v1] = 1  # the coordinator holds rfire from the start
    for round_number in range(num_rounds):
        d12 = delivered_1_to_2[:, round_number]
        d21 = delivered_2_to_1[:, round_number]
        prev_c1 = c1
        prev_c2 = c2
        prev_v1 = v1
        prev_v2 = v2
        v1 = v1 | (d21 & prev_v2)
        v2 = v2 | (d12 & prev_v1)
        f2 = f2 | d12
        c1 = np.where((prev_c1 == 0) & v1, np.int64(1), prev_c1)
        c2 = np.where((prev_c2 == 0) & v2 & f2, np.int64(1), prev_c2)
        c1 = np.where(d21 & (prev_c2 >= 1), np.maximum(c1, prev_c2 + 1), c1)
        c2 = np.where(d12 & (prev_c1 >= 1), np.maximum(c2, prev_c1 + 1), c2)
    return PairCounts(count_1=c1, count_2=c2, rfire_heard_2=f2)


def simulate_pair_counts_valid_gated(
    delivered_1_to_2: np.ndarray, delivered_2_to_1: np.ndarray
) -> PairCounts:
    """The valid-gated (Protocol W) pair recurrence: counts track L_i.

    Both inputs are assumed present, so every count is >= 1 from the
    start and the `count >= 1` gates of the general recurrence are
    always open — which leaves two fused max/where updates per round.
    """
    num_runs, num_rounds = delivered_1_to_2.shape
    c1 = np.ones(num_runs, dtype=np.int64)  # both inputs present
    c2 = np.ones(num_runs, dtype=np.int64)
    for round_number in range(num_rounds):
        d12 = delivered_1_to_2[:, round_number]
        d21 = delivered_2_to_1[:, round_number]
        new_c1 = np.where(d21, np.maximum(c1, c2 + 1), c1)
        c2 = np.where(d12, np.maximum(c2, c1 + 1), c2)
        c1 = new_c1
    return PairCounts(
        count_1=c1,
        count_2=c2,
        rfire_heard_2=np.ones(num_runs, dtype=bool),
    )


def sample_pair_deliveries(
    num_runs: int,
    num_rounds: Round,
    loss_probability: float,
    rng: np.random.Generator,
    dtype=np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw i.i.d.-loss delivery matrices for a batch of pair runs.

    ``dtype`` selects the uniform-draw precision: ``float64`` matches
    the historical ``analysis.fast_mc`` sampling bit-for-bit, while
    ``float32`` halves the sampling cost (the engine's default for its
    own sweeps — a Bernoulli threshold does not need 53 bits).
    """
    keep = dtype(1.0 - loss_probability)
    d12 = rng.random((num_runs, num_rounds), dtype=dtype) < keep
    d21 = rng.random((num_runs, num_rounds), dtype=dtype) < keep
    return d12, d21


def pair_protocol_s_weak_estimate(
    num_rounds: Round,
    epsilon: float,
    loss_probability: float,
    samples: int,
    rng: np.random.Generator,
    dtype=np.float32,
):
    """Vectorized ``E[L]`` / ``E[U]`` for Protocol S under i.i.d. loss.

    Per sampled run the probabilities are exact (the closed form in
    threshold space); only the run draw is sampled.  Returns a
    :class:`repro.adversary.weak.WeakAdversaryEstimate`.
    """
    from ..adversary.weak import WeakAdversaryEstimate

    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    d12, d21 = sample_pair_deliveries(
        samples, num_rounds, loss_probability, rng, dtype
    )
    counts = simulate_pair_counts(d12, d21)
    t = 1.0 / epsilon
    a1 = counts.count_1.astype(np.float64)
    a2 = np.where(counts.rfire_heard_2, counts.count_2, 0).astype(np.float64)
    pr1 = np.minimum(1.0, a1 / t)
    pr2 = np.minimum(1.0, a2 / t)
    pr_ta = np.minimum(pr1, pr2)
    pr_pa = np.abs(pr1 - pr2)
    return WeakAdversaryEstimate(
        expected_liveness=float(pr_ta.mean()),
        expected_unsafety=float(pr_pa.mean()),
        disagreement_runs=int(np.count_nonzero(pr_pa > 0)),
        samples=samples,
    )


def pair_protocol_w_weak_estimate(
    num_rounds: Round,
    threshold: int,
    loss_probability: float,
    samples: int,
    rng: np.random.Generator,
    dtype=np.float32,
):
    """Vectorized ``E[L]`` / ``E[U]`` for Protocol W under i.i.d. loss."""
    from ..adversary.weak import WeakAdversaryEstimate

    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    d12, d21 = sample_pair_deliveries(
        samples, num_rounds, loss_probability, rng, dtype
    )
    counts = simulate_pair_counts_valid_gated(d12, d21)
    attack_1 = counts.count_1 >= threshold
    attack_2 = counts.count_2 >= threshold
    pr_ta = (attack_1 & attack_2).astype(np.float64)
    pr_pa = (attack_1 ^ attack_2).astype(np.float64)
    return WeakAdversaryEstimate(
        expected_liveness=float(pr_ta.mean()),
        expected_unsafety=float(pr_pa.mean()),
        disagreement_runs=int(np.count_nonzero(pr_pa > 0)),
        samples=samples,
    )
