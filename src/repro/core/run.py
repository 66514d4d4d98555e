"""Runs: the adversary's choice of inputs and delivered messages.

Section 2 of the paper defines a run as ``R = I(R) ∪ M(R)`` where

* ``I(R)`` is an arbitrary subset of ``{(v0, i, 0) : i ∈ V}`` — the
  processes that receive the input signal, and
* ``M(R)`` is an arbitrary subset of
  ``{(i, j, r) : (i, j) ∈ E, 1 <= r <= N}`` — the sent messages that
  are actually delivered.  Every sent message *not* in ``M(R)`` is
  destroyed by the adversary.

A :class:`Run` is immutable and hashable, so the worst-run search can
memoize evaluations.  Builders for the run families used throughout the
paper (good runs, chain cuts, round cuts, spanning-tree runs) live here
as module functions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .topology import Topology
from .types import (
    ENVIRONMENT,
    INPUT_ARRIVAL_ROUND,
    InputTuple,
    MessageTuple,
    ProcessId,
    Round,
)


@dataclass(frozen=True)
class Run:
    """An immutable run ``R = I(R) ∪ M(R)`` for an ``N``-round protocol.

    ``inputs`` holds the process ids that receive the input signal
    (i.e. ``i`` for each ``(v0, i, 0) ∈ I(R)``).  ``messages`` holds the
    delivered-message tuples.  ``num_rounds`` is ``N``; it is part of
    the run because the same tuple set means different things for
    different horizons (e.g. for liveness normalization).
    """

    num_rounds: Round
    inputs: FrozenSet[ProcessId]
    messages: FrozenSet[MessageTuple]
    _round_index: Dict[Round, FrozenSet[MessageTuple]] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )
    _target_index: Dict[Tuple[ProcessId, Round], Tuple[MessageTuple, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        for process in self.inputs:
            if process <= ENVIRONMENT:
                raise ValueError(f"input target must be a process id, got {process}")
        for message in self.messages:
            message.validate(self.num_rounds)
        # Per-round delivery index, built once: the round simulator
        # asks for every (target, round) cell of its innermost loop,
        # so a per-call scan-and-sort over `messages` is quadratic in
        # practice.  One sort here serves every later query.
        by_round: Dict[Round, List[MessageTuple]] = {}
        for message in self.messages:
            by_round.setdefault(message.round, []).append(message)
        round_index: Dict[Round, FrozenSet[MessageTuple]] = {}
        target_index: Dict[Tuple[ProcessId, Round], List[MessageTuple]] = {}
        for round_number, batch in by_round.items():
            batch.sort()
            round_index[round_number] = frozenset(batch)
            for message in batch:
                target_index.setdefault(
                    (message.target, round_number), []
                ).append(message)
        object.__setattr__(self, "_round_index", round_index)
        object.__setattr__(
            self,
            "_target_index",
            {key: tuple(found) for key, found in target_index.items()},
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_rounds: Round,
        inputs: Iterable[ProcessId] = (),
        messages: Iterable[Tuple[ProcessId, ProcessId, Round]] = (),
    ) -> "Run":
        """Build a run from plain iterables of ids and (i, j, r) triples."""
        return cls(
            num_rounds,
            frozenset(inputs),
            frozenset(MessageTuple(*triple) for triple in messages),
        )

    @classmethod
    def empty(cls, num_rounds: Round) -> "Run":
        """The empty run: no inputs, no deliveries (everything destroyed)."""
        return cls(num_rounds, frozenset(), frozenset())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def input_tuples(self) -> FrozenSet[InputTuple]:
        """``I(R)`` in the paper's tuple notation ``(v0, i, 0)``."""
        return frozenset(InputTuple.for_process(i) for i in self.inputs)

    def tuples(self) -> FrozenSet[Tuple[ProcessId, ProcessId, Round]]:
        """The whole run as a flat set of ``(source, target, round)`` triples."""
        flat: Set[Tuple[ProcessId, ProcessId, Round]] = {
            (ENVIRONMENT, i, INPUT_ARRIVAL_ROUND) for i in self.inputs
        }
        flat.update((m.source, m.target, m.round) for m in self.messages)
        return frozenset(flat)

    def has_input(self, process: ProcessId) -> bool:
        """True iff ``(v0, process, 0) ∈ I(R)``."""
        return process in self.inputs

    def delivers(self, source: ProcessId, target: ProcessId, round_number: Round) -> bool:
        """True iff the round-``r`` message from source to target is delivered."""
        return MessageTuple(source, target, round_number) in self.messages

    def deliveries_in_round(self, round_number: Round) -> FrozenSet[MessageTuple]:
        """All message tuples of a given round (indexed, not scanned)."""
        return self._round_index.get(round_number, frozenset())

    def deliveries_to(self, target: ProcessId, round_number: Round) -> List[MessageTuple]:
        """Message tuples delivered to ``target`` in a given round, sorted."""
        return list(self._target_index.get((target, round_number), ()))

    def message_count(self) -> int:
        """``|M(R)|`` — how many sent messages get through."""
        return len(self.messages)

    def is_valid_for(self, topology: Topology) -> bool:
        """True iff every tuple respects the topology's edge set."""
        if any(i > topology.num_processes for i in self.inputs):
            return False
        return all(topology.has_edge(m.source, m.target) for m in self.messages)

    def validate_for(self, topology: Topology) -> None:
        """Raise ``ValueError`` unless the run fits the topology."""
        for process in self.inputs:
            if process > topology.num_processes:
                raise ValueError(f"input process {process} is not a vertex")
        for message in self.messages:
            if not topology.has_edge(message.source, message.target):
                raise ValueError(f"message {message} does not follow an edge")

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def with_inputs(self, inputs: Iterable[ProcessId]) -> "Run":
        """A copy of this run with the input set replaced."""
        return Run(self.num_rounds, frozenset(inputs), self.messages)

    def with_messages(self, messages: Iterable[MessageTuple]) -> "Run":
        """A copy of this run with the delivered-message set replaced."""
        return Run(self.num_rounds, self.inputs, frozenset(messages))

    def adding(self, *messages: Tuple[ProcessId, ProcessId, Round]) -> "Run":
        """A copy with extra delivered messages."""
        extra = {MessageTuple(*triple) for triple in messages}
        return Run(self.num_rounds, self.inputs, self.messages | extra)

    def removing(self, *messages: Tuple[ProcessId, ProcessId, Round]) -> "Run":
        """A copy with some deliveries destroyed."""
        gone = {MessageTuple(*triple) for triple in messages}
        return Run(self.num_rounds, self.inputs, self.messages - gone)

    def restricted_to_rounds(self, last_round: Round) -> "Run":
        """Destroy every message of rounds strictly after ``last_round``.

        The horizon ``num_rounds`` is unchanged; only deliveries are
        dropped.  ``restricted_to_rounds(0)`` keeps inputs but destroys
        every message.
        """
        kept = frozenset(m for m in self.messages if m.round <= last_round)
        return Run(self.num_rounds, self.inputs, kept)

    def union(self, other: "Run") -> "Run":
        """Tuple-set union of two runs over the same horizon."""
        if other.num_rounds != self.num_rounds:
            raise ValueError("cannot union runs with different horizons")
        return Run(
            self.num_rounds,
            self.inputs | other.inputs,
            self.messages | other.messages,
        )

    def is_subrun_of(self, other: "Run") -> bool:
        """True iff every tuple of this run also appears in ``other``."""
        return (
            self.num_rounds == other.num_rounds
            and self.inputs <= other.inputs
            and self.messages <= other.messages
        )

    def describe(self) -> str:
        """Human-readable one-line summary for reports."""
        return (
            f"Run(N={self.num_rounds}, inputs={sorted(self.inputs)}, "
            f"|M|={len(self.messages)})"
        )


# ----------------------------------------------------------------------
# Run builders — the families used by the paper and the experiments.
# ----------------------------------------------------------------------


def all_message_tuples(topology: Topology, num_rounds: Round) -> List[MessageTuple]:
    """Every possible delivery tuple ``(i, j, r)`` for the topology."""
    return [
        MessageTuple(source, target, round_number)
        for round_number in range(1, num_rounds + 1)
        for source, target in topology.directed_links()
    ]


def good_run(
    topology: Topology,
    num_rounds: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Run:
    """The run ``R_g`` of Section 3: every message delivered.

    By default every process receives the input signal; pass ``inputs``
    to restrict it (e.g. ``inputs=[1]`` for the Appendix-A runs).
    """
    signal_set = (
        frozenset(topology.processes) if inputs is None else frozenset(inputs)
    )
    return Run(
        num_rounds,
        signal_set,
        frozenset(all_message_tuples(topology, num_rounds)),
    )


def silent_run(
    topology: Topology,
    num_rounds: Round,
    inputs: Iterable[ProcessId] = (),
) -> Run:
    """A run delivering no messages at all (with optional inputs)."""
    return Run(num_rounds, frozenset(inputs), frozenset())


def round_cut_run(
    topology: Topology,
    num_rounds: Round,
    cut_round: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Run:
    """Deliver everything in rounds ``< cut_round``; destroy the rest.

    ``cut_round = num_rounds + 1`` is the good run; ``cut_round = 1``
    destroys every message.  This family realizes every value of the
    level measure on connected graphs and contains the worst runs for
    the chain protocols.
    """
    if not 1 <= cut_round <= num_rounds + 1:
        raise ValueError(
            f"cut_round must be in 1..{num_rounds + 1}, got {cut_round}"
        )
    signal_set = (
        frozenset(topology.processes) if inputs is None else frozenset(inputs)
    )
    kept = frozenset(
        m for m in all_message_tuples(topology, num_rounds) if m.round < cut_round
    )
    return Run(num_rounds, signal_set, kept)


def partial_round_cut_run(
    topology: Topology,
    num_rounds: Round,
    cut_round: Round,
    blocked_targets: Iterable[ProcessId],
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Run:
    """Deliver everything before ``cut_round``; at ``cut_round`` destroy
    only messages *to* the blocked targets; nothing after is delivered.

    This is the boundary-straddling family: against Protocol S it
    leaves the blocked processes one count behind the rest, which is
    exactly the shape of the worst-case (unsafety-maximizing) runs.
    """
    blocked = frozenset(blocked_targets)
    signal_set = (
        frozenset(topology.processes) if inputs is None else frozenset(inputs)
    )
    kept = set()
    for message in all_message_tuples(topology, num_rounds):
        if message.round < cut_round:
            kept.add(message)
        elif message.round == cut_round and message.target not in blocked:
            kept.add(message)
    return Run(num_rounds, signal_set, frozenset(kept))


def spanning_tree_run(
    topology: Topology,
    num_rounds: Round,
    root: ProcessId = 1,
) -> Run:
    """The Lemma A.6 run: input only at the root, messages only
    parent-to-child down a BFS spanning tree, every round.

    On a connected graph of diameter at most ``N`` this run satisfies
    ``ML_1(R) = ML(R) = 1`` and the only tuple naming the root is the
    input tuple ``(v0, root, 0)``.
    """
    parents = topology.spanning_tree(root)
    messages = set()
    for child, parent in parents.items():
        if parent is None:
            continue
        for round_number in range(1, num_rounds + 1):
            messages.add(MessageTuple(parent, child, round_number))
    return Run(num_rounds, frozenset([root]), frozenset(messages))


def chain_run(
    num_rounds: Round,
    break_round: Optional[Round],
    inputs: Iterable[ProcessId] = (1, 2),
) -> Run:
    """A two-general alternating-chain run for Protocol A (Section 3).

    Process 2 sends in odd rounds, process 1 in even rounds; the chain
    message of round ``r`` is delivered iff ``break_round`` is ``None``
    or ``r < break_round``.  All non-chain deliveries are irrelevant to
    Protocol A but are included (both directions every round) so the
    run is also meaningful for other protocols: breaking the chain
    destroys *all* messages from the chain sender in that round and all
    messages in later rounds, which matches an adversary that silences
    the network from the break onward.
    """
    if break_round is not None and not 1 <= break_round <= num_rounds:
        raise ValueError(
            f"break_round must be None or in 1..{num_rounds}, got {break_round}"
        )
    horizon = num_rounds if break_round is None else break_round - 1
    messages = set()
    for round_number in range(1, horizon + 1):
        messages.add(MessageTuple(1, 2, round_number))
        messages.add(MessageTuple(2, 1, round_number))
    return Run(num_rounds, frozenset(inputs), frozenset(messages))


def bernoulli_run(
    topology: Topology,
    num_rounds: Round,
    loss_probability: float,
    rng: random.Random,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Run:
    """A run drawn from the weak (probabilistic) adversary of Section 8:
    each sent message is destroyed independently with probability ``p``.
    """
    if not 0.0 <= loss_probability <= 1.0:
        raise ValueError("loss_probability must be in [0, 1]")
    signal_set = (
        frozenset(topology.processes) if inputs is None else frozenset(inputs)
    )
    kept = frozenset(
        m
        for m in all_message_tuples(topology, num_rounds)
        if rng.random() >= loss_probability
    )
    return Run(num_rounds, signal_set, kept)


def random_run(
    topology: Topology,
    num_rounds: Round,
    rng: random.Random,
    delivery_probability: float = 0.5,
    input_probability: float = 0.5,
) -> Run:
    """A uniformly-seasoned random run for property-based sweeps.

    The unpacked view of :func:`repro.core.packed.random_bits`: inputs
    are drawn in process order, then deliveries in
    :func:`all_message_tuples` order, one ``rng.random()`` each.
    """
    from .packed import layout_for, random_bits

    layout = layout_for(topology, num_rounds)
    return layout.unpack_bits(
        random_bits(layout, rng, delivery_probability, input_probability)
    )


def enumerate_input_sets(topology: Topology) -> Iterator[FrozenSet[ProcessId]]:
    """All ``2^m`` possible input sets ``I(R)``."""
    processes = list(topology.processes)
    for size in range(len(processes) + 1):
        for subset in itertools.combinations(processes, size):
            yield frozenset(subset)


def enumerate_runs(
    topology: Topology,
    num_rounds: Round,
    inputs: Optional[Iterable[ProcessId]] = None,
) -> Iterator[Run]:
    """Exhaustively enumerate runs (optionally with the input set fixed).

    The count is ``2^(2 |E| N)`` per input set — only usable for tiny
    instances; the exhaustive worst-run search guards on this with
    :func:`run_space_size`.  Packed-native and fully lazy: runs are
    produced by incrementing a bitmask counter (``core.packed``), so
    neither the input sets nor the message subsets are materialized as
    collections — each candidate exists as one integer until unpacked.
    """
    from .packed import enumerate_packed_runs

    for packed in enumerate_packed_runs(topology, num_rounds, inputs):
        yield packed.unpack()


def run_space_size(topology: Topology, num_rounds: Round, fixed_inputs: bool) -> int:
    """How many runs ``enumerate_runs`` would yield."""
    message_choices = 2 ** (topology.num_directed_links() * num_rounds)
    if fixed_inputs:
        return message_choices
    return message_choices * 2 ** topology.num_processes
