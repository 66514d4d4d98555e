"""Information flow, levels, clipping, and causal independence.

This module implements Section 4 of the paper (and the modified-level
measure of Section 6 plus the causal-independence notion of Appendix A):

* the *flows-to* relation between process-round pairs — the reflexive
  transitive closure of "``(i, r)`` directly flows to ``(k, r + 1)``
  iff ``i = k`` or ``(i, k, r + 1) ∈ R``";
* *height* and *level* ``L_j^r(R)``: a process reaches height 1 when it
  hears the input, and height ``h > 1`` when it has heard that **all**
  other processes reached height ``h - 1``;
* *m-height* and *modified level* ``ML_j^r(R)``: identical except that
  m-height 1 additionally requires hearing from process 1 (who owns the
  random value *rfire* in Protocol S);
* *clipping* ``Clip_i(R)``: the subrun of tuples whose receipt flows to
  ``(i, N)``; Lemma 4.2 shows clipping preserves everything ``i`` can
  observe, which drives both lower bounds;
* *causal independence* (Appendix A): ``i`` and ``j`` are causally
  independent in ``R`` when no ``(k, 0)`` flows to both ``(i, N)`` and
  ``(j, N)``.

The level computation uses the characterization

    ``t_h[j] = max_{i != j} earliest-arrival((i, t_{h-1}[i]) -> j)``

where ``t_h[j]`` is the earliest round by which ``j`` reaches height
``h``.  This is equivalent to the paper's existential definition
because reachability from ``(i, r)`` only shrinks as ``r`` grows and a
process that has reached a height keeps it forever.

:func:`profile_from_deliveries` evaluates the maximum for all sources
in one forward sweep per height: ``reached[k]`` is a bitmask of the
processes ``i`` whose pair ``(i, t_{h-1}[i])`` flows to ``(k, r)``;
each delivery ORs its sender's mask, as it stood at the delivery's
read round, into its receiver's, and ``t_h[j]`` is the first round at
which ``reached[j]`` covers every process but ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .run import Run
from .types import (
    ENVIRONMENT,
    INPUT_SEND_ROUND,
    ProcessId,
    ProcessRound,
    Round,
)

# Sentinel for "never": rounds are small ints, so math.inf is safe to
# compare against but must never be stored in a Run.
NEVER: float = math.inf


def earliest_arrivals(
    run: Run, source: ProcessId, start_round: Round
) -> Dict[ProcessId, Round]:
    """Earliest round each process is flow-reachable from ``(source, start_round)``.

    Returns a map ``j -> min { s : (source, start_round) flows to (j, s) }``;
    processes that are never reached are absent.  ``source`` itself maps
    to ``start_round`` (flows-to is reflexive).

    For the environment pair ``(v0, -1)`` use
    :func:`earliest_input_arrivals` instead, which handles the input
    tuples of round 0.
    """
    if source == ENVIRONMENT:
        raise ValueError("use earliest_input_arrivals for the environment pair")
    return _extend_arrivals(run, {source: start_round}, start_round + 1)


def earliest_input_arrivals(run: Run) -> Dict[ProcessId, Round]:
    """Earliest round each process is flow-reachable from ``(v0, -1)``.

    ``(v0, -1)`` directly flows to ``(i, 0)`` iff ``(v0, i, 0) ∈ R``, so
    the sweep starts from the input set at round 0 and then follows
    delivered messages.
    """
    return _extend_arrivals(run, {i: 0 for i in run.inputs}, 1)


def _extend_arrivals(
    run: Run, arrivals: Dict[ProcessId, Round], first_round: Round
) -> Dict[ProcessId, Round]:
    """Follow delivered messages forward from ``first_round``."""
    for round_number in range(first_round, run.num_rounds + 1):
        for message in run.deliveries_in_round(round_number):
            if message.target not in arrivals:
                if arrivals.get(message.source, NEVER) <= round_number - 1:
                    arrivals[message.target] = round_number
    return arrivals


def flows_to(run: Run, source: ProcessRound, target: ProcessRound) -> bool:
    """The paper's flows-to relation between two process-round pairs.

    Handles the environment pair ``(v0, -1)`` as a source.  A pair never
    flows backwards in time, and ``(i, r)`` always flows to ``(i, s)``
    for ``s >= r``.
    """
    if target.round < source.round:
        return False
    if source.process == ENVIRONMENT:
        if source.round != INPUT_SEND_ROUND:
            return False
        if target.process == ENVIRONMENT:
            return True
        arrivals = earliest_input_arrivals(run)
    else:
        if target.process == source.process:
            return True
        arrivals = earliest_arrivals(run, source.process, source.round)
    reached = arrivals.get(target.process)
    return reached is not None and reached <= target.round


def backward_closure(run: Run, anchor: ProcessRound) -> Set[ProcessRound]:
    """All pairs ``(k, r)`` with ``k ∈ V`` that flow to ``anchor``.

    Computed by sweeping rounds backwards: ``(k, s)`` flows to the
    anchor iff ``(k, s + 1)`` does, or some delivered message
    ``(k, k', s + 1)`` lands on a pair ``(k', s + 1)`` that does.
    """
    closure: Set[ProcessRound] = set()
    if anchor.process == ENVIRONMENT:
        return closure
    current: Set[ProcessId] = {anchor.process}
    closure.add(ProcessRound(anchor.process, anchor.round))
    for round_number in range(anchor.round, -1, -1):
        previous = set(current)
        for message in run.deliveries_in_round(round_number):
            if message.target in current:
                previous.add(message.source)
        current = previous
        for process in current:
            closure.add(ProcessRound(process, round_number - 1))
    # Pairs at the anchor round other than the anchor itself do not
    # flow to it, so only earlier rounds were added above; re-add pairs
    # at the anchor round exactly equal to the anchor (done already).
    return {pair for pair in closure if pair.round >= INPUT_SEND_ROUND}


def clip(run: Run, process: ProcessId) -> Run:
    """``Clip_i(R)``: keep only tuples whose receipt flows to ``(i, N)``.

    A message tuple ``(j, k, r)`` survives iff ``(k, r)`` flows to
    ``(i, N)``; an input tuple ``(v0, k, 0)`` survives iff ``(k, 0)``
    flows to ``(i, N)``.  Lemma 4.2: the clipped run is
    indistinguishable from ``R`` to ``i`` and preserves ``L_i``.
    """
    closure = backward_closure(run, ProcessRound(process, run.num_rounds))
    kept_inputs = frozenset(
        i for i in run.inputs if ProcessRound(i, 0) in closure
    )
    kept_messages = frozenset(
        m
        for m in run.messages
        if ProcessRound(m.target, m.round) in closure
    )
    return Run(run.num_rounds, kept_inputs, kept_messages)


def causally_independent(
    run: Run, first: ProcessId, second: ProcessId
) -> bool:
    """Appendix A: no ``(k, 0)`` flows to both ``(first, N)`` and ``(second, N)``.

    When this holds, Lemma A.2 shows the decision events
    ``(D_first | R)`` and ``(D_second | R)`` are probabilistically
    independent for *any* protocol, because the two local executions
    are functions of disjoint random tapes.
    """
    horizon = run.num_rounds
    first_closure = backward_closure(run, ProcessRound(first, horizon))
    second_closure = backward_closure(run, ProcessRound(second, horizon))
    first_roots = {p.process for p in first_closure if p.round == 0}
    second_roots = {p.process for p in second_closure if p.round == 0}
    return not (first_roots & second_roots)


@dataclass(frozen=True)
class LevelProfile:
    """Per-process level thresholds for one run.

    ``thresholds[h - 1][j]`` is the earliest round by which process
    ``j`` reaches height ``h`` (``NEVER`` if it never does).  From the
    thresholds every quantity of Sections 4-6 is derivable:

    * ``level_at(j, r)`` — ``L_j^r(R)`` (or ``ML_j^r(R)``),
    * ``final_level(j)`` — ``L_j(R) = L_j^N(R)``,
    * ``run_level()`` — ``L(R) = min_j L_j(R)``.
    """

    num_rounds: Round
    num_processes: int
    thresholds: Tuple[Dict[ProcessId, float], ...]

    def level_at(self, process: ProcessId, round_number: Round) -> int:
        """``L_j^r(R)``: the maximum height ``j`` reaches by round ``r``."""
        level = 0
        for height_thresholds in self.thresholds:
            if height_thresholds.get(process, NEVER) <= round_number:
                level += 1
            else:
                break
        return level

    def final_level(self, process: ProcessId) -> int:
        """``L_j(R) = L_j^N(R)``."""
        return self.level_at(process, self.num_rounds)

    def run_level(self) -> int:
        """``L(R) = min_j L_j(R)`` — the bound of Theorem 5.4."""
        return min(self.final_level(j) for j in range(1, self.num_processes + 1))

    def max_level(self) -> int:
        """``max_j L_j(R)`` — useful for spread checks (Lemma 6.2)."""
        return max(self.final_level(j) for j in range(1, self.num_processes + 1))

    def levels(self) -> Dict[ProcessId, int]:
        """Final level of every process."""
        return {
            j: self.final_level(j) for j in range(1, self.num_processes + 1)
        }


#: Deliveries indexed by arrival round: ``deliveries[r]`` lists the
#: ``(source, target, read round)`` of every delivery arriving at round
#: ``r``, which lets ``(source, read round)`` flow to ``(target, r)``.
Deliveries = Sequence[Sequence[Tuple[ProcessId, ProcessId, Round]]]


def profile_from_deliveries(
    num_rounds: Round,
    num_processes: int,
    base_thresholds: Dict[ProcessId, float],
    deliveries: Deliveries,
) -> LevelProfile:
    """Shared recursion for level and modified level.

    ``base_thresholds`` is ``t_1``: the earliest round each process
    reaches height 1.  Each height above is one forward sweep over
    rounds ``0..N`` for all sources at once (see the module docstring).
    ``deliveries`` has ``num_rounds + 1`` entries, every read round
    earlier than its arrival round: the synchronous model reads round
    ``r - 1``, the timed model of :mod:`repro.timed` reads ``sent - 1``.
    """
    processes = range(1, num_processes + 1)
    everyone = (1 << (num_processes + 1)) - 2
    thresholds: List[Dict[ProcessId, float]] = []
    current: Dict[ProcessId, float] = dict(base_thresholds)
    # Heights are bounded: each new height needs at least the previous
    # threshold round, and t_h >= h - 1, so h <= N + 2 suffices as a cap.
    while any(current.get(j, NEVER) <= num_rounds for j in processes):
        thresholds.append(current)
        if len(thresholds) > num_rounds + 2:
            raise AssertionError(
                "level recursion exceeded its theoretical bound of N + 2"
            )
        starting: List[List[ProcessId]] = [[] for _ in range(num_rounds + 1)]
        for i in processes:
            start = current.get(i, NEVER)
            if start <= num_rounds:
                starting[int(start)].append(i)
        started = sum(1 << i for row in starting for i in row)
        # j can reach the next height only if every other process starts.
        pending = [j for j in processes if everyone & ~started & ~(1 << j) == 0]
        following: Dict[ProcessId, float] = {}
        # Every mask is empty before the first start round.
        first = next(r for r, row in enumerate(starting) if row)
        reached = [0] * (num_processes + 1)
        history: List[List[int]] = [reached] * first
        for round_number in range(first, num_rounds + 1):
            if not pending:
                break
            reached = reached.copy()
            for source, target, read in deliveries[round_number]:
                reached[target] |= history[read][source]
            for i in starting[round_number]:
                reached[i] |= 1 << i
            history.append(reached)
            for j in pending:
                if reached[j] | (1 << j) == everyone:
                    following[j] = round_number
            pending = [j for j in pending if j not in following]
        current = following
    return LevelProfile(num_rounds, num_processes, tuple(thresholds))


def _synchronous_deliveries(run: Run) -> Deliveries:
    """A synchronous run's deliveries: round ``r`` reads round ``r - 1``."""
    return [
        [(m.source, m.target, r - 1) for m in run.deliveries_in_round(r)]
        for r in range(run.num_rounds + 1)
    ]


def level_profile(run: Run, num_processes: int) -> LevelProfile:
    """The level measure ``L_j^r(R)`` of Section 4 for every ``j, r``.

    Height 1 requires ``(v0, -1)`` to flow to ``(j, r)``.
    """
    base = {j: float(r) for j, r in earliest_input_arrivals(run).items()}
    return profile_from_deliveries(
        run.num_rounds, num_processes, base, _synchronous_deliveries(run)
    )


def modified_level_profile(
    run: Run, num_processes: int, coordinator: ProcessId = 1
) -> LevelProfile:
    """The modified level ``ML_j^r(R)`` of Section 6.

    M-height 1 requires both ``(v0, -1)`` *and* ``(coordinator, 0)`` to
    flow to ``(j, r)`` — the process must have heard the input and the
    coordinator's *rfire* value.  The paper fixes the coordinator to
    process 1; the parameter exists for symmetry experiments.
    """
    base = modified_base(
        num_processes,
        earliest_input_arrivals(run),
        earliest_arrivals(run, coordinator, 0),
    )
    return profile_from_deliveries(
        run.num_rounds, num_processes, base, _synchronous_deliveries(run)
    )


def modified_base(
    num_processes: int,
    input_arrivals: Dict[ProcessId, Round],
    coordinator_arrivals: Dict[ProcessId, Round],
) -> Dict[ProcessId, float]:
    """M-height 1: the later of hearing the input and the coordinator."""
    return {
        j: float(max(input_arrivals[j], coordinator_arrivals[j]))
        for j in range(1, num_processes + 1)
        if j in input_arrivals and j in coordinator_arrivals
    }


def run_level(run: Run, num_processes: int) -> int:
    """``L(R)`` — convenience wrapper over :func:`level_profile`."""
    return level_profile(run, num_processes).run_level()


def run_modified_level(
    run: Run, num_processes: int, coordinator: ProcessId = 1
) -> int:
    """``ML(R)`` — convenience wrapper over :func:`modified_level_profile`."""
    return modified_level_profile(run, num_processes, coordinator).run_level()
