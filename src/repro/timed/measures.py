"""Information flow and levels for timed (delayed-message) runs.

A delivery ``(i, j, s, a)`` carries the sender's state from the end of
round ``s - 1`` to the receiver at the end of round ``a``, so the
flows-to relation generalizes to

    ``(i, r)`` directly flows to ``(j, a)`` iff some delivery
    ``(i, j, s, a)`` exists with ``s - 1 >= r`` — equivalently the
    message was *sent no earlier than* the state being tracked —
    together with the usual self-flow ``(i, r) -> (i, r + 1)``.

The level recursion is identical to the synchronous one: it only needs
each delivery's read round, here ``sent - 1``, so it is shared via
:func:`repro.core.measures.profile_from_deliveries`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.measures import (
    NEVER,
    Deliveries,
    LevelProfile,
    modified_base,
    profile_from_deliveries,
)
from ..core.types import ProcessId, Round
from .run import Delivery, TimedRun


def _timed_deliveries(run: TimedRun) -> Deliveries:
    """Deliveries by arrival round; each reads its sender at ``sent - 1``."""
    by_arrival: List[List[Tuple[ProcessId, ProcessId, Round]]] = [
        [] for _ in range(run.num_rounds + 1)
    ]
    for d in run.deliveries:
        by_arrival[d.arrival].append((d.source, d.target, d.sent - 1))
    return by_arrival


def _extend_arrivals(
    run: TimedRun, arrivals: Dict[ProcessId, Round], first_round: Round
) -> Dict[ProcessId, Round]:
    """Follow deliveries forward from ``first_round``.

    A delivery arriving at round ``a`` moves information from
    ``(sender, sent - 1)`` to ``(receiver, a)``, so it is usable iff the
    sender was already reached by round ``sent - 1``.
    """
    deliveries = _timed_deliveries(run)
    for round_number in range(first_round, run.num_rounds + 1):
        for source, target, read in deliveries[round_number]:
            if target not in arrivals and arrivals.get(source, NEVER) <= read:
                arrivals[target] = round_number
    return arrivals


def timed_earliest_arrivals(
    run: TimedRun, source: ProcessId, start_round: Round
) -> Dict[ProcessId, Round]:
    """Earliest flow-arrival of ``(source, start_round)`` at each process."""
    return _extend_arrivals(run, {source: start_round}, start_round + 1)


def timed_earliest_input_arrivals(run: TimedRun) -> Dict[ProcessId, Round]:
    """Earliest flow-arrival of the environment pair ``(v0, -1)``."""
    return _extend_arrivals(run, {i: 0 for i in run.inputs}, 1)


def timed_level_profile(run: TimedRun, num_processes: int) -> LevelProfile:
    """The level measure over a timed run."""
    base = {
        j: float(r)
        for j, r in timed_earliest_input_arrivals(run).items()
    }
    return profile_from_deliveries(
        run.num_rounds, num_processes, base, _timed_deliveries(run)
    )


def timed_modified_level_profile(
    run: TimedRun, num_processes: int, coordinator: ProcessId = 1
) -> LevelProfile:
    """The modified level over a timed run (m-height 1 needs the
    coordinator's pair ``(coordinator, 0)`` as well as the input)."""
    base = modified_base(
        num_processes,
        timed_earliest_input_arrivals(run),
        timed_earliest_arrivals(run, coordinator, 0),
    )
    return profile_from_deliveries(
        run.num_rounds, num_processes, base, _timed_deliveries(run)
    )


def timed_run_level(run: TimedRun, num_processes: int) -> int:
    """``L(R)`` for a timed run."""
    return timed_level_profile(run, num_processes).run_level()


def timed_run_modified_level(
    run: TimedRun, num_processes: int, coordinator: ProcessId = 1
) -> int:
    """``ML(R)`` for a timed run."""
    return timed_modified_level_profile(
        run, num_processes, coordinator
    ).run_level()


def timed_backward_closure(
    run: TimedRun, process: ProcessId, round_number: Round
):
    """All pairs ``(k, s)`` with ``k ∈ V`` that flow to the anchor pair.

    Let ``B(s)`` be the processes whose round-``s`` state flows to
    ``(process, round_number)``.  ``B`` is computed by a backward
    sweep: ``B(round_number) = {process}``, and for smaller ``s``

        ``B(s) = B(s + 1) ∪ {source of d : d carries state (source, s)
        (i.e. d.sent - 1 = s) and d.target ∈ B(d.arrival)}``.

    Deliveries carrying *later* states (``sent - 1 > s``) are covered
    by the union chain, since their sources enter ``B`` at that later
    round and persist downward.
    """
    from ..core.types import ProcessRound

    reached_at: Dict[Round, set] = {round_number: {process}}
    carrying: Dict[Round, List[Delivery]] = {}
    for delivery in run.deliveries:
        if delivery.arrival <= round_number:
            carrying.setdefault(delivery.sent - 1, []).append(delivery)
    closure = {ProcessRound(process, round_number)}
    current = {process}
    for s in range(round_number - 1, -2, -1):
        expanded = set(current)
        for delivery in carrying.get(s, ()):
            arrival_set = reached_at.get(delivery.arrival)
            if arrival_set and delivery.target in arrival_set:
                expanded.add(delivery.source)
        current = expanded
        reached_at[s] = set(current)
        for k in current:
            closure.add(ProcessRound(k, s))
    return closure


def timed_clip(run: TimedRun, process: ProcessId) -> TimedRun:
    """``Clip_i(R)`` for a timed run.

    A delivery survives iff its receipt pair ``(target, arrival)``
    flows to ``(process, T)``; an input survives iff ``(target, 0)``
    does.  As in the synchronous case (Lemma 4.2), the clipped run is
    indistinguishable from ``R`` to ``process``.
    """
    from ..core.types import ProcessRound

    closure = timed_backward_closure(run, process, run.num_rounds)
    kept_inputs = frozenset(
        i for i in run.inputs if ProcessRound(i, 0) in closure
    )
    kept_deliveries = frozenset(
        d
        for d in run.deliveries
        if ProcessRound(d.target, d.arrival) in closure
    )
    return TimedRun(run.num_rounds, kept_inputs, kept_deliveries)


def timed_causally_independent(
    run: TimedRun, first: ProcessId, second: ProcessId
) -> bool:
    """No ``(k, 0)`` flows to both final pairs (Appendix A, timed)."""
    first_closure = timed_backward_closure(run, first, run.num_rounds)
    second_closure = timed_backward_closure(run, second, run.num_rounds)
    first_roots = {p.process for p in first_closure if p.round == 0}
    second_roots = {p.process for p in second_closure if p.round == 0}
    return not (first_roots & second_roots)
