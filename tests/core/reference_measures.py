"""Reference implementations of the Section 4 definitions.

The first half follows the paper's definitions *literally* — direct
recursion with memoization, no earliest-arrival DP — and exists purely
to cross-validate the optimized implementations in
:mod:`repro.core.measures`.  Quadratic or worse; use only on tiny
instances.

The second half is the per-source level recursion the library used
before its one-sweep-per-height form: one earliest-arrival sweep per
(source, height), driven by the synchronous or the timed flows-to.
It is fast enough for random runs of every size the tests draw.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.core.measures import (
    NEVER,
    LevelProfile,
    earliest_arrivals,
    earliest_input_arrivals,
)
from repro.core.run import Run
from repro.core.types import ENVIRONMENT, INPUT_SEND_ROUND, MessageTuple
from repro.timed.measures import (
    timed_earliest_arrivals,
    timed_earliest_input_arrivals,
)
from repro.timed.run import TimedRun


def directly_flows(
    run: Run, i: int, r: int, k: int, s: int
) -> bool:
    """The paper's direct flows-to: ``s = r + 1`` and ``i = k`` or
    ``(i, k, s) ∈ R`` (including the environment's input tuples)."""
    if s != r + 1:
        return False
    if i == k:
        return True
    if i == ENVIRONMENT and r == INPUT_SEND_ROUND:
        return k in run.inputs and s == 0
    return MessageTuple(i, k, s) in run.messages if s >= 1 else False


def flows_ref(run: Run, i: int, r: int, k: int, t: int) -> bool:
    """Reflexive transitive closure of :func:`directly_flows`."""
    if (i, r) == (k, t):
        return True
    if t <= r:
        return False
    # Walk backwards: (i, r) flows to (k, t) iff it flows to some (j, t-1)
    # with (j, t-1) directly flowing to (k, t).
    candidates = [k]
    if t >= 1:
        candidates.extend(
            m.source for m in run.messages if m.target == k and m.round == t
        )
    if t == 0 and k in run.inputs:
        candidates.append(ENVIRONMENT)
    return any(flows_ref(run, i, r, j, t - 1) for j in set(candidates))


def reaches_height_ref(
    run: Run, num_processes: int, j: int, r: int, h: int
) -> bool:
    """The literal height definition of Section 4."""

    @lru_cache(maxsize=None)
    def reach(process: int, round_number: int, height: int) -> bool:
        if height == 0:
            return True
        if height == 1:
            return flows_ref(
                run, ENVIRONMENT, INPUT_SEND_ROUND, process, round_number
            )
        for other in range(1, num_processes + 1):
            if other == process:
                continue
            if not any(
                flows_ref(run, other, r_i, process, round_number)
                and reach(other, r_i, height - 1)
                for r_i in range(0, round_number + 1)
            ):
                return False
        return True

    return reach(j, r, h)


def reaches_m_height_ref(
    run: Run, num_processes: int, j: int, r: int, h: int, coordinator: int = 1
) -> bool:
    """The literal m-height definition of Section 6."""

    @lru_cache(maxsize=None)
    def reach(process: int, round_number: int, height: int) -> bool:
        if height == 0:
            return True
        if height == 1:
            return flows_ref(
                run, ENVIRONMENT, INPUT_SEND_ROUND, process, round_number
            ) and flows_ref(run, coordinator, 0, process, round_number)
        for other in range(1, num_processes + 1):
            if other == process:
                continue
            if not any(
                flows_ref(run, other, r_i, process, round_number)
                and reach(other, r_i, height - 1)
                for r_i in range(0, round_number + 1)
            ):
                return False
        return True

    return reach(j, r, h)


def level_ref(run: Run, num_processes: int, j: int, r: int) -> int:
    """``L_j^r(R)`` computed straight from the definition."""
    height = 0
    while reaches_height_ref(run, num_processes, j, r, height + 1):
        height += 1
        if height > run.num_rounds + 2:
            raise AssertionError("reference level recursion ran away")
    return height


def modified_level_ref(
    run: Run, num_processes: int, j: int, r: int, coordinator: int = 1
) -> int:
    """``ML_j^r(R)`` computed straight from the definition."""
    height = 0
    while reaches_m_height_ref(
        run, num_processes, j, r, height + 1, coordinator
    ):
        height += 1
        if height > run.num_rounds + 2:
            raise AssertionError("reference m-level recursion ran away")
    return height


def clip_ref(run: Run, process: int) -> Run:
    """``Clip_i(R)`` computed tuple by tuple from the definition."""
    kept_inputs = frozenset(
        j
        for j in run.inputs
        if flows_ref(run, j, 0, process, run.num_rounds)
    )
    kept_messages = frozenset(
        m
        for m in run.messages
        if flows_ref(run, m.target, m.round, process, run.num_rounds)
    )
    return Run(run.num_rounds, kept_inputs, kept_messages)


# ----------------------------------------------------------------------
# The per-source recursion, one earliest-arrival sweep per source.
# ----------------------------------------------------------------------

ArrivalsFn = Callable[[int, int], Dict[int, int]]


def compute_profile_from_arrivals(
    num_rounds: int,
    num_processes: int,
    base_thresholds: Dict[int, float],
    arrivals_fn: ArrivalsFn,
) -> LevelProfile:
    """``t_h[j] = max_{i != j} earliest-arrival((i, t_{h-1}[i]) -> j)``.

    ``arrivals_fn(source, start_round)`` returns the earliest-arrival
    map from the pair ``(source, start_round)``.
    """
    processes = range(1, num_processes + 1)
    thresholds: List[Dict[int, float]] = [dict(base_thresholds)]
    while True:
        previous = thresholds[-1]
        if all(previous.get(j, NEVER) > num_rounds for j in processes):
            thresholds.pop()
            break
        current: Dict[int, float] = {}
        arrival_cache: Dict[int, Dict[int, int]] = {}
        for i in processes:
            start = previous.get(i, NEVER)
            if start <= num_rounds:
                arrival_cache[i] = arrivals_fn(i, int(start))
        for j in processes:
            worst: float = 0
            for i in processes:
                if i == j:
                    continue
                if i not in arrival_cache:
                    worst = NEVER
                    break
                reached = arrival_cache[i].get(j)
                if reached is None:
                    worst = NEVER
                    break
                worst = max(worst, reached)
            if worst is not NEVER and worst <= num_rounds:
                current[j] = worst
        if not current:
            break
        thresholds.append(current)
        if len(thresholds) > num_rounds + 2:
            raise AssertionError(
                "level recursion exceeded its theoretical bound of N + 2"
            )
    return LevelProfile(num_rounds, num_processes, tuple(thresholds))


def _modified_base(
    num_processes: int,
    input_arrivals: Dict[int, int],
    coordinator_arrivals: Dict[int, int],
) -> Dict[int, float]:
    base: Dict[int, float] = {}
    for j in range(1, num_processes + 1):
        input_round = input_arrivals.get(j)
        heard_round = coordinator_arrivals.get(j)
        if input_round is not None and heard_round is not None:
            base[j] = float(max(input_round, heard_round))
    return base


def level_profile_per_source(run: Run, num_processes: int) -> LevelProfile:
    base = {j: float(r) for j, r in earliest_input_arrivals(run).items()}
    return compute_profile_from_arrivals(
        run.num_rounds,
        num_processes,
        base,
        lambda source, start: earliest_arrivals(run, source, start),
    )


def modified_level_profile_per_source(
    run: Run, num_processes: int, coordinator: int = 1
) -> LevelProfile:
    base = _modified_base(
        num_processes,
        earliest_input_arrivals(run),
        earliest_arrivals(run, coordinator, 0),
    )
    return compute_profile_from_arrivals(
        run.num_rounds,
        num_processes,
        base,
        lambda source, start: earliest_arrivals(run, source, start),
    )


def timed_level_profile_per_source(
    run: TimedRun, num_processes: int
) -> LevelProfile:
    base = {
        j: float(r) for j, r in timed_earliest_input_arrivals(run).items()
    }
    return compute_profile_from_arrivals(
        run.num_rounds,
        num_processes,
        base,
        lambda source, start: timed_earliest_arrivals(run, source, start),
    )


def timed_modified_level_profile_per_source(
    run: TimedRun, num_processes: int, coordinator: int = 1
) -> LevelProfile:
    base = _modified_base(
        num_processes,
        timed_earliest_input_arrivals(run),
        timed_earliest_arrivals(run, coordinator, 0),
    )
    return compute_profile_from_arrivals(
        run.num_rounds,
        num_processes,
        base,
        lambda source, start: timed_earliest_arrivals(run, source, start),
    )
