"""Exact probabilities and theorem checks over timed runs.

Protocol S's closed form survives the asynchronous extension for the
same reason as in the synchronous model: the message flow is identical
for every value of ``rfire`` (the draw is only *compared* at output
time), so one placeholder execution recovers the deterministic attack
thresholds and the uniform law of ``rfire`` does the rest.

The headline checks (experiment E12):

* ``count_i^r`` still equals the timed modified level ``ML_i^r`` —
  Lemma 6.4 generalizes verbatim;
* ``L(S, R) = min(1, ε · ML(R))`` over timed runs — Theorem 6.8
  generalizes;
* ``Pr[PA | R] <= ε`` over timed runs — Theorem 6.7 generalizes;
* synchronous embedding: a zero-delay timed run gives bit-identical
  results to the synchronous engine.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..core.events import OutcomeCounts
from ..core.seeding import spawn_random
from ..core.probability import EventProbabilities
from ..core.topology import Topology
from ..core.types import ProcessId
from ..protocols.counting import threshold_probabilities
from ..protocols.protocol_s import ProtocolS
from .execution import timed_decide, timed_execute_counts
from .run import TimedRun

_PLACEHOLDER_RFIRE = 1.0


def timed_attack_thresholds(
    protocol: ProtocolS, topology: Topology, run: TimedRun
) -> Dict[ProcessId, int]:
    """Protocol S's deterministic attack thresholds on a timed run."""
    tapes = {protocol.coordinator: _PLACEHOLDER_RFIRE}
    _, history = timed_execute_counts(protocol, topology, run, tapes)
    counting = protocol.counting_spec
    thresholds: Dict[ProcessId, int] = {}
    for process in topology.processes:
        state = history[process][-1]
        thresholds[process] = counting.threshold(
            state.count, state.rfire is not None
        )
    return thresholds


def timed_closed_form(
    protocol: ProtocolS, topology: Topology, run: TimedRun
) -> EventProbabilities:
    """Exact event probabilities for Protocol S on a timed run."""
    thresholds = timed_attack_thresholds(protocol, topology, run)
    return threshold_probabilities(
        [thresholds[i] for i in topology.processes],
        protocol.counting_spec.law,
    )


def timed_monte_carlo(
    protocol,
    topology: Topology,
    run: TimedRun,
    trials: int = 4_000,
    rng: Optional[random.Random] = None,
) -> EventProbabilities:
    """Sampling cross-check for any protocol on a timed run."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = spawn_random(0, "timed", "monte-carlo")
    space = protocol.tape_space(topology)
    counts = OutcomeCounts(topology.num_processes)
    for _ in range(trials):
        tapes = space.sample(rng)
        counts.record(timed_decide(protocol, topology, run, tapes))
    frequencies = counts.frequencies()
    return EventProbabilities(
        pr_total_attack=frequencies["TA"],
        pr_no_attack=frequencies["NA"],
        pr_partial_attack=frequencies["PA"],
        pr_attack=tuple(
            counts.attack_frequency(i)
            for i in range(1, topology.num_processes + 1)
        ),
        method="monte-carlo",
        trials=trials,
    )


def check_timed_counts_equal_modified_level(
    protocol: ProtocolS, topology: Topology, run: TimedRun
) -> list:
    """Lemma 6.4 over a timed run: ``count_i^r = ML_i^r`` everywhere."""
    from .measures import timed_modified_level_profile

    tapes = {protocol.coordinator: _PLACEHOLDER_RFIRE}
    _, history = timed_execute_counts(protocol, topology, run, tapes)
    profile = timed_modified_level_profile(
        run, topology.num_processes, protocol.coordinator
    )
    violations = []
    for process in topology.processes:
        for round_number in range(0, run.num_rounds + 1):
            count = history[process][round_number].count
            ml = profile.level_at(process, round_number)
            if count != ml:
                violations.append(
                    f"count_{process}^{round_number} = {count} != "
                    f"ML = {ml}"
                )
    return violations
