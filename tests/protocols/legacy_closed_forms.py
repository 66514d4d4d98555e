"""The per-protocol closed forms that the counting spec replaced.

Before :class:`~repro.protocols.counting.CountingSpec`, Protocols S and
W and each variant carried their own closed form, their own output
rule, and one of three copies of the threshold-to-probability formula.
They are kept here, verbatim, as the oracle that the shared closed
form (and the kernel's column finisher) must equal at ``==``.  Each
reads the final states of one placeholder execution and applies its
own threshold rule; the output rules are what Monte Carlo executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.core.execution import execute
from repro.core.probability import EventProbabilities
from repro.core.protocol import ClosedFormProtocol
from repro.core.run import Run
from repro.core.topology import Topology
from repro.protocols import (
    EagerS,
    GreedyS,
    MessageValidityS,
    ProtocolS,
    ProtocolW,
    SkewedS,
)
from repro.protocols.counting import CountingLocal, CountingState

_PLACEHOLDER_RFIRE = 1.0


class _LegacyMessageValidityLocal(CountingLocal):
    """``_MessageValidityLocal``: Protocol S's machine with the
    coordinator's start gated on receipt, by overriding the start."""

    def initial_state(self, got_input, tape):
        state = super().initial_state(got_input, tape)
        if self._process == self._coordinator and state.count == 1:
            # Defer the start: no message has been received yet.
            return CountingState(
                count=0, rfire=state.rfire, seen=frozenset(), valid=state.valid
            )
        return state

    def _starts_counting(self, state, has_messages):
        base = super()._starts_counting(state, has_messages)
        if self._process == self._coordinator:
            return base and has_messages
        return base


@dataclass(frozen=True)
class _LegacyMessageValidity(ClosedFormProtocol):
    """MessageValidityS as it ran before the message gate was a field."""

    protocol: MessageValidityS

    def supports_topology(self, topology):
        return self.protocol.supports_topology(topology)

    def local_protocol(self, process, topology):
        s = ProtocolS(self.protocol.epsilon, self.protocol.coordinator)
        return _LegacyMessageValidityLocal(
            process, frozenset(topology.processes), s.counting_spec
        )

    def tape_space(self, topology):
        return self.protocol.tape_space(topology)

    def closed_form_probabilities(self, topology, run):
        raise NotImplementedError


def rfire_threshold_probabilities(
    thresholds: Sequence[float], t: float
) -> EventProbabilities:
    """The uniform-law helper of ``protocols/variants.py``."""
    low = min(thresholds)
    high = max(thresholds)
    pr_ta = min(1.0, max(0.0, low) / t)
    pr_na = max(0.0, 1.0 - max(0.0, high) / t)
    pr_pa = max(0.0, 1.0 - pr_ta - pr_na)
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=tuple(min(1.0, max(0.0, a) / t) for a in thresholds),
        method="closed-form",
    )


def threshold_probabilities_with_cdf(
    thresholds: Sequence[float], cdf: Callable[[float], float]
) -> EventProbabilities:
    """The any-law helper of ``protocols/ablations.py``."""
    pr_attack = [min(1.0, max(0.0, cdf(max(0.0, a)))) for a in thresholds]
    pr_ta = min(pr_attack)
    pr_na = 1.0 - max(pr_attack)
    pr_pa = max(0.0, 1.0 - pr_ta - pr_na)
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=tuple(pr_attack),
        method="closed-form",
    )


def protocol_s_probabilities(ordered: Sequence[int], t: float) -> EventProbabilities:
    """``ProtocolS.closed_form_probabilities``'s inline arithmetic."""
    low = min(ordered)
    high = max(ordered)
    pr_ta = min(1.0, low / t)
    pr_na = max(0.0, 1.0 - high / t)
    pr_pa = max(0.0, 1.0 - pr_ta - pr_na)
    pr_attack = tuple(min(1.0, a / t) for a in ordered)
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=pr_attack,
        method="closed-form",
    )


def protocol_w_probabilities(
    counts: Sequence[int], threshold: int
) -> EventProbabilities:
    """``ProtocolW.closed_form_probabilities``'s 0/1 arithmetic."""
    outputs = [count >= threshold for count in counts]
    all_attack = all(outputs)
    none_attack = not any(outputs)
    return EventProbabilities(
        pr_total_attack=1.0 if all_attack else 0.0,
        pr_no_attack=1.0 if none_attack else 0.0,
        pr_partial_attack=1.0 if not (all_attack or none_attack) else 0.0,
        pr_attack=tuple(1.0 if decided else 0.0 for decided in outputs),
        method="closed-form",
    )


def skewed_cdf(value: float, t: float) -> float:
    """``SkewedS.cdf``: ``sqrt(value / t)`` clipped to [0, 1]."""
    if value <= 0.0:
        return 0.0
    return min(1.0, math.sqrt(value / t))


def _final_states(protocol, topology: Topology, run: Run) -> List[CountingState]:
    tapes = {}
    if not isinstance(protocol, ProtocolW):
        tapes = {protocol.coordinator: _PLACEHOLDER_RFIRE}
    if isinstance(protocol, MessageValidityS):
        protocol = _LegacyMessageValidity(protocol)
    execution = execute(protocol, topology, run, tapes)
    return [execution.local(i).states[-1] for i in topology.processes]


def legacy_closed_form(protocol, topology: Topology, run: Run) -> EventProbabilities:
    """The closed form each protocol class carried, with its own
    threshold rule read off the final states."""
    states = _final_states(protocol, topology, run)
    kind = type(protocol)
    if kind is ProtocolW:
        return protocol_w_probabilities(
            [state.count for state in states], protocol.threshold
        )
    if kind in (ProtocolS, MessageValidityS):
        ordered = [0 if s.rfire is None else s.count for s in states]
        if kind is ProtocolS:
            return protocol_s_probabilities(ordered, protocol.threshold)
        return rfire_threshold_probabilities(
            [float(a) for a in ordered], protocol.threshold
        )
    if kind is EagerS:
        thresholds = [
            0.0 if s.rfire is None or not s.valid else float(s.count)
            for s in states
        ]
        return rfire_threshold_probabilities(thresholds, protocol.threshold)
    if kind is GreedyS:
        thresholds = [
            0.0 if s.rfire is None or s.count < 1 else float(s.count + protocol.slack)
            for s in states
        ]
        return rfire_threshold_probabilities(thresholds, protocol.threshold)
    if kind is SkewedS:
        thresholds = [0.0 if s.rfire is None else float(s.count) for s in states]
        t = protocol.threshold
        return threshold_probabilities_with_cdf(
            thresholds, lambda c: skewed_cdf(c, t)
        )
    raise TypeError(f"no legacy closed form for {protocol.name}")


def legacy_output(protocol, state: CountingState) -> bool:
    """The output rule each protocol's local machine carried."""
    kind = type(protocol)
    if kind is ProtocolW:
        return state.count >= protocol.threshold
    if kind is EagerS:
        return (
            state.rfire is not None
            and state.valid
            and state.count >= state.rfire
        )
    if kind is GreedyS:
        return (
            state.rfire is not None
            and state.count >= 1
            and state.count >= state.rfire - protocol.slack
        )
    if kind in (ProtocolS, MessageValidityS, SkewedS):
        return state.rfire is not None and state.count >= state.rfire
    raise TypeError(f"no legacy output rule for {protocol.name}")
