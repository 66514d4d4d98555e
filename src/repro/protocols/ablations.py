"""Ablations: remove one design choice from Protocol S and measure.

Protocol S's construction has three load-bearing choices; each
ablation below removes exactly one, and experiment E15 measures what
breaks.  Together with :class:`~repro.protocols.variants.EagerS`
(which ablates the m-level gating) these justify the design:

* :class:`NaiveCountingS` — drops the ``seen`` set: a process advances
  its count upon hearing *anyone* at its level rather than waiting to
  hear *everyone*.  On two generals the rules coincide, but for
  ``m >= 3`` the naive count races ahead of the modified level, the
  count spread exceeds 1, and the adversary gets disagreement windows
  wider than ε.
* :class:`SkewedS` — drops the *uniform* law of ``rfire``: the draw is
  ``t·V²`` with ``V ~ U(0, 1]``, i.e. mass piled toward small values.
  Liveness on a run becomes ``cdf(Mincount)``, so the good run can
  still fire with probability 1 — but the worst straddling window is
  now ``cdf(1) - cdf(0) = sqrt(ε)``, far above ε.  Uniformity is what
  equalizes the adversary's options.

Both remain validity-satisfying protocols with exact closed forms (the
message flow stays tape-independent).  SkewedS is Protocol S's
:class:`~repro.protocols.counting.CountingSpec` with the ``sqrt`` rfire
law, so it shares S's machine, closed form and vectorized kernel.
NaiveCountingS keeps its own machine and runs on the reference backend;
its closed form calls the shared
:func:`~repro.protocols.counting.threshold_probabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.probability import EventProbabilities
from ..core.protocol import ClosedFormProtocol, LocalProtocol, ReceivedMessage
from ..core.randomness import TapeSpace
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import ProcessId, Round
from .counting import (
    _PLACEHOLDER_RFIRE,
    CountingMessage,
    CountingSpec,
    CountingState,
    RfireCountingProtocol,
    RfireLaw,
    rfire_tape_space,
    threshold_probabilities,
)


class _NaiveCountingLocal(LocalProtocol):
    """Figure 1 without the ``seen`` set: hear one, advance."""

    def __init__(self, process: ProcessId, coordinator: ProcessId) -> None:
        self._process = process
        self._coordinator = coordinator

    def initial_state(self, got_input: bool, tape: object) -> CountingState:
        if self._process == self._coordinator and tape is not None:
            rfire: Optional[float] = float(tape)
        else:
            rfire = None
        counting = got_input and rfire is not None
        return CountingState(
            count=1 if counting else 0,
            rfire=rfire,
            seen=frozenset(),
            valid=got_input,
        )

    def transition(
        self,
        state: CountingState,
        round_number: Round,
        received: Sequence[ReceivedMessage],
        tape: object,
    ) -> CountingState:
        payloads = [message.payload for message in received]
        rfire = state.rfire
        valid = state.valid
        count = state.count
        if rfire is None:
            for payload in payloads:
                if payload.rfire is not None:
                    rfire = payload.rfire
                    break
        if not valid and any(payload.valid for payload in payloads):
            valid = True
        if valid and rfire is not None and count == 0:
            count = 1
        if count >= 1 and payloads:
            highcount = max(payload.count for payload in payloads)
            count = max(count, highcount)
            # The ablated advance rule: any peer at my level suffices.
            if any(payload.count == count for payload in payloads):
                count += 1
        return CountingState(
            count=count, rfire=rfire, seen=frozenset(), valid=valid
        )

    def message(
        self, state: CountingState, neighbor: ProcessId
    ) -> Optional[CountingMessage]:
        return CountingMessage(
            rfire=state.rfire,
            count=state.count,
            seen=state.seen,
            valid=state.valid,
        )

    def output(self, state: CountingState) -> bool:
        return state.rfire is not None and state.count >= state.rfire


@dataclass(frozen=True)
class NaiveCountingS(ClosedFormProtocol):
    """Protocol S with the ``seen`` set ablated (see module docstring).

    Its advance rule is not Figure 1's, so it has no
    :class:`~repro.protocols.counting.CountingSpec` and runs on the
    reference backend only.
    """

    epsilon: float
    coordinator: ProcessId = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.coordinator < 1:
            raise ValueError("coordinator must be a process id")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"naive-counting-S(eps={self.epsilon:g})"

    @property
    def threshold(self) -> float:
        return 1.0 / self.epsilon

    def supports_topology(self, topology: Topology) -> bool:
        return self.coordinator <= topology.num_processes

    def local_protocol(
        self, process: ProcessId, topology: Topology
    ) -> LocalProtocol:
        return _NaiveCountingLocal(process, self.coordinator)

    def tape_space(self, topology: Topology) -> TapeSpace:
        return rfire_tape_space(
            topology, self.coordinator, RfireLaw("uniform", self.threshold)
        )

    def final_counts(self, topology: Topology, run: Run) -> Dict[ProcessId, int]:
        """The (tape-independent) naive counts at the horizon."""
        from ..core.execution import execute

        execution = execute(
            self, topology, run, {self.coordinator: _PLACEHOLDER_RFIRE}
        )
        return {
            process: execution.local(process).states[-1].count
            for process in topology.processes
        }

    def closed_form_probabilities(
        self, topology: Topology, run: Run
    ) -> EventProbabilities:
        from ..core.execution import execute

        execution = execute(
            self, topology, run, {self.coordinator: _PLACEHOLDER_RFIRE}
        )
        thresholds: List[int] = []
        for process in topology.processes:
            state: CountingState = execution.local(process).states[-1]
            thresholds.append(0 if state.rfire is None else state.count)
        return threshold_probabilities(
            thresholds, RfireLaw("uniform", self.threshold)
        )


@dataclass(frozen=True)
class SkewedS(RfireCountingProtocol):
    """Protocol S with a non-uniform ``rfire`` law (see module docstring).

    Counting is the faithful Figure 1 machine; only the draw changes:
    ``rfire = t·V²``, so ``Pr[rfire <= c] = sqrt(c/t)``.
    """

    epsilon: float
    coordinator: ProcessId = 1

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"skewed-S(eps={self.epsilon:g})"

    def _make_spec(self) -> CountingSpec:
        """S's spec with the ``sqrt`` rfire law."""
        return CountingSpec(
            rfire_gated=True,
            coordinator=self.coordinator,
            message_gated=False,
            slack=0,
            law=RfireLaw("sqrt", self.threshold),
        )

    def cdf(self, value: float) -> float:
        """``Pr[rfire <= value] = sqrt(value / t)`` clipped to [0, 1]."""
        return self.counting_spec.law.cdf(value)
