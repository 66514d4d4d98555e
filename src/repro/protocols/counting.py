"""The Figure 1 counting machine, configured by one spec.

Protocol S (Section 6) tracks its *modified level* with a ``count``
variable driven by the ``PROCESS-MESSAGE`` procedure of Figure 1.
Protocol W and the S variants run the same machine; each differs from
S in one of the five fields of a :class:`CountingSpec`:

* **start gate** — counting begins once the process is valid *and*
  knows rfire (``rfire_gated``: ``count_i^r = ML_i^r(R)``, Lemma 6.4),
  or once it is valid (``count_i^r = L_i^r(R)``);
* **coordinator** — the process holding rfire at the start (``None``
  for W, which has no rfire);
* **message gate** — the coordinator starts counting only in a round
  in which a message arrives (footnote 1's validity condition);
* **threshold map** — ``a_i = count_i + slack`` once process ``i``
  counts and holds rfire, else 0;
* **rfire law** — ``F(a) = Pr[rfire <= a]`` (:class:`RfireLaw`).

Process ``i`` attacks iff ``rfire <= a_i``, and the message flow does
not depend on the value of rfire, so every event probability follows
from the thresholds and ``F`` (:func:`threshold_probabilities`).  The
vectorized kernel (:mod:`repro.engine.vectorized`) reads the same spec.

The transition below is a line-for-line transcription of Figure 1,
including the ``highcount`` / ``highset`` / ``highseen`` temporaries.
The only addition is that ``seen`` is initialized to ``{i}`` whenever
``count`` first becomes 1, which the paper leaves implicit but which
its Invariant 7 ("if ``count_i^r >= 1`` then ``i ∈ seen_i^r``")
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, cast

from ..core.probability import EventProbabilities
from ..core.protocol import ClosedFormProtocol, LocalProtocol, ReceivedMessage
from ..core.randomness import (
    ConstantTape,
    TapeDistribution,
    TapeSpace,
    UniformRealTape,
)
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import ProcessId, Round

# Placeholder rfire used when extracting the (rfire-independent) counts.
_PLACEHOLDER_RFIRE = 1.0

#: The rfire laws :class:`RfireLaw` knows.
RFIRE_LAWS = ("uniform", "sqrt", "step")


@dataclass(frozen=True)
class _RfireSquaredTape(TapeDistribution):
    """``rfire = t · V²`` with ``V ~ U(0, 1]`` — skewed toward zero."""

    top: float

    def sample(self, rng) -> float:
        unit = 1.0 - rng.random()  # (0, 1]
        return self.top * unit * unit


@dataclass(frozen=True)
class RfireLaw:
    """The law of rfire as ``F(a) = Pr[rfire <= a]`` for ``a >= 0``.

    * ``uniform``: ``rfire ~ U(0, top]``, ``F(a) = min(1, a/top)``;
    * ``sqrt``: ``rfire = top·V²`` with ``V ~ U(0, 1]``, so
      ``F(a) = sqrt(a/top)`` clipped at 1 (and 0 at 0);
    * ``step``: ``rfire`` is the constant ``top`` (Protocol W's ``K``).

    :func:`repro.engine.vectorized.threshold_columns` is the column
    twin of :meth:`cdf`; a test pins the two equal.
    """

    kind: str
    top: float

    def __post_init__(self) -> None:
        if self.kind not in RFIRE_LAWS:
            raise ValueError(f"unknown rfire law {self.kind!r}")

    def cdf(self, a: float) -> float:
        """``Pr[rfire <= a]``."""
        if self.kind == "uniform":
            return min(1.0, a / self.top)
        if self.kind == "sqrt":
            if a <= 0:
                return 0.0
            return min(1.0, math.sqrt(a / self.top))
        return 1.0 if a >= self.top else 0.0

    def tape(self) -> TapeDistribution:
        """The coordinator's tape: the draw of rfire."""
        if self.kind == "uniform":
            return UniformRealTape(0.0, self.top)
        if self.kind == "sqrt":
            return _RfireSquaredTape(self.top)
        return ConstantTape()


def threshold_probabilities(
    thresholds: Sequence[float], law: RfireLaw
) -> EventProbabilities:
    """Event probabilities when process ``i`` attacks iff ``rfire <= a_i``.

    ``Pr[D_i] = F(a_i)``; every process attacks iff rfire is at most
    the smallest threshold and none does iff it exceeds the largest.
    The one scalar form of the formula: the reference closed forms,
    the timed analysis, the counter abstraction and
    :class:`~repro.protocols.ablations.NaiveCountingS` all call it.
    """
    pr_attack = tuple(law.cdf(a) for a in thresholds)
    pr_ta = min(pr_attack)
    pr_na = 1.0 - max(pr_attack)
    pr_pa = max(0.0, 1.0 - pr_ta - pr_na)
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=pr_attack,
        method="closed-form",
    )


@dataclass(frozen=True)
class CountingSpec:
    """How one protocol configures the Figure 1 machine (module docstring)."""

    rfire_gated: bool
    coordinator: Optional[ProcessId]
    message_gated: bool
    slack: int
    law: RfireLaw

    def threshold(self, count: int, holds_rfire: bool) -> int:
        """The threshold map: ``a_i`` from process ``i``'s final state."""
        if count >= 1 and (holds_rfire or self.coordinator is None):
            return count + self.slack
        return 0


@dataclass(frozen=True)
class CountingState:
    """The per-process state of Section 6.1.

    ``rfire`` is ``None`` while *undefined* (the paper's special value);
    it stays ``None`` forever when the protocol has no rfire.
    """

    count: int
    rfire: Optional[float]
    seen: FrozenSet[ProcessId]
    valid: bool


@dataclass(frozen=True)
class CountingMessage:
    """The message ``m(rfire, count, seen, valid)`` sent every round."""

    rfire: Optional[float]
    count: int
    seen: FrozenSet[ProcessId]
    valid: bool


class CountingLocal(LocalProtocol):
    """The local machine of Figure 1, configured by a :class:`CountingSpec`."""

    def __init__(
        self,
        process: ProcessId,
        all_processes: FrozenSet[ProcessId],
        spec: CountingSpec,
    ) -> None:
        self._process = process
        self._all_processes = all_processes
        self._rfire_gated = spec.rfire_gated
        self._coordinator = spec.coordinator
        self._message_gated = spec.message_gated and process == spec.coordinator
        self._slack = spec.slack
        # Without a coordinator rfire is the law's constant (W's K).
        self._fixed_rfire = spec.law.top if spec.coordinator is None else None

    @property
    def process(self) -> ProcessId:
        """This machine's own process id."""
        return self._process

    def initial_state(self, got_input: bool, tape: object) -> CountingState:
        """Initial states of Section 6.1.

        The coordinator stores its random draw in ``rfire``; everyone
        else starts with ``rfire`` undefined.  A valid process starts
        counting at once if its start gate is open, unless the message
        gate holds it back: no message has arrived yet.
        """
        if self._process == self._coordinator and tape is not None:
            rfire: Optional[float] = float(tape)
        else:
            rfire = None
        counting = (
            got_input
            and (rfire is not None or not self._rfire_gated)
            and not self._message_gated
        )
        count = 1 if counting else 0
        seen = frozenset([self._process]) if counting else frozenset()
        return CountingState(
            count=count, rfire=rfire, seen=seen, valid=got_input
        )

    def _starts_counting(
        self, state: CountingState, has_messages: bool
    ) -> bool:
        """The start rule: Figure 1 line 3, behind the spec's gates.

        ``has_messages`` reports whether any message arrived this
        round; only the message gate reads it.
        """
        if not state.valid or state.count != 0:
            return False
        if self._rfire_gated and state.rfire is None:
            return False
        return has_messages or not self._message_gated

    def transition(
        self,
        state: CountingState,
        round_number: Round,
        received: Sequence[ReceivedMessage],
        tape: object,
    ) -> CountingState:
        """``PROCESS-MESSAGE(S_i, i)`` from Figure 1."""
        payloads = [message.payload for message in received]
        rfire = state.rfire
        valid = state.valid
        count = state.count
        seen = state.seen

        # Line 1: adopt the first defined rfire heard (all copies equal).
        if rfire is None:
            for payload in payloads:
                if payload.rfire is not None:
                    rfire = payload.rfire
                    break
        # Line 2: adopt validity.
        if not valid and any(payload.valid for payload in payloads):
            valid = True
        # Line 3: start counting.
        probe = CountingState(count=count, rfire=rfire, seen=seen, valid=valid)
        if self._starts_counting(probe, bool(payloads)):
            count = 1
            seen = frozenset([self._process])
        # Counting block.
        if count >= 1 and payloads:
            highcount = max(payload.count for payload in payloads)
            highset = [
                payload for payload in payloads if payload.count == highcount
            ]
            highseen: FrozenSet[ProcessId] = frozenset().union(
                *(payload.seen for payload in highset)
            )
            if highcount == count:
                seen = seen | highseen | {self._process}
            elif highcount > count:
                seen = highseen | {self._process}
                count = highcount
            if seen == self._all_processes:
                count = count + 1
                seen = frozenset([self._process])
        return CountingState(count=count, rfire=rfire, seen=seen, valid=valid)

    def message(
        self, state: CountingState, neighbor: ProcessId
    ) -> Optional[CountingMessage]:
        """Send the full current state to every neighbor, every round."""
        return CountingMessage(
            rfire=state.rfire,
            count=state.count,
            seen=state.seen,
            valid=state.valid,
        )

    def output(self, state: CountingState) -> bool:
        """``O_i = 1`` iff process ``i`` holds rfire, counts, and
        ``count_i >= rfire - slack`` (for S: ``count_i >= rfire``)."""
        rfire = state.rfire if self._fixed_rfire is None else self._fixed_rfire
        return (
            rfire is not None
            and state.count >= 1
            and state.count >= rfire - self._slack
        )


def rfire_tape_space(
    topology: Topology, coordinator: ProcessId, law: RfireLaw
) -> TapeSpace:
    """Only the coordinator is randomized: it draws rfire from ``law``."""
    distributions: Dict[ProcessId, TapeDistribution] = {
        i: ConstantTape() for i in topology.processes
    }
    distributions[coordinator] = law.tape()
    return TapeSpace.from_dict(distributions)


class CountingProtocol(ClosedFormProtocol):
    """A Figure 1 protocol: its :attr:`counting_spec` says everything.

    The local machine, the tapes, the topology check and the closed
    form all follow from the spec, and so does the vectorized kernel's
    configuration (:func:`repro.engine.vectorized.supports`).
    """

    _counting_spec: CountingSpec

    def __post_init__(self) -> None:
        # Equal protocols share one spec object (a server parses one
        # protocol per request), and the machine, which reads the spec
        # once per process and run, reads a plain attribute.
        try:
            hash(self)
        except TypeError:  # unhashable: no sharing, as in the memo cache
            spec = self._make_spec()
        else:
            spec = _shared_spec(self)
        object.__setattr__(self, "_counting_spec", spec)

    @property
    def counting_spec(self) -> CountingSpec:
        return self._counting_spec

    def _make_spec(self) -> CountingSpec:
        raise NotImplementedError

    def supports_topology(self, topology: Topology) -> bool:
        coordinator = self.counting_spec.coordinator
        return coordinator is None or coordinator <= topology.num_processes

    def local_protocol(
        self, process: ProcessId, topology: Topology
    ) -> LocalProtocol:
        return CountingLocal(
            process=process,
            all_processes=frozenset(topology.processes),
            spec=self.counting_spec,
        )

    def tape_space(self, topology: Topology) -> TapeSpace:
        spec = self.counting_spec
        if spec.coordinator is None:
            return TapeSpace.deterministic(list(topology.processes))
        return rfire_tape_space(topology, spec.coordinator, spec.law)

    def _final_states(
        self, topology: Topology, run: Run
    ) -> List[CountingState]:
        """Every process's state at the horizon, in process order.

        The counts do not depend on the numeric value of rfire — it is
        only compared at output time — so one execution with a
        placeholder draw recovers them.
        """
        from ..core.execution import execute

        coordinator = self.counting_spec.coordinator
        tapes: Dict[ProcessId, object] = {}
        if coordinator is not None:
            tapes[coordinator] = _PLACEHOLDER_RFIRE
        execution = execute(self, topology, run, tapes)
        return [
            cast(CountingState, execution.local(process).states[-1])
            for process in topology.processes
        ]

    def final_counts(self, topology: Topology, run: Run) -> Dict[ProcessId, int]:
        """The (tape-independent) counts at the horizon."""
        states = self._final_states(topology, run)
        return {
            process: state.count
            for process, state in zip(topology.processes, states)
        }

    def attack_thresholds(
        self, topology: Topology, run: Run
    ) -> Dict[ProcessId, int]:
        """The rfire-independent attack thresholds ``a_i``.

        Process ``i`` attacks iff ``rfire <= a_i``.  For Protocol S,
        ``a_i = count_i^N = ML_i(R)`` when process ``i`` heard both the
        input and the coordinator (Lemma 6.4), else 0.
        """
        spec = self.counting_spec
        states = self._final_states(topology, run)
        return {
            process: spec.threshold(state.count, state.rfire is not None)
            for process, state in zip(topology.processes, states)
        }

    def closed_form_probabilities(
        self, topology: Topology, run: Run
    ) -> EventProbabilities:
        """Exact event probabilities from the thresholds and rfire's law."""
        thresholds = self.attack_thresholds(topology, run)
        return threshold_probabilities(
            [thresholds[i] for i in topology.processes], self.counting_spec.law
        )


@lru_cache(maxsize=256)
def _shared_spec(protocol: CountingProtocol) -> CountingSpec:
    """The spec of a protocol value (specs are pure functions of it)."""
    return protocol._make_spec()


class RfireCountingProtocol(CountingProtocol):
    """Base of the protocols whose coordinator draws rfire from
    ``(0, 1/ε]``: Protocol S and its variants.  Subclasses declare the
    ``epsilon`` and ``coordinator`` fields."""

    epsilon: float
    coordinator: ProcessId

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.coordinator < 1:
            raise ValueError("coordinator must be a process id")
        super().__post_init__()

    @property
    def threshold(self) -> float:
        """``t = 1/ε`` — the top of the rfire interval."""
        return 1.0 / self.epsilon
