"""Protocol variants used to probe the optimality of Protocol S.

Theorem A.1 says that (under the usual case assumption) no protocol
can exceed ``ε · ML(R)`` liveness on one run without paying for it
elsewhere.  These variants are the natural "improvement" attempts; the
experiments measure exactly how each one pays:

* :class:`EagerS` — counts the *plain* level (valid-gated counting,
  so ``count_i = L_i^r(R)``) but still fires on ``count >= rfire``.
  Beats ``ε · ML(R)`` on runs where ``L(R) > ML(R)`` — and its
  measured unsafety rises to ``2ε`` (the level spread seen by the
  decision rule widens), violating the agreement precondition.
* :class:`GreedyS` — Protocol S with a firing discount: attack when
  ``count >= rfire - slack``.  Liveness grows by ``slack·ε`` per run,
  and unsafety grows to ``(1 + slack)·ε`` in lock step.
* :class:`XorCoin` — a two-coin toy protocol for the Appendix A
  independence lemmas: each process holds one random bit; a process
  that heard the other's bit decides on the XOR, otherwise on its own
  bit.  On runs where the processes are causally independent the
  decisions are probabilistically independent (Lemma A.2); on
  connected runs they are perfectly correlated.  (It makes no attempt
  at agreement — the lemma quantifies over *all* protocols.)

EagerS and GreedyS are Protocol S's
:class:`~repro.protocols.counting.CountingSpec` with one field changed
(the start gate; the threshold map), so they share its machine, its
closed form and the vectorized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.protocol import LocalProtocol, Protocol, ReceivedMessage
from ..core.randomness import BitStringTape, TapeSpace
from ..core.topology import Topology
from ..core.types import ProcessId, Round
from .counting import CountingSpec, RfireCountingProtocol, RfireLaw


@dataclass(frozen=True)
class EagerS(RfireCountingProtocol):
    """Protocol S driven by the plain level instead of the modified level."""

    epsilon: float
    coordinator: ProcessId = 1

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"eager-S(eps={self.epsilon:g})"

    def _make_spec(self) -> CountingSpec:
        """S's spec with a valid-gated start."""
        return CountingSpec(
            rfire_gated=False,
            coordinator=self.coordinator,
            message_gated=False,
            slack=0,
            law=RfireLaw("uniform", self.threshold),
        )


@dataclass(frozen=True)
class GreedyS(RfireCountingProtocol):
    """Protocol S with an early-firing discount of ``slack`` levels."""

    epsilon: float
    slack: int = 1
    coordinator: ProcessId = 1

    def __post_init__(self) -> None:
        if self.slack < 1:
            raise ValueError("slack must be >= 1 (use ProtocolS for slack 0)")
        super().__post_init__()

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"greedy-S(eps={self.epsilon:g}, slack={self.slack})"

    def _make_spec(self) -> CountingSpec:
        """S's spec with ``a_i = count_i + slack``: process ``i`` attacks
        iff ``count_i >= rfire - slack``."""
        return CountingSpec(
            rfire_gated=True,
            coordinator=self.coordinator,
            message_gated=False,
            slack=self.slack,
            law=RfireLaw("uniform", self.threshold),
        )


class _XorCoinLocal(LocalProtocol):
    """State: (my coin, other's coin or None, valid)."""

    def initial_state(self, got_input: bool, tape: object) -> tuple:
        coin = int(tape[0])
        return (coin, None, got_input)

    def transition(
        self,
        state: tuple,
        round_number: Round,
        received: Sequence[ReceivedMessage],
        tape: object,
    ) -> tuple:
        coin, other, valid = state
        for message in received:
            heard_coin, heard_valid = message.payload
            if other is None:
                other = heard_coin
            valid = valid or heard_valid
        return (coin, other, valid)

    def message(self, state: tuple, neighbor: ProcessId) -> Optional[tuple]:
        coin, _, valid = state
        return (coin, valid)

    def output(self, state: tuple) -> bool:
        coin, other, valid = state
        if not valid:
            return False
        if other is None:
            return bool(coin)
        return bool(coin ^ other)


@dataclass(frozen=True)
class XorCoin(Protocol):
    """The Appendix-A independence probe (two generals).

    Not a coordinated-attack protocol — it deliberately ignores
    agreement so that both decision probabilities are 1/2 and the
    *correlation structure* is what varies with the run.
    """

    @property
    def name(self) -> str:  # type: ignore[override]
        return "xor-coin"

    def supports_topology(self, topology: Topology) -> bool:
        return topology.num_processes == 2

    def local_protocol(
        self, process: ProcessId, topology: Topology
    ) -> LocalProtocol:
        return _XorCoinLocal()

    def tape_space(self, topology: Topology) -> TapeSpace:
        return TapeSpace.from_dict(
            {i: BitStringTape(1) for i in topology.processes}
        )
