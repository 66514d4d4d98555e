"""The footnote-1 variant: validity relative to *message delivery*.

Footnote 1 of the paper mentions an alternative validity condition —
"if no messages are delivered, then no general attacks" — and notes
the results can be modified to fit it.  Protocol S itself violates the
alternative condition: on a run with input at the coordinator and no
deliveries at all, the coordinator attacks with probability ε.

:class:`MessageValidityS` is the modification: the coordinator may
start counting only once it has *received at least one message*.
Every other process already needs a message (to hear ``rfire``), so
this single gate makes attacks impossible on delivery-free runs.

Consequences, measured by experiment E13:

* the alternative validity condition holds (and the original one still
  does — the valid bit is still required);
* unsafety stays ≤ ε: the count-spread argument is untouched (a
  process reaches count ``c + 1`` only after seeing *everyone*,
  coordinator included, at ``c``);
* liveness is ``min(1, ε·ML'(R))`` for a delayed measure ``ML'`` with
  ``ML(R) - 1 ≤ ML'(R) ≤ ML(R)`` — the coordinator's start can lag by
  at most the one round it takes to hear anything.

The gate is the ``message_gated`` field of Protocol S's
:class:`~repro.protocols.counting.CountingSpec`; the machine, the
closed form and the vectorized kernel are S's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.types import ProcessId
from .counting import CountingSpec, RfireCountingProtocol, RfireLaw


@dataclass(frozen=True)
class MessageValidityS(RfireCountingProtocol):
    """Protocol S modified for the footnote-1 validity condition."""

    epsilon: float
    coordinator: ProcessId = 1

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"message-validity-S(eps={self.epsilon:g})"

    def _make_spec(self) -> CountingSpec:
        """S's spec with the message gate on the coordinator's start."""
        return CountingSpec(
            rfire_gated=True,
            coordinator=self.coordinator,
            message_gated=True,
            slack=0,
            law=RfireLaw("uniform", self.threshold),
        )
