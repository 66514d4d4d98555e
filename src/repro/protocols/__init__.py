"""The paper's protocols plus baselines.

* :class:`ProtocolA` — the simple two-general protocol of Section 3
  (``U ≈ 1/N``, all-or-nothing liveness).
* :class:`ProtocolS` — the optimal protocol of Section 6 (``U <= ε``,
  liveness ``min(1, ε · ML(R))``).
* :class:`RepeatedA` — "run A several times", the composite Section 5
  proves cannot beat the tradeoff.
* :class:`ProtocolW` — our reconstruction of the Section 8 weak-
  adversary protocol (deterministic level threshold).
* :class:`ProtocolM` — simple-majority consensus (PAPERS.md
  substitution) for the large-m / mean-field regime.
* the Figure 1 counting machine (:mod:`repro.protocols.counting`):
  S, W and the variants :class:`EagerS`, :class:`GreedyS`,
  :class:`SkewedS` and :class:`MessageValidityS` each configure it
  with one :class:`CountingSpec` and share its closed form
  (:func:`threshold_probabilities`).
* deterministic baselines (:mod:`repro.protocols.deterministic`) for
  the impossibility backdrop.
* executable Lemma 6.3 invariants (:mod:`repro.protocols.invariants`).
"""

from .ablations import NaiveCountingS, SkewedS
from .counting import (
    CountingLocal,
    CountingMessage,
    CountingProtocol,
    CountingSpec,
    CountingState,
    RfireLaw,
    threshold_probabilities,
)
from .deterministic import (
    AlwaysAttack,
    DeterministicProtocol,
    InputAttack,
    NeverAttack,
    deterministic_threshold,
    impossibility_suite,
)
from .invariants import (
    check_counts_equal_level,
    checked_execute,
    check_counts_equal_modified_level,
    check_invariants,
)
from .message_validity import MessageValidityS
from .protocol_a import APacket, AState, ProtocolA, sender_for_round
from .protocol_m import MState, ProtocolM
from .protocol_s import ProtocolS
from .repeated_a import COMBINERS, RepeatedA
from .variants import EagerS, GreedyS, XorCoin
from .weak_adversary import ProtocolW

__all__ = [
    "APacket",
    "AState",
    "AlwaysAttack",
    "COMBINERS",
    "CountingLocal",
    "CountingMessage",
    "CountingProtocol",
    "CountingSpec",
    "CountingState",
    "DeterministicProtocol",
    "EagerS",
    "GreedyS",
    "InputAttack",
    "MState",
    "MessageValidityS",
    "NaiveCountingS",
    "NeverAttack",
    "ProtocolA",
    "ProtocolM",
    "ProtocolS",
    "ProtocolW",
    "RepeatedA",
    "RfireLaw",
    "SkewedS",
    "XorCoin",
    "check_counts_equal_level",
    "checked_execute",
    "check_counts_equal_modified_level",
    "check_invariants",
    "deterministic_threshold",
    "impossibility_suite",
    "sender_for_round",
    "threshold_probabilities",
]
