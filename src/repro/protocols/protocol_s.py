"""Protocol S — the optimal protocol against a strong adversary (§6).

Process 1 draws ``rfire`` uniformly from the half-open interval
``(0, 1/ε]`` and attaches it to every message.  Every process runs the
counting machine of Figure 1, whose ``count_i`` tracks the modified
level ``ML_i^r(R)`` (Lemma 6.4).  After ``N`` rounds, process ``i``
attacks iff it has heard ``rfire`` and ``count_i >= rfire``.

Guarantees reproduced by the test suite and experiments:

* validity (Theorem 6.5),
* ``U_s(S) <= ε`` (Theorem 6.7), and
* ``L(S, R) >= min(1, ε · ML(R))`` (Theorem 6.8) — with equality, as
  the proof in fact shows, since ``Mincount = ML(R)``.

Because the message flow of S is the same for every value of ``rfire``
(the value is only *compared* at output time), all event probabilities
have closed forms: with ``a_i = count_i^N`` if process ``i`` heard
``rfire`` (else 0) and ``t = 1/ε``,

* ``Pr[D_i | R] = min(1, a_i / t)``,
* ``Pr[TA | R] = min(1, min_i a_i / t)``,
* ``Pr[NA | R] = max(0, 1 - max_i a_i / t)``,
* ``Pr[PA | R]`` is the remainder — the probability that ``rfire``
  lands strictly between the smallest and largest attack thresholds.

S is the reference configuration of the shared Figure 1 machine; its
machine, tapes and closed form live in :mod:`repro.protocols.counting`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.topology import Topology
from ..core.types import ProcessId
from .counting import CountingSpec, RfireCountingProtocol, RfireLaw


@dataclass(frozen=True)
class ProtocolS(RfireCountingProtocol):
    """Protocol S with agreement parameter ``ε`` (so ``t = 1/ε``).

    ``coordinator`` is the process that draws ``rfire``; the paper
    arbitrarily designates process 1 and the modified-level measure is
    defined relative to it.
    """

    epsilon: float
    coordinator: ProcessId = 1

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"protocol-S(eps={self.epsilon:g})"

    def _make_spec(self) -> CountingSpec:
        """rfire-gated start, ``a_i = count_i``, ``rfire ~ U(0, t]``."""
        return CountingSpec(
            rfire_gated=True,
            coordinator=self.coordinator,
            message_gated=False,
            slack=0,
            law=RfireLaw("uniform", self.threshold),
        )

    def automorphism_invariant_vertices(self, topology: Topology):
        """Every process runs the same machine except the coordinator.

        Relabeling by any automorphism that fixes the coordinator
        permutes identically-distributed local protocols, so
        ``Pr[·|R]`` is invariant and orbit-reduced search is exact
        for the subgroup fixing this vertex.
        """
        return frozenset([self.coordinator])
