"""Protocol W — a counting protocol for the weak adversary of §8.

The paper closes by observing that against a *weak adversary* — a
probabilistic adversary that destroys each message independently with
some probability ``p`` not known in advance — "vastly improved
performance" is possible.  No protocol or numbers are given; this
module is our reconstruction of that claim (documented as a
substitution in DESIGN.md / EXPERIMENTS.md).

Protocol W runs the same Figure 1 counting machine as Protocol S, but
with two changes:

* counting starts as soon as a process has heard the input (no random
  ``rfire`` needs to propagate), so ``count_i^r`` tracks the *plain*
  level ``L_i^r(R)`` of Section 4;
* the decision is a fixed deterministic threshold: attack iff
  ``count_i >= K``.

Why this beats the strong-adversary tradeoff against random losses:
disagreement requires the final counts to straddle ``K`` exactly
(counts at different processes differ by at most one), i.e. the
minimum final count must land on exactly ``K - 1``.  Under i.i.d.
losses with ``p`` bounded away from 1, counts concentrate around
``c(p) · N`` with Gaussian-scale fluctuations, so picking ``K`` well
below the typical count (e.g. ``K ≈ c · N/2``) makes
``Pr[Mincount = K - 1]`` exponentially small in ``N`` while liveness
stays near 1.  Experiment E8 measures exactly this.

Against a *strong* adversary, W is hopeless — the adversary simply
builds the straddling run, giving ``Pr[PA | R] = 1`` — which is also
measured (and is the deterministic-impossibility backdrop of E10).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.topology import Topology
from .counting import CountingProtocol, CountingSpec, RfireLaw


@dataclass(frozen=True)
class ProtocolW(CountingProtocol):
    """Deterministic-threshold counting protocol (our §8 reconstruction).

    ``threshold`` is ``K``: the level a process must certify before
    attacking.  ``K >= 1`` preserves validity (a process with no input
    flow never starts counting, so its count stays 0 < K).
    """

    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(
                f"threshold must be >= 1 for validity, got {self.threshold}"
            )
        super().__post_init__()

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"protocol-W(K={self.threshold})"

    def _make_spec(self) -> CountingSpec:
        """Valid-gated start, no rfire, ``a_i = count_i``, a step at K:
        process ``i`` attacks iff ``count_i >= K``."""
        return CountingSpec(
            rfire_gated=False,
            coordinator=None,
            message_gated=False,
            slack=0,
            law=RfireLaw("step", self.threshold),
        )

    def automorphism_invariant_vertices(self, topology: Topology):
        """W is fully symmetric: every process runs the same machine,
        so the whole automorphism group preserves ``Pr[·|R]``."""
        return frozenset()
