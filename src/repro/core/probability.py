"""Probability engines: ``Pr[X | R]`` over the tape distribution.

Three backends compute the event probabilities of a (protocol, run)
pair, in decreasing order of preference:

1. **closed form** — the protocol implements
   :class:`~repro.core.protocol.ClosedFormProtocol` and evaluates the
   probabilities analytically (Protocols A, S, and W do: their message
   flow does not depend on the tape values, only the final decision
   does);
2. **exact enumeration** — every tape distribution is finite and the
   joint support is small, so we sum over all assignments;
3. **Monte Carlo** — sample tapes, simulate, tally, and report Wilson
   confidence intervals.

The test suite cross-checks the backends against each other on every
protocol, which is the main defense against transcription errors in
the closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .events import OutcomeCounts, classify, Outcome
from .execution import decide
from .protocol import ClosedFormProtocol, Protocol
from .run import Run
from .seeding import spawn_random
from .topology import Topology
from .types import ProcessId

# Exact enumeration is refused beyond this many joint tape assignments.
DEFAULT_ENUMERATION_LIMIT = 200_000

# Default sample size for the Monte Carlo backend.
DEFAULT_TRIALS = 4_000


@dataclass(frozen=True)
class EventProbabilities:
    """The distribution of outcomes for one (protocol, run) pair.

    ``pr_attack[i]`` is ``Pr[D_i | R]``.  ``method`` records which
    backend produced the numbers; ``trials`` is set only for Monte
    Carlo results (the others are exact up to float rounding).
    """

    pr_total_attack: float
    pr_no_attack: float
    pr_partial_attack: float
    pr_attack: Tuple[float, ...]
    method: str
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        total = self.pr_total_attack + self.pr_no_attack + self.pr_partial_attack
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"event probabilities sum to {total}, not 1")
        for name, value in (
            ("pr_total_attack", self.pr_total_attack),
            ("pr_no_attack", self.pr_no_attack),
            ("pr_partial_attack", self.pr_partial_attack),
        ):
            if not -1e-12 <= value <= 1 + 1e-12:
                raise ValueError(f"{name} = {value} is not a probability")

    def pr_attack_by(self, process: ProcessId) -> float:
        """``Pr[D_i | R]`` for a 1-indexed process id."""
        return self.pr_attack[process - 1]

    @property
    def liveness(self) -> float:
        """``L(F, R) = Pr[TA | R]`` (the paper's liveness measure)."""
        return self.pr_total_attack

    @property
    def unsafety(self) -> float:
        """``Pr[PA | R]`` — this run's contribution to ``U(F)``."""
        return self.pr_partial_attack

    def is_exact(self) -> bool:
        """True for the closed-form and enumeration backends."""
        return self.method in ("closed-form", "enumeration")

    def agrees_with(
        self, other: "EventProbabilities", tolerance: float
    ) -> bool:
        """Cross-check helper: all five summary numbers within tolerance."""
        pairs = [
            (self.pr_total_attack, other.pr_total_attack),
            (self.pr_no_attack, other.pr_no_attack),
            (self.pr_partial_attack, other.pr_partial_attack),
        ]
        pairs.extend(zip(self.pr_attack, other.pr_attack))
        return all(abs(a - b) <= tolerance for a, b in pairs)


@dataclass(frozen=True, eq=False)
class EventColumns:
    """:class:`EventProbabilities` for a batch of runs, one column per field.

    Entry ``i`` of each float64 column belongs to run ``i`` of the
    batch; ``pr_attack`` has shape ``(n, m)``.  The arrays are frozen
    (numpy ``writeable=False``): the vectorized kernel that builds them
    is a memo-cacheable function, so its results must be immutable
    values.  This is the one place rows are built from columns
    (:meth:`rows`) and columns from rows (:meth:`from_rows`).
    """

    pr_total_attack: np.ndarray
    pr_no_attack: np.ndarray
    pr_partial_attack: np.ndarray
    pr_attack: np.ndarray
    method: str
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        for column in (
            self.pr_total_attack,
            self.pr_no_attack,
            self.pr_partial_attack,
            self.pr_attack,
        ):
            column.setflags(write=False)

    @classmethod
    def from_rows(
        cls, rows: Sequence[EventProbabilities], num_processes: int
    ) -> "EventColumns":
        """Stack rows that share one method (an evaluated batch's)."""
        method = rows[0].method if rows else "closed-form"
        trials = rows[0].trials if rows else None
        if any(row.method != method or row.trials != trials for row in rows):
            raise ValueError("stacked rows must share one method and trials")
        return cls(
            pr_total_attack=np.array(
                [row.pr_total_attack for row in rows], dtype=np.float64
            ),
            pr_no_attack=np.array(
                [row.pr_no_attack for row in rows], dtype=np.float64
            ),
            pr_partial_attack=np.array(
                [row.pr_partial_attack for row in rows], dtype=np.float64
            ),
            pr_attack=np.array(
                [row.pr_attack for row in rows], dtype=np.float64
            ).reshape(len(rows), num_processes),
            method=method,
            trials=trials,
        )

    def rows(self) -> List[EventProbabilities]:
        """One :class:`EventProbabilities` per run, in batch order."""
        return [
            EventProbabilities(
                pr_total_attack=pr_ta,
                pr_no_attack=pr_na,
                pr_partial_attack=pr_pa,
                pr_attack=tuple(pr_attack),
                method=self.method,
                trials=self.trials,
            )
            for pr_ta, pr_na, pr_pa, pr_attack in zip(
                self.pr_total_attack.tolist(),
                self.pr_no_attack.tolist(),
                self.pr_partial_attack.tolist(),
                self.pr_attack.tolist(),
            )
        ]


def exact_probabilities(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EventProbabilities:
    """Sum over every joint tape assignment (finite spaces only).

    Raises ``ValueError`` when the space is continuous or larger than
    ``enumeration_limit``.
    """
    space = protocol.tape_space(topology)
    size = space.joint_support_size()
    if size is None:
        raise ValueError(
            f"protocol {protocol.name!r} has a continuous tape space; "
            "use the closed form or Monte Carlo"
        )
    if size > enumeration_limit:
        raise ValueError(
            f"joint tape support of {size} exceeds the enumeration "
            f"limit of {enumeration_limit}"
        )
    num_processes = topology.num_processes
    pr_ta = 0.0
    pr_na = 0.0
    pr_pa = 0.0
    pr_attack = [0.0] * num_processes
    for tapes, weight in space.enumerate():
        outputs = decide(protocol, topology, run, tapes)
        outcome = classify(outputs)
        if outcome is Outcome.TOTAL_ATTACK:
            pr_ta += weight
        elif outcome is Outcome.NO_ATTACK:
            pr_na += weight
        else:
            pr_pa += weight
        for index, decided in enumerate(outputs):
            if decided:
                pr_attack[index] += weight
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=tuple(pr_attack),
        method="enumeration",
    )


def monte_carlo_probabilities(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
) -> EventProbabilities:
    """Estimate the event probabilities by sampling tapes."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = spawn_random(0, "probability", "monte-carlo")
    space = protocol.tape_space(topology)
    counts = OutcomeCounts(topology.num_processes)
    for _ in range(trials):
        tapes = space.sample(rng)
        counts.record(decide(protocol, topology, run, tapes))
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


def evaluate(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    method: str = "auto",
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EventProbabilities:
    """Compute event probabilities with the best available backend.

    ``method`` may be ``"auto"``, ``"closed-form"``, ``"enumeration"``
    or ``"monte-carlo"``.  ``"auto"`` prefers the closed form, then
    enumeration when the support fits, then Monte Carlo.
    """
    if method not in ("auto", "closed-form", "enumeration", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed-form") and isinstance(
        protocol, ClosedFormProtocol
    ):
        return protocol.closed_form_probabilities(topology, run)
    if method == "closed-form":
        raise ValueError(f"protocol {protocol.name!r} has no closed form")
    if method in ("auto", "enumeration"):
        size = protocol.tape_space(topology).joint_support_size()
        if size is not None and size <= enumeration_limit:
            return exact_probabilities(
                protocol, topology, run, enumeration_limit
            )
        if method == "enumeration":
            raise ValueError(
                f"protocol {protocol.name!r} cannot be enumerated "
                f"(support size {size})"
            )
    return monte_carlo_probabilities(protocol, topology, run, trials, rng)


def evaluate_many(
    protocol: Protocol,
    topology: Topology,
    runs: "Sequence[Run]",
    method: str = "auto",
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    engine: Optional[object] = None,
) -> "List[EventProbabilities]":
    """Batched :func:`evaluate` over an ordered sequence of runs.

    Delegates to an :class:`repro.engine.Engine` (the process-wide
    default when ``engine`` is None), which routes supported batches to
    the vectorized numpy backend and memoizes exact results.  The
    returned list matches ``runs`` in order and is element-wise
    identical to mapping :func:`evaluate`.
    """
    if engine is None:
        from ..engine import default_engine

        engine = default_engine()
    return engine.evaluate_many(
        protocol,
        topology,
        runs,
        method=method,
        trials=trials,
        rng=rng,
        enumeration_limit=enumeration_limit,
    )
