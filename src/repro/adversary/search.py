"""Worst-run search: maximizing ``Pr[PA | R]`` over the strong adversary.

The paper's unsafety ``U_s(F) = max_R Pr[PA | R]`` quantifies over an
exponential run space.  This module offers four strategies, each
tagging its result with a *certification level* so experiment tables
can be honest about what was proven:

* ``exact``     — exhaustive enumeration (small instances only);
* ``family``    — maximum over the structured families of
  :mod:`repro.adversary.structured`, which contain the analytic worst
  cases for the paper's protocols;
* ``greedy``    — hill-climbing over single-tuple flips from a seed
  run;
* ``random``    — uniform random runs.

:func:`worst_case_unsafety` composes them: exhaustive when the space
fits a budget, otherwise families + greedy refinement + random probes.
The objective is pluggable, so the same machinery also *minimizes*
liveness (via a negated objective) for adversary-tournament studies.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.packed import (
    PackedRun,
    RunBatch,
    enumerate_orbit_representatives,
    layout_for,
    orbit_tables,
)
from ..core.probability import EventProbabilities
from ..core.protocol import Protocol
from ..core.run import Run, random_run, run_space_size
from ..core.seeding import spawn_random
from ..core.topology import Topology
from ..core.types import Round
from .strong import StrongAdversary
from .structured import RunFamily, standard_families

logger = logging.getLogger(__name__)

Objective = Callable[[EventProbabilities], float]

#: Below this run-space size :func:`worst_case_unsafety` runs the
#: orbit-reduced *and* the full exhaustive sweep and asserts their
#: maxima are identical — a standing self-check that symmetry
#: reduction never changes an answer, cheap exactly where doubling
#: the work is cheap.
SYMMETRY_PARITY_LIMIT = 4_096

#: The Monte-Carlo sample size of the exhaustive, family and random
#: searches.  It is part of every memo-cache key they write, so sharing
#: it lets a later pass hit an earlier one's entries (E16's family
#: search after its exhaustive sweep).
SEARCH_TRIALS = 2_000


def _resolve_engine(engine):
    """The engine to search with: the caller's, or the process default.

    Routing every search through an :class:`repro.engine.Engine` is
    what batches run evaluation (numpy backend where supported) and
    memoizes exact results, so repeated certification passes stop
    re-simulating the same runs.
    """
    if engine is None:
        from ..engine import default_engine

        return default_engine()
    return engine


def unsafety_objective(result: EventProbabilities) -> float:
    """The default objective: ``Pr[PA | R]``."""
    return result.pr_partial_attack


def negated_liveness_objective(result: EventProbabilities) -> float:
    """Maximizing this minimizes ``Pr[TA | R]`` (a denial adversary)."""
    return -result.pr_total_attack


@dataclass(frozen=True)
class SearchResult:
    """The outcome of one search: best value, witness, and provenance."""

    value: float
    run: Optional[Run]
    runs_examined: int
    certification: str
    strategy: str
    #: With orbit-reduced enumeration: how many runs of the full space
    #: each examined run stood for on average (``space / examined``).
    #: ``None`` when no symmetry reduction was applied.
    reduction_factor: Optional[float] = None

    def describe(self) -> str:
        """One-line summary: strategy, value, budget, witness."""
        witness = self.run.describe() if self.run is not None else "none"
        reduced = (
            f" (orbit reduction {self.reduction_factor:.1f}x)"
            if self.reduction_factor is not None
            else ""
        )
        return (
            f"{self.strategy}: value={self.value:.6f} over "
            f"{self.runs_examined} runs{reduced} "
            f"[{self.certification}]; {witness}"
        )


def _search_over(
    protocol: Protocol,
    topology: Topology,
    runs: Iterable[Run],
    objective: Objective,
    certification: str,
    strategy: str,
    engine=None,
) -> SearchResult:
    engine = _resolve_engine(engine)
    run_list = list(runs)
    if not run_list:
        raise ValueError(f"{strategy} search was given no runs")
    with engine.obs.tracer.span(
        f"search.{strategy}",
        protocol=protocol.name,
        topology=topology.describe(),
        runs=len(run_list),
        certification=certification,
    ):
        results = engine.evaluate_many(
            protocol, topology, run_list, trials=SEARCH_TRIALS
        )
        # Scan in submission order with a strict ``>``, so the winner
        # (the first run attaining the maximum) matches the historical
        # serial loop exactly.
        best_value = float("-inf")
        best_run: Optional[Run] = None
        for run, result in zip(run_list, results):
            value = objective(result)
            if value > best_value:
                best_value = value
                best_run = run
    engine.obs.metrics.counter("search.runs_examined").inc(len(run_list))
    logger.debug(
        "%s search on %s: value=%.6f over %d runs",
        strategy,
        topology.describe(),
        best_value,
        len(run_list),
    )
    return SearchResult(
        best_value, best_run, len(run_list), certification, strategy
    )


#: Packed exhaustive sweeps evaluate this many runs per kernel batch.
EXHAUSTIVE_CHUNK = 4_096


def _search_packed_stream(
    protocol: Protocol,
    topology: Topology,
    stream: Iterable[PackedRun],
    objective: Objective,
    engine,
    num_rounds: Round,
) -> Tuple[float, Optional[PackedRun], int]:
    """Scan a packed-run stream in chunks; first strict max wins.

    Returns ``(best_value, best_packed, examined)``.  Enumeration
    order is preserved across chunk boundaries, so the winner is the
    same run the one-big-list scan would pick.
    """
    layout = layout_for(topology, num_rounds)
    best_value = float("-inf")
    best_packed: Optional[PackedRun] = None
    examined = 0
    chunk: List[PackedRun] = []

    def scan(batch_runs: List[PackedRun]) -> None:
        nonlocal best_value, best_packed
        batch = RunBatch.from_bits(layout, (p.bits for p in batch_runs))
        results = engine.evaluate_packed_many(
            protocol, topology, batch, trials=SEARCH_TRIALS
        )
        for packed, result in zip(batch_runs, results):
            value = objective(result)
            if value > best_value:
                best_value = value
                best_packed = packed

    for packed in stream:
        chunk.append(packed)
        examined += 1
        if len(chunk) >= EXHAUSTIVE_CHUNK:
            scan(chunk)
            chunk = []
    if chunk:
        scan(chunk)
    if examined == 0:
        raise ValueError("exhaustive search was given no runs")
    return best_value, best_packed, examined


def exhaustive_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    fixed_inputs: Optional[frozenset] = None,
    limit: int = 300_000,
    engine=None,
    symmetry_reduction: bool = False,
) -> SearchResult:
    """Enumerate every run of the strong adversary (small instances).

    Runs stream packed, in enumeration order, through
    :meth:`Engine.evaluate_packed_many` in chunks; the first run
    attaining the maximum is the witness.

    With ``symmetry_reduction=True`` *and* a protocol that declares
    its symmetry (:meth:`Protocol.automorphism_invariant_vertices`
    returns non-``None``), enumeration visits one representative per
    orbit of the automorphism subgroup fixing the protocol's
    distinguished vertices (and stabilizing ``fixed_inputs`` if set).
    The maximum is exact — the objective takes the same value on every
    run of an orbit — and ``runs_examined``/``reduction_factor``
    report the savings; the ``limit`` guard then applies to the
    reduced count.  The default (``False``) keeps the full sweep, so
    results — witness, ``runs_examined``, tie-breaking — are
    unchanged for existing callers.
    """
    engine = _resolve_engine(engine)
    adversary = StrongAdversary(fixed_inputs=fixed_inputs)
    space = adversary.size(topology, num_rounds)
    fixing = (
        protocol.automorphism_invariant_vertices(topology)
        if symmetry_reduction
        else None
    )
    if fixing is None:
        stream = adversary.enumerate_packed(topology, num_rounds, limit=limit)
    else:
        tables = orbit_tables(
            topology, num_rounds, sorted(fixing), fixed_inputs
        )
        # Representatives number at least space / |G|; refuse instances
        # where even perfect reduction cannot fit the budget.
        if space > limit * (len(tables) + 1):
            raise ValueError(
                f"strong adversary has {space} runs here, above the "
                f"enumeration limit of {limit} even with orbit reduction "
                f"by a group of order {len(tables) + 1}; "
                "use repro.adversary.search"
            )
        stream = (
            packed
            for packed, _ in enumerate_orbit_representatives(
                topology, num_rounds, sorted(fixing), fixed_inputs
            )
        )
    with engine.obs.tracer.span(
        "search.exhaustive",
        protocol=protocol.name,
        topology=topology.describe(),
        runs=space,
        certification="exact",
        symmetry_reduction=fixing is not None,
    ):
        best_value, best_packed, examined = _search_packed_stream(
            protocol, topology, stream, objective, engine, num_rounds
        )
        if fixing is not None and examined > limit:
            raise ValueError(
                f"orbit-reduced enumeration produced {examined} "
                f"representatives, above the limit of {limit}"
            )
    engine.obs.metrics.counter("search.runs_examined").inc(examined)
    reduction = space / examined if fixing is not None else None
    logger.debug(
        "exhaustive search on %s: value=%.6f over %d of %d runs",
        topology.describe(),
        best_value,
        examined,
        space,
    )
    return SearchResult(
        best_value,
        best_packed.unpack() if best_packed is not None else None,
        examined,
        "exact",
        "exhaustive",
        reduction_factor=reduction,
    )


def family_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    families: Optional[Sequence[RunFamily]] = None,
    engine=None,
) -> SearchResult:
    """Maximize over the structured families."""
    if families is None:
        families = standard_families()
    runs: List[Run] = []
    for family in families:
        runs.extend(family.runs(topology, num_rounds))
    return _search_over(
        protocol, topology, runs, objective, "family", "family", engine=engine
    )


def random_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    samples: int = 200,
    objective: Objective = unsafety_objective,
    rng: Optional[random.Random] = None,
    engine=None,
) -> SearchResult:
    """Probe uniformly random runs."""
    if rng is None:
        rng = spawn_random(0, "adversary", "random-search")
    runs = (
        random_run(topology, num_rounds, rng) for _ in range(samples)
    )
    return _search_over(
        protocol, topology, runs, objective, "heuristic", "random",
        engine=engine,
    )


def greedy_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    seed_run: Run,
    objective: Objective = unsafety_objective,
    max_passes: int = 3,
    engine=None,
) -> SearchResult:
    """Hill-climb by flipping one delivery or input at a time.

    Starts from ``seed_run`` and repeatedly applies the single-bit
    flip (add/remove a message delivery, toggle an input) that most
    improves the objective, until a pass yields no improvement or the
    pass budget is exhausted.  Each pass asks the engine for the whole
    neighborhood at once (:meth:`Engine.evaluate_neighbors`, which
    resumes simulation from the flipped round where the vectorized
    kernel applies).  Candidates are tried message bits ascending,
    then input bits — the order of :func:`all_message_tuples` and then
    the processes — and the first strict improvement wins ties.
    Raises ``ValueError`` if ``seed_run`` does not fit the
    ``num_rounds`` layout of ``topology``.
    """
    engine = _resolve_engine(engine)
    current = layout_for(topology, num_rounds).pack(seed_run)
    layout = current.layout
    m = layout.num_processes
    bit_order = list(range(m, layout.num_bits)) + list(range(m))
    with engine.obs.tracer.span(
        "search.greedy",
        protocol=protocol.name,
        topology=topology.describe(),
        max_passes=max_passes,
    ):
        current_value: Optional[float] = None
        examined = 1
        for _ in range(max_passes):
            parent_result, by_bit = engine.evaluate_neighbors(
                protocol, topology, current
            )
            if current_value is None:
                current_value = objective(parent_result)
            examined += layout.num_bits
            best_bit: Optional[int] = None
            best_value = current_value
            for bit in bit_order:
                value = objective(by_bit[bit])
                if value > best_value:
                    best_bit = bit
                    best_value = value
            if best_bit is None:
                break
            current = current.with_bit_flipped(best_bit)
            current_value = best_value
        if current_value is None:  # max_passes <= 0: just score the seed
            current_value = objective(
                engine.evaluate(protocol, topology, seed_run)
            )
    engine.obs.metrics.counter("search.runs_examined").inc(examined)
    logger.debug(
        "greedy search on %s: value=%.6f over %d runs",
        topology.describe(),
        current_value,
        examined,
    )
    return SearchResult(
        current_value, current.unpack(), examined, "heuristic", "greedy"
    )


def worst_case_unsafety(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    exhaustive_limit: int = 70_000,
    random_samples: int = 100,
    rng: Optional[random.Random] = None,
    engine=None,
) -> SearchResult:
    """The composite search used by the experiments.

    Exhaustive when the run space fits the budget — orbit-reduced
    whenever the protocol declares its symmetry
    (:meth:`Protocol.automorphism_invariant_vertices` non-``None``),
    since the objective is constant on automorphism orbits and one
    representative per orbit certifies the same exact maximum for a
    fraction of the evaluations.  On the smallest instances the
    reduced and unreduced sweeps are both run and their maxima
    asserted equal (the lumpability analogue of the backend parity
    suite); reduction failures (width caps, guard limits) fall back
    to the full sweep, never to a weaker certification.  Otherwise
    the best of family search, greedy refinement seeded at the family
    winner, and random probing — certified ``family`` if the family
    winner stands, ``heuristic`` if a heuristic beat it.
    """
    engine = _resolve_engine(engine)
    space = run_space_size(topology, num_rounds, fixed_inputs=False)
    with engine.obs.tracer.span(
        "search.composite",
        protocol=protocol.name,
        topology=topology.describe(),
        num_rounds=num_rounds,
        run_space=space,
    ):
        if space <= exhaustive_limit:
            reduced: Optional[SearchResult] = None
            if protocol.automorphism_invariant_vertices(topology) is not None:
                try:
                    reduced = exhaustive_search(
                        protocol, topology, num_rounds, objective,
                        limit=exhaustive_limit, engine=engine,
                        symmetry_reduction=True,
                    )
                except ValueError:
                    # Includes OrbitReductionUnsupported: the reduced
                    # sweep could not run here; the full sweep below
                    # gives the identical exact answer.
                    reduced = None
            if reduced is not None and space > SYMMETRY_PARITY_LIMIT:
                return reduced
            full = exhaustive_search(
                protocol, topology, num_rounds, objective,
                limit=exhaustive_limit, engine=engine,
            )
            if reduced is not None:
                # Exact parity: an orbit maximum is the space maximum.
                assert reduced.value == full.value, (
                    f"orbit-reduced maximum {reduced.value!r} != "
                    f"full-sweep maximum {full.value!r} on "
                    f"{topology.describe()} N={num_rounds}"
                )
                return reduced
            return full
        family_result = family_search(
            protocol, topology, num_rounds, objective, engine=engine
        )
        candidates = [family_result]
        if family_result.run is not None:
            candidates.append(
                greedy_search(
                    protocol, topology, num_rounds, family_result.run,
                    objective, engine=engine,
                )
            )
        candidates.append(
            random_search(
                protocol, topology, num_rounds, random_samples, objective,
                rng, engine=engine,
            )
        )
        best = max(candidates, key=lambda result: result.value)
        examined = sum(result.runs_examined for result in candidates)
        certification = (
            "family" if best.value <= family_result.value else "heuristic"
        )
        logger.debug(
            "composite search on %s N=%d: value=%.6f over %d runs [%s]",
            topology.describe(),
            num_rounds,
            best.value,
            examined,
            certification,
        )
        return SearchResult(
            best.value, best.run, examined, certification, "composite"
        )
