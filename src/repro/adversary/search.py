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

Every strategy reads the adversary as a set of loss patterns: packed
runs in a :class:`RunBatch` (or a greedy neighborhood), evaluated as
result columns and scanned with the objective applied to the whole
batch.  The exhaustive, family and random searches share one scan,
:func:`_scan_batches`; only the winner is unpacked to a :class:`Run`.

:func:`worst_case_unsafety` composes them: exhaustive when the space
fits a budget, otherwise families + greedy refinement + random probes.
The objective is pluggable, so the same machinery also *minimizes*
liveness (via a negated objective) for adversary-tournament studies.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.packed import (
    MAX_VECTOR_ORBIT_BITS,
    RunBatch,
    enumerate_orbit_representatives,
    layout_for,
    orbit_representatives,
    orbit_tables,
    random_bits,
)
from ..core.probability import EventColumns, EventProbabilities
from ..core.protocol import Protocol
from ..core.run import Run, run_space_size
# The unpacked view of the random probes' draw, re-exported: perfbench's
# layer tracing looks it up here by name.
from ..core.run import random_run as random_run
from ..core.seeding import spawn_random
from ..core.topology import Topology
from ..core.types import ProcessId, Round
from .strong import StrongAdversary
from .structured import RunFamily, standard_families

logger = logging.getLogger(__name__)

#: The value a search maximizes, computed from evaluation results.
#: Every search applies an objective to a batch's :class:`EventColumns`
#: and expects a float64 array with one value per run, which must be
#: the objective of that run's row:
#: ``objective(columns)[j] == objective(columns.rows()[j])``.  Any
#: elementwise expression over result fields qualifies — e.g.
#: ``result.pr_partial_attack``, ``-result.pr_total_attack``, or
#: ``result.pr_attack[-1] - result.pr_attack[0]``, since ``pr_attack``
#: is process-major on both forms.  A search given anything but one
#: value per run raises ``TypeError`` instead of scanning a wrong
#: column.
Objective = Callable[[Union[EventProbabilities, EventColumns]], Any]

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
    what sends its batches to the numpy kernel where it supports the
    protocol, and to the memoized reference path everywhere else.
    """
    if engine is None:
        from ..engine import default_engine

        return default_engine()
    return engine


def unsafety_objective(result: Union[EventProbabilities, EventColumns]) -> Any:
    """The default objective: ``Pr[PA | R]``."""
    return result.pr_partial_attack


def negated_liveness_objective(
    result: Union[EventProbabilities, EventColumns],
) -> Any:
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


#: Packed exhaustive sweeps evaluate this many runs per kernel batch.
EXHAUSTIVE_CHUNK = 4_096


def _exhaustive_batches(
    adversary: StrongAdversary,
    topology: Topology,
    num_rounds: Round,
    fixing: Optional[Sequence[ProcessId]],
    tables: Sequence[Sequence[int]],
    budget: int,
) -> Iterator[RunBatch]:
    """The runs a sweep examines, in enumeration order, in kernel batches.

    The adversary's packed batches cover the whole space (for layouts
    of at most :data:`MAX_VECTOR_ORBIT_BITS` bits, slices of one uint64
    array).  With orbit tables, non-representatives are dropped one
    batch at a time (:func:`orbit_representatives`) and the survivors
    re-batched; wider orbit-reduced layouts stream the lazy
    :func:`enumerate_orbit_representatives`.  Either way every batch
    but the last holds ``EXHAUSTIVE_CHUNK`` runs.
    """
    layout = layout_for(topology, num_rounds)
    if fixing is not None and layout.num_bits > MAX_VECTOR_ORBIT_BITS:
        stream = enumerate_orbit_representatives(
            topology, num_rounds, fixing, adversary.fixed_inputs
        )
        while chunk := list(itertools.islice(stream, EXHAUSTIVE_CHUNK)):
            yield RunBatch.from_bits(layout, (packed.bits for packed, _ in chunk))
        return
    batches = adversary.enumerate_packed(
        topology, num_rounds, limit=budget, chunk=EXHAUSTIVE_CHUNK
    )
    if not tables:
        yield from batches
        return
    slices = (batch.words[:, 0] for batch in batches)
    runs = orbit_representatives(layout, slices, tables)[0]
    for start in range(0, len(runs), EXHAUSTIVE_CHUNK):
        yield RunBatch(layout, runs[start : start + EXHAUSTIVE_CHUNK, None])


def _values(objective: Objective, columns: EventColumns) -> np.ndarray:
    """The objective's value for every run of ``columns``."""
    values = objective(columns)
    if not isinstance(values, np.ndarray) or values.shape != (len(columns),):
        raise TypeError(
            f"objective {getattr(objective, '__name__', objective)!r} is "
            "not elementwise over result fields: on a batch of "
            f"{len(columns)} runs it returned "
            f"{getattr(values, 'shape', type(values).__name__)}, not one "
            "value per run"
        )
    return values


def _scan_batches(
    protocol: Protocol,
    topology: Topology,
    batches: Iterable[RunBatch],
    objective: Objective,
    engine,
    strategy: str,
    **attributes: Any,
) -> Tuple[float, Optional[Run], int]:
    """Scan kernel batches; the first run attaining the maximum wins.

    The one scan of the exhaustive, family and random searches, under
    one ``search.<strategy>`` span.  Returns ``(best_value, witness,
    examined)``.  Each batch is evaluated as result columns and the
    objective maps them to one value per run; the first ``argmax`` of
    a batch competes with the earlier batches' winner under a strict
    ``>``, so the witness is the first maximizer in submission order —
    the run a one-big-list scan would pick — and only it is unpacked.
    """
    best_value = float("-inf")
    best: Optional[Tuple[RunBatch, int]] = None
    examined = 0
    with engine.obs.tracer.span(
        f"search.{strategy}",
        protocol=protocol.name,
        topology=topology.describe(),
        **attributes,
    ):
        for batch in batches:
            if not len(batch):
                continue
            columns = engine.evaluate_packed_many(
                protocol, topology, batch, trials=SEARCH_TRIALS
            )
            values = _values(objective, columns)
            index = int(np.argmax(values))
            if values[index] > best_value:
                best_value = float(values[index])
                best = (batch, index)
            examined += len(batch)
        if examined == 0:
            raise ValueError(f"{strategy} search was given no runs")
        witness = best[0].unpack(best[1]) if best else None
    engine.obs.metrics.counter("search.runs_examined").inc(examined)
    logger.debug(
        "%s search on %s: value=%.6f over %d runs",
        strategy,
        topology.describe(),
        best_value,
        examined,
    )
    return best_value, witness, examined


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

    Runs go packed, in enumeration order, through
    :meth:`Engine.evaluate_packed_many` in batches of
    :data:`EXHAUSTIVE_CHUNK`; the objective is applied to each batch's
    result columns, and the first run attaining the maximum is the
    witness.

    With ``symmetry_reduction=True`` *and* a protocol that declares
    its symmetry (:meth:`Protocol.automorphism_invariant_vertices`
    returns non-``None``), enumeration visits one representative per
    orbit of the automorphism subgroup fixing the protocol's
    distinguished vertices (and stabilizing ``fixed_inputs`` if set).
    The maximum is exact only for an objective that takes the same
    value on every run of an orbit, as ``Pr[PA | R]`` and ``Pr[TA |
    R]`` do; one that names processes (say ``Pr[D_3] - Pr[D_1]``) is
    not invariant under automorphisms that move them, and must not be
    reduced.  ``runs_examined``/``reduction_factor`` report the
    savings; the ``limit`` guard then applies to the reduced count.
    The default (``False``) keeps the full sweep, so results —
    witness, ``runs_examined``, tie-breaking — are unchanged for
    existing callers.
    """
    engine = _resolve_engine(engine)
    adversary = StrongAdversary(fixed_inputs=fixed_inputs)
    space = adversary.size(topology, num_rounds)
    invariant = (
        protocol.automorphism_invariant_vertices(topology)
        if symmetry_reduction
        else None
    )
    fixing = None if invariant is None else sorted(invariant)
    tables: List[Tuple[int, ...]] = []
    if fixing is not None:
        tables = orbit_tables(topology, num_rounds, fixing, fixed_inputs)
    # Representatives number at least space / |G|; refuse instances
    # where even perfect reduction cannot fit the budget.
    budget = limit * (len(tables) + 1)
    if space > budget:
        reduced = (
            ""
            if fixing is None
            else " even with orbit reduction by a group of order "
            f"{len(tables) + 1}"
        )
        raise ValueError(
            f"strong adversary has {space} runs here, above the "
            f"enumeration limit of {limit}{reduced}; "
            "use repro.adversary.search"
        )
    best_value, best_run, examined = _scan_batches(
        protocol,
        topology,
        _exhaustive_batches(adversary, topology, num_rounds, fixing, tables, budget),
        objective,
        engine,
        "exhaustive",
        runs=space,
        certification="exact",
        symmetry_reduction=fixing is not None,
    )
    if fixing is not None and examined > limit:
        raise ValueError(
            f"orbit-reduced enumeration produced {examined} "
            f"representatives, above the limit of {limit}"
        )
    return SearchResult(
        best_value,
        best_run,
        examined,
        "exact",
        "exhaustive",
        reduction_factor=space / examined if fixing is not None else None,
    )


def family_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    families: Optional[Sequence[RunFamily]] = None,
    engine=None,
) -> SearchResult:
    """Maximize over the structured families: one batch, in family order."""
    if families is None:
        families = standard_families()
    layout = layout_for(topology, num_rounds)
    batch = RunBatch.from_bits(
        layout, (bits for family in families for bits in family.generate(layout))
    )
    value, run, examined = _scan_batches(
        protocol, topology, (batch,), objective, _resolve_engine(engine),
        "family", runs=len(batch), certification="family",
    )
    return SearchResult(value, run, examined, "family", "family")


def random_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    samples: int = 200,
    objective: Objective = unsafety_objective,
    rng: Optional[random.Random] = None,
    engine=None,
) -> SearchResult:
    """Probe uniformly random runs (the draws of :func:`random_run`)."""
    if rng is None:
        rng = spawn_random(0, "adversary", "random-search")
    layout = layout_for(topology, num_rounds)
    batch = RunBatch.from_bits(
        layout, (random_bits(layout, rng) for _ in range(samples))
    )
    value, run, examined = _scan_batches(
        protocol, topology, (batch,), objective, _resolve_engine(engine),
        "random", runs=len(batch), certification="heuristic",
    )
    return SearchResult(value, run, examined, "heuristic", "random")


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
    neighborhood as result columns (:meth:`Engine.evaluate_neighbors`,
    which resumes simulation from the flipped round where the
    vectorized kernel applies) and applies the objective to them once.
    Candidates are tried message bits ascending, then input bits — the
    order of :func:`all_message_tuples` and then the processes — and
    the first strict improvement wins ties.  Raises ``ValueError`` if
    ``seed_run`` does not fit the ``num_rounds`` layout of
    ``topology``.
    """
    engine = _resolve_engine(engine)
    current = layout_for(topology, num_rounds).pack(seed_run)
    layout = current.layout
    m = layout.num_processes
    with engine.obs.tracer.span(
        "search.greedy",
        protocol=protocol.name,
        topology=topology.describe(),
        max_passes=max_passes,
    ):
        current_value: Optional[float] = None
        examined = 1
        for _ in range(max_passes):
            values = _values(
                objective, engine.evaluate_neighbors(protocol, topology, current)
            )
            if current_value is None:
                current_value = float(values[0])
            examined += layout.num_bits
            # Bit order: the message bits, then the input bits.
            ordered = np.concatenate((values[1 + m :], values[1 : 1 + m]))
            index = int(np.argmax(ordered))
            if not ordered[index] > current_value:
                break
            current = current.with_bit_flipped((index + m) % layout.num_bits)
            current_value = float(ordered[index])
        if current_value is None:  # max_passes <= 0: just score the seed
            seed = RunBatch.from_bits(layout, (current.bits,))
            columns = engine.evaluate_packed_many(protocol, topology, seed)
            current_value = float(_values(objective, columns)[0])
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
    suite); a reduced sweep that fails its guard limits falls back
    to the full sweep, never to a weaker certification.  Otherwise
    the best of family search, greedy refinement seeded at the family
    winner, and ``random_samples`` random probes (none at 0) —
    certified ``family`` if the family winner stands, ``heuristic`` if
    a heuristic beat it.  A negative ``random_samples`` raises
    ``ValueError``.
    """
    if random_samples < 0:
        raise ValueError(
            f"random_samples must be >= 0, got {random_samples}"
        )
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
                    # The reduced sweep could not run here (a guard
                    # limit); the full sweep below gives the identical
                    # exact answer.
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
        if random_samples:
            candidates.append(
                random_search(
                    protocol, topology, num_rounds, random_samples,
                    objective, rng, engine=engine,
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
