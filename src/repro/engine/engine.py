"""The :class:`Engine` facade: batched, cached, instrumented evaluation.

Every layer that needs ``Pr[X | R]`` — the probability module, the
worst-run searches, the weak-adversary estimators, the experiment
runners — goes through an :class:`Engine` rather than calling the
simulator directly.  The methods that evaluate runs are thin adapters
over one batched pipeline, and one function, :meth:`Engine._route`,
picks the backend for each batch:

* ``reference`` — the pure-python simulator via
  :func:`repro.core.probability.evaluate`, unchanged semantics;
* ``vectorized`` — the numpy batch kernel of
  :mod:`repro.engine.vectorized` wherever it supports the
  (protocol, topology) pair exactly, reference otherwise;
* ``meanfield`` — the counter-abstraction kernels of
  :mod:`repro.meanfield` for every exact evaluation (complete graphs
  and class-uniform runs only; anything else raises a typed error);
* ``auto`` — vectorize exactly-supported batches once they are large
  enough to amortize tensor packing, reference for everything else.

Because the vectorized backend is bit-identical to the reference
closed forms (enforced by the parity test suite), switching backends
never changes a claim check — only wall time.

Results whose method is exact (closed form or enumeration) are
memoized in a pluggable :class:`~repro.engine.cache.EngineCache`
(default: a bounded FIFO :class:`~repro.engine.cache.InProcessCache`)
keyed on the hashable, immutable ``(protocol, topology, run)`` triple,
so repeated runs — a served hot set, a certification pass that
revisits runs on the reference path — become cache hits.  Packed
input the vectorized kernel takes whole (the searches' sweeps, probe
batches and neighborhoods) never meets the cache: each such run is
evaluated once per call, and per-run memo traffic would cost more
than the kernel saves.  Monte-Carlo results are never cached: caching them
would silently freeze sampling noise and perturb downstream rng
streams.

Instrumentation lives in :mod:`repro.obs`: each engine owns a
:class:`~repro.obs.MetricsRegistry` (``engine.*`` counters, the
``engine.evaluate.latency`` histogram, ``mc.trials``) and shares the
process tracer, so ``--trace`` captures engine spans without the
engine knowing who is listening.  :class:`EngineStats` survives as a
thin read view over that registry — same attribute and ``as_dict``
schema as the original counter dataclass.  Wall time counts **backend
work only**: cache hits cost a dict lookup and are excluded (they are
counted separately), so ``wall_time_seconds`` no longer inflates with
the hit rate.
"""

from __future__ import annotations

import logging
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..core.packed import PackedRun, RunBatch, RunLayout
from ..core.probability import (
    DEFAULT_ENUMERATION_LIMIT,
    DEFAULT_TRIALS,
    EventColumns,
    EventProbabilities,
    evaluate,
)
from ..core.protocol import Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round
from ..obs import NULL_SPAN, AnySpan, MetricsRegistry, Obs, get_obs
from ..obs.runtime import monotonic
from .cache import EngineCache, InProcessCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..meanfield.counter import CounterRunSpec
    from ..meanfield.evaluate import CounterEvaluation

logger = logging.getLogger(__name__)

BACKENDS = ("auto", "reference", "vectorized", "meanfield")

#: Functions whose results the memo cache may store, by dotted
#: qualname.  Registration is a purity contract: these must be
#: deterministic, side-effect-free functions of their (immutable)
#: arguments — no globals, no argument mutation, no RNG or clock —
#: because a cache hit replays the stored value without re-running
#: them.  Rule RC005 of :mod:`repro.staticcheck` verifies the contract
#: statically; the Monte-Carlo paths are deliberately absent (their
#: results are never cached, see :meth:`Engine._pipeline`).
CACHEABLE_QUALNAMES: Tuple[str, ...] = (
    "repro.core.probability.exact_probabilities",
    "repro.engine.vectorized.evaluate_batch",
    "repro.engine.vectorized.evaluate_neighbor_batch",
    "repro.engine.vectorized.evaluate_packed_batch",
    "repro.meanfield.evaluate.evaluate_counter",
    "repro.meanfield.evaluate.evaluate_spec",
    "repro.protocols.ablations.NaiveCountingS.closed_form_probabilities",
    "repro.protocols.counting.CountingProtocol.closed_form_probabilities",
    "repro.protocols.deterministic.DeterministicProtocol.closed_form_probabilities",
    "repro.protocols.protocol_a.ProtocolA.closed_form_probabilities",
    "repro.protocols.protocol_m.ProtocolM.closed_form_probabilities",
    "repro.protocols.repeated_a.RepeatedA.closed_form_probabilities",
)

# Under ``auto``, batches smaller than this stay on the reference path.
# Measured per call (DESIGN.md §7, Routing), the kernel loses to the
# reference closed forms on one run of ``pair`` or ``path:4`` and wins
# on every measured shape from four runs up.
MIN_VECTORIZED_BATCH = 8

# FIFO memo-cache bound — generous for the run counts the experiments
# enumerate (tens of thousands) while keeping worst-case memory modest.
DEFAULT_CACHE_SIZE = 200_000

# Bound for the engine-internal scaled-evaluation memo (parametric
# counter specs are tiny, but sweeps can generate many of them).
SCALED_CACHE_SIZE = 4_096

#: One run as the pipeline carries it: packed under its topology's
#: layout, or the :class:`Run` itself when it does not fit the layout.
_Row = Union[PackedRun, Run]


def _keyed_rows(
    protocol: Protocol,
    topology: Topology,
    runs: Union[List[Run], RunBatch, PackedRun],
    method: str,
    trials: int,
) -> Tuple[List[_Row], List[Optional[tuple]]]:
    """The rows of a pipeline source, in result order, and their keys.

    A :class:`PackedRun` source stands for itself followed by its
    single-bit neighbors in bit order.  A list's runs are packed under
    the topology's layout where they fit.  Keys are the memo-cache
    keys of :meth:`Engine.cache_key`.
    """
    if isinstance(runs, RunBatch):
        rows: List[_Row] = [runs.packed(index) for index in range(len(runs))]
    elif isinstance(runs, PackedRun):
        flips = range(runs.layout.num_bits)
        rows = [runs] + [runs.with_bit_flipped(bit) for bit in flips]
    else:
        rows = []
        for run in runs:
            try:
                rows.append(PackedRun.from_run(topology, run))
            except ValueError:
                rows.append(run)  # off-layout: keyed and evaluated as itself
    try:
        prefix = (hash(protocol), protocol, topology)
    except TypeError:
        return rows, [None] * len(rows)  # unhashable protocol: skip memoization
    return rows, [
        (*prefix, row.num_rounds, row.bits, method, trials)
        if isinstance(row, PackedRun)
        else (*prefix, row, method, trials)
        for row in rows
    ]


def _as_run(row: _Row) -> Run:
    return row.unpack() if isinstance(row, PackedRun) else row


class EngineStats:
    """Read view over an engine's metrics registry.

    Keeps the attribute surface and ``as_dict`` schema of the original
    counter dataclass (``runs_evaluated`` counts every run requested,
    cache hits included; the per-backend counters count actual
    evaluations; ``wall_time_seconds`` is backend work only), while
    the registry remains the single source of truth — snapshots,
    merges, and JSON export come for free.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def _value(self, name: str):
        return self.registry.counter(name).value

    @property
    def runs_evaluated(self) -> int:
        return self._value("engine.runs_evaluated")

    @property
    def reference_evaluations(self) -> int:
        return self._value("engine.reference_evaluations")

    @property
    def vectorized_evaluations(self) -> int:
        return self._value("engine.vectorized_evaluations")

    @property
    def meanfield_evaluations(self) -> int:
        return self._value("engine.meanfield_evaluations")

    @property
    def cache_hits(self) -> int:
        return self._value("engine.cache.hit")

    @property
    def cache_misses(self) -> int:
        return self._value("engine.cache.miss")

    @property
    def batch_calls(self) -> int:
        return self._value("engine.batch_calls")

    @property
    def wall_time_seconds(self) -> float:
        return float(self._value("engine.wall_time_seconds"))

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "runs_evaluated": self.runs_evaluated,
            "reference_evaluations": self.reference_evaluations,
            "vectorized_evaluations": self.vectorized_evaluations,
            "meanfield_evaluations": self.meanfield_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "batch_calls": self.batch_calls,
            "wall_time_seconds": round(self.wall_time_seconds, 4),
        }


class EngineBusyError(RuntimeError):
    """Cache maintenance attempted while evaluations are in flight."""


@dataclass
class Engine:
    """Facade over the reference, vectorized and meanfield backends.

    **Thread affinity.** An engine instance is single-threaded by
    contract: evaluations (:meth:`evaluate`, :meth:`evaluate_many`,
    the pair fast paths) and cache maintenance (:meth:`clear_cache`,
    :meth:`reset`) must all run on one thread at a time.  The service
    tier honors this by running its engine on a dedicated
    single-thread executor.  The contract is enforced, not
    just documented: :meth:`clear_cache` and :meth:`reset` raise
    :class:`EngineBusyError` if any evaluation is in flight (on this
    or any other thread) instead of mutating the memo cache under a
    concurrent reader; :attr:`cache_len` is always safe to read.

    **Cache.** The memo cache is pluggable (``cache=`` takes any
    :class:`~repro.engine.cache.EngineCache`); by default a bounded
    FIFO :class:`~repro.engine.cache.InProcessCache` of ``cache_size``
    entries.  Only exact results are ever stored.
    """

    backend: str = "auto"
    cache_size: int = DEFAULT_CACHE_SIZE
    obs: Optional[Obs] = None
    cache: Optional[EngineCache] = field(default=None, repr=False)
    #: Read view over this engine's metrics, built on construction.
    stats: EngineStats = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.obs is None:
            # Own registry (per-engine stats isolation), shared process
            # tracer (one ``--trace`` captures every engine's spans).
            root = get_obs()
            self.obs = Obs(
                metrics=MetricsRegistry(),
                tracer=root.tracer,
                exec_trace=root.exec_trace,
            )
        metrics = self.obs.metrics
        self.stats = EngineStats(metrics)
        if self.cache is None:
            self.cache = InProcessCache(self.cache_size)
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        # Resolve hot-path metrics once; updates are attribute bumps.
        self._runs_counter = metrics.counter("engine.runs_evaluated")
        self._reference_counter = metrics.counter("engine.reference_evaluations")
        self._vectorized_counter = metrics.counter("engine.vectorized_evaluations")
        self._meanfield_counter = metrics.counter("engine.meanfield_evaluations")
        self._hit_counter = metrics.counter("engine.cache.hit")
        self._miss_counter = metrics.counter("engine.cache.miss")
        self._batch_counter = metrics.counter("engine.batch_calls")
        self._wall_counter = metrics.counter("engine.wall_time_seconds")
        self._latency_histogram = metrics.histogram("engine.evaluate.latency")
        self._mc_trials_counter = metrics.counter("mc.trials")
        # Scaled (parametric) evaluations return CounterEvaluation, not
        # EventProbabilities, so they cannot share the typed memo cache;
        # they get a small engine-internal FIFO keyed on the packed spec.
        self._scaled_cache: Dict[tuple, "CounterEvaluation"] = {}

    # -- cache ---------------------------------------------------------

    @staticmethod
    def cache_key(
        protocol: Protocol,
        topology: Topology,
        run: Run,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Optional[tuple]:
        """The memo-cache key for one evaluation, or None if unhashable.

        Public (and static: no engine required) so that a caller can
        tell whether two evaluations would land on the same cache line
        without evaluating anything.

        The run is keyed in **packed form** — ``(num_rounds, bits)``
        under the topology's :class:`~repro.core.packed.RunLayout` —
        so evaluations arriving as :class:`Run` objects and as
        :class:`~repro.core.packed.PackedRun` masks share cache lines.
        A run that does not fit the topology's layout (off-edge
        message, foreign vertex) falls back to keying the run object
        itself: such runs still reach the backend, which rejects or
        evaluates them with reference semantics, and their cache
        behavior is unchanged.
        """
        return _keyed_rows(protocol, topology, [run], method, trials)[1][0]

    @staticmethod
    def counter_cache_key(
        protocol: Protocol, spec: "CounterRunSpec"
    ) -> Optional[tuple]:
        """The memo key for one scaled (parametric) evaluation.

        Specs have no topology or ``Run`` — the run is keyed on its
        packed integer form, which encodes classes and deliveries
        completely — so two structurally identical specs share a line
        regardless of how they were built.
        """
        try:
            return (hash(protocol), protocol, "counter-spec", spec.packed())
        except TypeError:
            return None  # unhashable protocol: skip memoization

    @staticmethod
    def batch_key(
        protocol: Protocol,
        topology: Topology,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Optional[tuple]:
        """The batch-submission key: the run-independent cache-key prefix.

        Two scalar evaluations whose batch keys are equal (and not
        None) may be coalesced into a single :meth:`evaluate_many`
        call without changing any result — they share the protocol,
        topology, method, and trial count, so only their runs differ.
        This is the grouping hook the service micro-batcher uses.
        """
        try:
            return (hash(protocol), protocol, topology, method, trials)
        except TypeError:
            return None  # unhashable protocol: never coalesce

    @contextmanager
    def _evaluating(self) -> Iterator[None]:
        """Mark an evaluation in flight (guards cache maintenance)."""
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _check_not_busy(self, operation: str) -> None:
        with self._inflight_lock:
            inflight = self._inflight
        if inflight:
            raise EngineBusyError(
                f"{operation} with {inflight} evaluation(s) in flight: "
                "the memo cache must not be mutated under a concurrent "
                "reader (see the Engine thread-affinity contract)"
            )

    def _lookup(
        self,
        keys: Sequence[Optional[tuple]],
        results: List[Optional[EventProbabilities]],
    ) -> List[int]:
        """Fill cache hits into ``results``; return the indices that missed.

        Rows without a key (unhashable protocol) are neither looked up
        nor counted.
        """
        assert self.cache is not None
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = None if key is None else self.cache.get(key)
            if cached is not None:
                self._hit_counter.value += 1
                results[index] = cached
                continue
            if key is not None:
                self._miss_counter.value += 1
            pending.append(index)
        return pending

    def clear_cache(self) -> None:
        """Drop the memo cache (raises :class:`EngineBusyError` if
        evaluations are in flight on any thread)."""
        self._check_not_busy("clear_cache()")
        assert self.cache is not None
        self.cache.clear()
        self._scaled_cache.clear()

    def reset(self) -> None:
        """Zero the instrumentation and drop the memo cache.

        Called between experiment runs that share one
        :class:`~repro.experiments.common.Config`, so each report's
        engine note covers exactly one run (and repeated runs replay
        identically — no stale cache hits).  Metrics are zeroed in
        place, so resolved counter references — including this
        engine's :class:`EngineStats` view — stay valid; recorded
        trace spans are left alone (they belong to the session, not
        the engine).  Raises :class:`EngineBusyError` while
        evaluations are in flight, like :meth:`clear_cache`.
        """
        self._check_not_busy("reset()")
        self.obs.metrics.reset()
        assert self.cache is not None
        self.cache.clear()
        self._scaled_cache.clear()
        logger.debug(
            "engine reset: memo cache dropped, metrics zeroed (backend=%s)",
            self.backend,
        )

    @property
    def cache_len(self) -> int:
        """Entry count; safe to read concurrently with evaluations."""
        assert self.cache is not None
        return len(self.cache)

    # -- routing and bookkeeping --------------------------------------

    def _route(
        self,
        protocol: Protocol,
        topology: Topology,
        method: str,
        batch_size: int,
    ) -> str:
        """The backend that evaluates ``batch_size`` runs of one call.

        A caller demanding enumeration or Monte Carlo always gets the
        reference simulator.  Exact methods go to the counter
        abstraction under ``backend="meanfield"`` — unsupported pairs
        are *not* downgraded: :func:`repro.meanfield.evaluate_counter`
        raises a typed error naming the obstruction.  Otherwise they go
        to the numpy kernel wherever it evaluates the pair exactly —
        under ``vectorized`` always, under ``auto`` from
        :data:`MIN_VECTORIZED_BATCH` runs up — and to reference
        everywhere else.
        """
        if self.backend == "reference" or method not in ("auto", "closed-form"):
            return "reference"
        if self.backend == "meanfield":
            return "meanfield"
        if self.backend == "auto" and batch_size < MIN_VECTORIZED_BATCH:
            return "reference"
        from . import vectorized

        return "vectorized" if vectorized.supports(protocol, topology) else "reference"

    @contextmanager
    def _call(self, operation: str, **attributes: Any) -> Iterator[Any]:
        """One engine call: its span (yielded) and the in-flight guard."""
        with self.obs.tracer.span(operation, **attributes) as span, self._evaluating():
            yield span

    @contextmanager
    def _timed(self, span: AnySpan, runs: int, misses: int) -> Iterator[None]:
        """Time one call's backend work; put its cache split on ``span``.

        A call whose runs were all cache hits did no backend work: it
        adds no wall time and no latency sample.
        """
        started = monotonic()
        yield
        if misses:
            elapsed = monotonic() - started
            self._wall_counter.value += elapsed
            self._latency_histogram.observe(elapsed)
        if span is not NULL_SPAN:
            span.set(cache_hits=runs - misses, cache_misses=misses)

    # -- evaluation ----------------------------------------------------

    def evaluate(
        self,
        protocol: Protocol,
        topology: Topology,
        run: Run,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
        rng: Optional[random.Random] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> EventProbabilities:
        """Cached scalar evaluation (reference semantics): a one-run batch."""
        results = self._pipeline(
            "engine.evaluate",
            protocol,
            topology,
            run,
            method,
            trials,
            rng,
            enumeration_limit,
        )
        return cast(List[EventProbabilities], results)[0]

    def evaluate_many(
        self,
        protocol: Protocol,
        topology: Topology,
        runs: Sequence[Run],
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
        rng: Optional[random.Random] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> List[EventProbabilities]:
        """Evaluate a batch of runs, in order, against one protocol.

        Semantically equivalent to mapping :meth:`evaluate` over
        ``runs`` (same results, same rng consumption for Monte-Carlo
        protocols); the vectorized backend and the memo cache only
        change how fast the answers arrive.  Packed runs go through
        :meth:`evaluate_packed_many` instead.
        """
        runs = list(runs)
        results = self._pipeline(
            "engine.evaluate_many",
            protocol,
            topology,
            runs,
            method,
            trials,
            rng,
            enumeration_limit,
            runs=len(runs),
        )
        return cast(List[EventProbabilities], results)

    def evaluate_packed_many(
        self,
        protocol: Protocol,
        topology: Topology,
        batch: RunBatch,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> EventColumns:
        """Evaluate a :class:`RunBatch` as result columns, in batch order.

        The bulk entry point of every search stage but greedy
        refinement.  When the vectorized kernel takes the batch, its
        words feed the kernel directly and its columns are the answer —
        no ``Run`` and no per-run result object exists at any point —
        and the memo cache is bypassed: a search batch is fresh, so
        per-run memo traffic would only add overhead and evict
        genuinely reusable entries.  On any other backend the batch is
        cached and evaluated like :meth:`evaluate_many` over its
        unpacked runs and the rows are stacked, so the call is total
        either way and the columns are bit-identical across backends.
        """
        return cast(
            EventColumns,
            self._pipeline(
                "engine.evaluate_packed_many",
                protocol,
                topology,
                batch,
                method,
                trials,
                runs=len(batch),
            ),
        )

    def evaluate_neighbors(
        self,
        protocol: Protocol,
        topology: Topology,
        parent: PackedRun,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> EventColumns:
        """A run and all of its single-bit neighbors, as result columns.

        Entry 0 is ``parent`` and entry ``1 + b`` is ``parent`` with
        bit ``b`` flipped.  When the vectorized kernel takes the
        neighborhood it is evaluated incrementally — see
        :func:`repro.engine.vectorized.evaluate_neighbor_batch`; each
        neighbor re-derives its counts from the parent's per-round
        state instead of simulating from scratch — and nothing is
        stored.  On any other backend the parent and its neighbors are
        one cached batch.
        """
        return cast(
            EventColumns,
            self._pipeline(
                "engine.evaluate_neighbors",
                protocol,
                topology,
                parent,
                method,
                trials,
                neighbors=parent.layout.num_bits,
            ),
        )

    def _pipeline(
        self,
        operation: str,
        protocol: Protocol,
        topology: Topology,
        source: Union[Run, List[Run], RunBatch, PackedRun],
        method: str,
        trials: int,
        rng: Optional[random.Random] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
        **attributes: Any,
    ) -> Union[List[EventProbabilities], EventColumns]:
        """Evaluate ``source`` in order: the one path behind every method.

        ``source`` is one run (a scalar call), a list of runs, a
        :class:`RunBatch`, or a :class:`PackedRun` standing for itself
        followed by its single-bit neighbors in bit order.  Runs are
        packed once, on entry: the packed form is both their cache key
        and the kernel's input.  Runs are looked up in the memo cache, the
        misses go to the backend :meth:`_route` picks for their count,
        duplicates among them are evaluated once, and exact results
        are stored; a list returns one result per run.

        Packed input — a batch or a neighborhood — is fresh by
        construction, so it is routed before any lookup and returns
        :class:`EventColumns`.  When the kernel takes it, the kernel's
        columns are the answer: nothing is looked up, deduplicated or
        stored.  Any other backend meets the cache with packed input as
        with a list, and the rows are stacked.
        """
        runs: Union[List[Run], RunBatch, PackedRun] = (
            [source] if isinstance(source, Run) else source
        )
        size = 1 + runs.layout.num_bits if isinstance(runs, PackedRun) else len(runs)
        with self._call(
            operation, protocol=protocol.name, method=method, **attributes
        ) as span:
            self._runs_counter.value += size
            if not isinstance(source, Run):
                self._batch_counter.value += 1
            route: Optional[str] = None
            if not isinstance(runs, list):
                route = self._route(protocol, topology, method, size)
                if route == "vectorized":
                    span.set(backend=route)
                    with self._timed(span, size, size):
                        from . import vectorized

                        if isinstance(runs, RunBatch):
                            columns = vectorized.evaluate_packed_batch(
                                protocol, topology, runs
                            )
                        else:
                            columns = vectorized.evaluate_neighbor_batch(
                                protocol, topology, runs
                            )[0]
                        self._vectorized_counter.value += size
                    return columns
            results: List[Optional[EventProbabilities]] = [None] * size
            rows, keys = _keyed_rows(protocol, topology, runs, method, trials)
            pending = self._lookup(keys, results)
            if route is None:
                route = self._route(protocol, topology, method, len(pending))
            span.set(backend=route)
            with self._timed(span, size, len(pending)):
                if route == "vectorized":
                    self._kernel(protocol, topology, rows, pending, results)
                else:
                    # In order, so Monte-Carlo runs consume the rng as
                    # a serial loop would; exact results serve repeats.
                    done: Dict[tuple, EventProbabilities] = {}
                    for index in pending:
                        key = keys[index]
                        if key in done:
                            results[index] = done[key]
                            continue
                        run = _as_run(
                            runs[index] if isinstance(runs, list) else rows[index]
                        )
                        if route == "meanfield":
                            from ..meanfield import evaluate_counter

                            result = evaluate_counter(protocol, topology, run)
                            self._meanfield_counter.value += 1
                        else:
                            result = evaluate(
                                protocol,
                                topology,
                                run,
                                method=method,
                                trials=trials,
                                rng=rng,
                                enumeration_limit=enumeration_limit,
                            )
                            self._reference_counter.value += 1
                            if result.method == "monte-carlo" and result.trials:
                                self._mc_trials_counter.inc(result.trials)
                        if key is not None and result.is_exact():
                            done[key] = result
                        results[index] = result
                assert self.cache is not None
                for index in pending:
                    key, stored = keys[index], results[index]
                    if key is not None and stored is not None and stored.is_exact():
                        self.cache.put(key, stored)
            if isinstance(source, Run) and pending and self.obs.exec_trace:
                if self.obs.tracer.enabled:
                    from ..obs.exec_trace import trace_execution

                    trace_execution(protocol, topology, source, self.obs.tracer)
            filled = cast(List[EventProbabilities], results)  # every slot filled
            if isinstance(runs, list):
                return filled
            return EventColumns.from_rows(filled, topology.num_processes)

    def _kernel(
        self,
        protocol: Protocol,
        topology: Topology,
        rows: List[_Row],
        pending: Sequence[int],
        results: List[Optional[EventProbabilities]],
    ) -> None:
        """Fill ``results[pending]`` of a list of runs from the kernel."""
        from . import vectorized

        # Deduplicate, and batch by layout: one horizon per kernel call.
        groups: Dict[RunLayout, Dict[int, List[int]]] = {}
        for index in pending:
            row = rows[index]
            if not isinstance(row, PackedRun):
                # Off-layout: packing raises why the kernel cannot take it.
                row = PackedRun.from_run(topology, row)
            groups.setdefault(row.layout, {}).setdefault(row.bits, []).append(index)
        for layout, by_bits in groups.items():
            batch = RunBatch.from_bits(layout, by_bits.keys())
            columns = vectorized.evaluate_packed_batch(protocol, topology, batch)
            self._vectorized_counter.value += len(by_bits)
            for indices, result in zip(by_bits.values(), columns.rows()):
                for index in indices:
                    results[index] = result

    # -- scaled (parametric) evaluation --------------------------------

    def evaluate_scaled(
        self, protocol: Protocol, spec: "CounterRunSpec"
    ) -> "CounterEvaluation":
        """Evaluate a parametric counter spec — any ``m``, no graph.

        The large-m entry point behind ``repro scale-sweep`` and E17:
        cost is ``O(rounds * classes**2)`` regardless of
        ``spec.num_processes``, and results are memoized in an
        engine-internal FIFO keyed on the packed spec (the typed memo
        cache stores :class:`~repro.core.probability.EventProbabilities`
        only).  Available on every backend — the counter kernel is the
        *only* evaluator that exists at ``m = 10**6``.
        """
        from ..meanfield import evaluate_spec

        with self._call(
            "engine.evaluate_scaled",
            protocol=protocol.name,
            num_processes=spec.num_processes,
        ) as span:
            self._runs_counter.value += 1
            key = self.counter_cache_key(protocol, spec)
            if key is not None:
                cached = self._scaled_cache.get(key)
                if cached is not None:
                    self._hit_counter.value += 1
                    return cached
                self._miss_counter.value += 1
            with self._timed(span, runs=1, misses=1):
                result = evaluate_spec(protocol, spec)
                self._meanfield_counter.value += 1
            if key is not None:
                while len(self._scaled_cache) >= SCALED_CACHE_SIZE:
                    self._scaled_cache.pop(next(iter(self._scaled_cache)))
                self._scaled_cache[key] = result
            return result

    # -- weak-adversary fast paths ------------------------------------

    def pair_weak_estimate_s(
        self,
        num_rounds: Round,
        epsilon: float,
        loss_probability: float,
        samples: int,
        rng,
    ):
        """Vectorized two-general ``E[L]``/``E[U]`` sweep for Protocol S."""
        from . import vectorized

        return self._pair_weak_estimate(
            "S",
            num_rounds,
            samples,
            lambda: vectorized.pair_protocol_s_weak_estimate(
                num_rounds, epsilon, loss_probability, samples, rng
            ),
        )

    def pair_weak_estimate_w(
        self,
        num_rounds: Round,
        threshold: int,
        loss_probability: float,
        samples: int,
        rng,
    ):
        """Vectorized two-general ``E[L]``/``E[U]`` sweep for Protocol W."""
        from . import vectorized

        return self._pair_weak_estimate(
            "W",
            num_rounds,
            samples,
            lambda: vectorized.pair_protocol_w_weak_estimate(
                num_rounds, threshold, loss_probability, samples, rng
            ),
        )

    def _pair_weak_estimate(
        self,
        protocol_name: str,
        num_rounds: Round,
        samples: int,
        estimate: Callable[[], Any],
    ) -> Any:
        """Bookkeeping for one two-general Monte-Carlo sweep."""
        with self._call(
            "engine.pair_weak_estimate",
            protocol=protocol_name,
            samples=samples,
            num_rounds=num_rounds,
        ) as span:
            self._runs_counter.inc(samples)
            self._vectorized_counter.inc(samples)
            self._mc_trials_counter.inc(samples)
            with self._timed(span, samples, samples):
                return estimate()


_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine used when callers do not pass their own."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine
