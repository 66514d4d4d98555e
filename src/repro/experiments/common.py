"""Shared infrastructure for the experiment runners.

Every experiment is a function ``run(config) -> ExperimentReport``.  A
:class:`Config` carries the sweep sizes so benchmarks can run a quick
but representative configuration while examples and EXPERIMENTS.md use
the full one.  It also owns the per-experiment evaluation
:class:`~repro.engine.Engine` (backend choice, memo cache,
instrumentation) and the labeled child rng streams every stochastic
sweep draws from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional

from ..adversary.strong import StrongAdversary
from ..analysis.report import ExperimentReport
from ..core.packed import (
    RunBatch,
    layout_for,
    orbit_representatives,
    orbit_tables,
)
from ..core.run import enumerate_runs
from ..core.seeding import spawn_generator, spawn_random
from ..core.topology import Topology
from ..engine import Engine
from ..obs import MetricsRegistry, Obs, Tracer
from ..obs.runtime import monotonic


@dataclass(frozen=True)
class Config:
    """Knobs shared across experiments.

    ``scale`` selects preset sweep sizes: ``"quick"`` keeps every
    experiment under a few seconds (benchmark default), ``"full"`` is
    the configuration EXPERIMENTS.md reports.  ``backend`` selects the
    evaluation engine backend (``auto`` / ``reference`` /
    ``vectorized``); backends are bit-identical on supported
    protocols, so claim checks do not depend on the choice.

    The observability knobs never change what an experiment computes —
    only what gets recorded while it runs: ``tracing`` records spans
    (implied by a non-``None`` ``trace_path``), ``exec_trace``
    additionally records per-round protocol events for every scalar
    evaluation, and the two paths are where ``--trace`` / ``--metrics``
    exports land.
    """

    scale: str = "quick"
    seed: int = 0
    monte_carlo_trials: int = 4_000
    backend: str = "auto"
    tracing: bool = False
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    exec_trace: bool = False

    def __post_init__(self) -> None:
        if self.scale not in ("quick", "full"):
            raise ValueError(f"unknown scale {self.scale!r}")

    @property
    def quick(self) -> bool:
        """True for the fast benchmark-sized sweeps."""
        return self.scale == "quick"

    def rng(self, label: object = "root") -> random.Random:
        """A deterministic generator on the child stream for ``label``.

        Distinct labels yield independent streams derived from
        ``self.seed`` (see :mod:`repro.core.seeding`); the same label
        always replays the same stream.  Call sites that used to share
        the root seed — and therefore replayed identical randomness —
        now pass their own label.
        """
        return spawn_random(self.seed, label)

    def generator(self, label: object = "root"):
        """The numpy counterpart of :meth:`rng` (same child streams)."""
        return spawn_generator(self.seed, label)

    def obs(self) -> Obs:
        """This config's observability bundle (one per Config instance).

        Owns the metrics registry the engine and searches write into
        and the tracer the ``--trace`` export drains; sharing one
        bundle across every call site within an experiment is what
        makes the exported span tree and metrics snapshot coherent.
        """
        cached = getattr(self, "_obs", None)
        if cached is None:
            cached = Obs(
                metrics=MetricsRegistry(),
                tracer=Tracer(
                    enabled=self.tracing or self.trace_path is not None
                ),
                exec_trace=self.exec_trace,
            )
            object.__setattr__(self, "_obs", cached)
        return cached

    def engine(self) -> Engine:
        """This config's evaluation engine (one per Config instance).

        Cached so every call site within an experiment shares the memo
        cache and the instrumentation counters.
        """
        cached = getattr(self, "_engine", None)
        if cached is None:
            cached = Engine(backend=self.backend, obs=self.obs())
            object.__setattr__(self, "_engine", cached)
        return cached

    def pick(self, quick_value, full_value):
        """Scale-dependent parameter selection."""
        return quick_value if self.quick else full_value


def small_topologies(config: Config) -> List[tuple]:
    """(name, topology) pairs for multi-process sweeps."""
    families = [
        ("pair", Topology.pair()),
        ("path-3", Topology.path(3)),
    ]
    if not config.quick:
        families.extend(
            [
                ("ring-4", Topology.ring(4)),
                ("star-4", Topology.star(4)),
                ("complete-4", Topology.complete(4)),
                ("path-5", Topology.path(5)),
            ]
        )
    return families


def new_report(experiment_id: str, title: str) -> ExperimentReport:
    """A fresh, passing report for one experiment."""
    return ExperimentReport(experiment_id=experiment_id, title=title)


def assert_in_report(
    report: ExperimentReport, condition: bool, message: str
) -> bool:
    """Record a failed check on the report instead of raising."""
    if not condition:
        report.fail(message)
    return condition


def packed_kernel_benchmark(
    report: ExperimentReport,
    config: Config,
    sample: int = 256,
    chunk: int = 4_096,
) -> None:
    """Time the packed orbit-reduced kernel against per-run evaluation.

    Runs on a fixed, fully symmetric instance — complete-3, Protocol W,
    all inputs present (4096 message patterns, automorphism group S3) —
    so the number is comparable across experiments and commits:

    * ``legacy_seconds`` — scalar per-run evaluation of ``sample``
      runs on a fresh reference engine, extrapolated to the full space
      (the pre-packed data path);
    * ``packed_seconds`` — one orbit-reduced sweep on the exhaustive
      search's path: the adversary's packed batches
      (:meth:`StrongAdversary.enumerate_packed`), batch-wise orbit
      reduction (:func:`~repro.core.packed.orbit_representatives`,
      whose orbit sizes are the weights) and chunked
      :meth:`Engine.evaluate_packed_many` result columns;
    * ``kernel_speedup`` — their ratio, with
      ``symmetry_reduction_factor`` reporting how much of it the orbit
      reduction contributed.

    The sweep is checked, not just timed: the orbit-weighted aggregate
    ``sum(|orbit| · Pr[PA])`` must equal the unreduced packed sweep's
    aggregate bit-for-bit tolerance, and a mismatch fails the report.
    Results land in ``report.metadata["packed_kernel"]`` (picked up by
    ``BENCH_<eX>.json``).
    """
    from ..protocols.weak_adversary import ProtocolW

    topology = Topology.complete(3)
    num_rounds = 2
    protocol = ProtocolW(2)
    sample = config.pick(sample, 4 * sample)  # full scale: tighter estimate
    inputs = frozenset(topology.processes)
    layout = layout_for(topology, num_rounds)
    space = 2**layout.num_message_bits

    # Legacy baseline: the scalar per-run path on a fresh engine (no
    # memo cache, no kernel), extrapolated from a sample of the space.
    reference = Engine(backend="reference")
    sample_runs = list(
        itertools.islice(enumerate_runs(topology, num_rounds, inputs), sample)
    )
    started = monotonic()
    reference.evaluate_many(protocol, topology, sample_runs)
    legacy_sample_seconds = monotonic() - started
    legacy_seconds = legacy_sample_seconds * (space / len(sample_runs))

    # Packed sweep: the exhaustive search's array path — the space in
    # packed batches, orbit-reduced batch by batch, representatives
    # through the kernel as result columns, weighted by orbit size.
    adversary = StrongAdversary(fixed_inputs=inputs)
    vectorized = Engine(backend="vectorized")
    started = monotonic()
    tables = orbit_tables(topology, num_rounds, (), inputs)
    batches = adversary.enumerate_packed(topology, num_rounds, chunk=chunk)
    reps, sizes = orbit_representatives(
        layout, (batch.words[:, 0] for batch in batches), tables
    )
    representatives = len(reps)
    weighted = 0.0
    for start in range(0, representatives, chunk):
        columns = vectorized.evaluate_packed_many(
            protocol, topology, RunBatch(layout, reps[start : start + chunk, None])
        )
        weighted += float(sizes[start : start + chunk] @ columns.pr_partial_attack)
    packed_seconds = monotonic() - started

    # Parity: the same aggregate from the unreduced packed sweep.
    full = 0.0
    for batch in adversary.enumerate_packed(topology, num_rounds, chunk=chunk):
        columns = vectorized.evaluate_packed_many(protocol, topology, batch)
        full += float(columns.pr_partial_attack.sum())
    values_match = abs(weighted - full) < 1e-9

    speedup = legacy_seconds / packed_seconds if packed_seconds > 0 else None
    reduction = space / representatives
    report.metadata["packed_kernel"] = {
        "instance": (
            f"{topology.describe()} N={num_rounds} {protocol.name} "
            f"inputs={sorted(inputs)}"
        ),
        "run_space": space,
        "orbit_representatives": representatives,
        "symmetry_reduction_factor": reduction,
        "legacy_sample_runs": len(sample_runs),
        "legacy_seconds": legacy_seconds,
        "packed_seconds": packed_seconds,
        "kernel_speedup": speedup,
        "values_match": values_match,
    }
    assert_in_report(
        report,
        values_match,
        "packed kernel parity failure: orbit-weighted aggregate "
        f"{weighted!r} != unreduced aggregate {full!r}",
    )
    report.add_note(
        "packed kernel: {space} runs as {reps} orbit representatives "
        "({reduction:.1f}x reduction), {speedup:.0f}x faster than the "
        "per-run path".format(
            space=space,
            reps=representatives,
            reduction=reduction,
            speedup=speedup if speedup is not None else float("nan"),
        )
    )


def attach_engine_stats(report: ExperimentReport, config: Config) -> None:
    """Record the experiment's engine instrumentation on its report.

    Written into ``report.metadata`` (machine-readable, picked up by
    the benchmark JSON artifacts) and summarized as a note in the
    rendered text.
    """
    engine = config.engine()
    stats = engine.stats.as_dict()
    report.metadata["engine"] = {"backend": engine.backend, **stats}
    # Derived rate as a gauge so the raw metrics export is
    # self-contained, then the full registry snapshot (engine.*,
    # search.*, mc.* and the latency histogram) for BENCH_*.json.
    engine.obs.metrics.gauge("engine.cache.hit_rate").set(
        engine.stats.cache_hit_rate
    )
    report.metadata["metrics"] = engine.obs.metrics.snapshot()
    report.add_note(
        "engine: backend={backend}, runs evaluated={runs}, "
        "vectorized={vec}, cache hit rate={rate:.1%}".format(
            backend=engine.backend,
            runs=stats["runs_evaluated"],
            vec=stats["vectorized_evaluations"],
            rate=engine.stats.cache_hit_rate,
        )
    )
