"""Load generator: drive a running server, record SLO evidence.

``repro bench-serve`` front-ends :func:`run_bench`: open
``concurrency`` keep-alive connections to one server, push
``requests`` evaluation requests through them as fast as the server
answers, then write a self-describing ``BENCH_serve.json`` artifact
(``schema_version`` 5: UTC timestamp, git SHA, CPU count, one
``result`` block — p50/p95/p99 over *served* requests, shed rate, and
the ``service.batch.size`` maximum that proves the micro-batcher
coalesced — plus an optional ``tracing`` block measuring the audit
trail's p99 overhead, a tracing-off vs. tracing-on pair of runs).

Latency accounting is deliberate: a ``429`` shed with ``Retry-After``
is the server doing its job *fast*, so sheds are counted separately
(``requests_rejected`` / ``requests_rejected_with_retry_after``) and
**excluded** from the latency percentiles — mixing millisecond
rejections into the served distribution would flatter p99 exactly
when the server is overloaded.

The default workload is deliberately coalescable: every request
evaluates the same Protocol S / topology / trials spec on a rotating
run (``cut:K``), so concurrent requests share a batch key and differ
only in the run — the exact shape the batcher exists for.
``--groups G`` rotates across G distinct protocols (coalescable
within a group); ``--spread`` makes every request a distinct batch
key to measure the uncoalesced path.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..obs.audit import load_audit_dir
from ..obs.runtime import monotonic, utc_now_isoformat
from .config import ServiceConfig
from .http import ClientConnection, request_once
from .testing import BackgroundServer

BENCH_SCHEMA_VERSION = 5

#: Percentiles reported in the artifact.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class LoadgenOptions:
    """Workload shape for one bench run."""

    requests: int = 200
    concurrency: int = 16
    rounds: int = 8
    protocol: str = "S:0.25"
    topology: str = "pair"
    spread: bool = False  # vary the protocol per request (defeats coalescing)
    groups: int = 1  # rotate across this many distinct batch groups
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")


@dataclass
class LoadReport:
    """Everything one load run measured.

    ``latencies`` holds **served (200) requests only** — sheds and
    failures are counted but never enter the percentile math.
    """

    requests_total: int = 0
    requests_ok: int = 0
    requests_rejected: int = 0
    requests_rejected_with_retry_after: int = 0
    requests_failed: int = 0
    duration_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    server_metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests_total / self.duration_seconds

    @property
    def served_throughput_rps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests_ok / self.duration_seconds

    @property
    def shed_rate(self) -> float:
        if self.requests_total <= 0:
            return 0.0
        return self.requests_rejected / self.requests_total

    # -- accumulation --------------------------------------------------

    def note_served(self, seconds: float) -> None:
        self.requests_ok += 1
        self.latencies.append(seconds)

    def note_rejected(self, had_retry_after: bool) -> None:
        self.requests_rejected += 1
        if had_retry_after:
            self.requests_rejected_with_retry_after += 1

    def note_failed(self) -> None:
        self.requests_failed += 1

    def finalize(self) -> None:
        self.requests_total = (
            self.requests_ok + self.requests_rejected + self.requests_failed
        )

    # -- summaries -----------------------------------------------------

    def latency_summary(self) -> Dict[str, float]:
        ordered = sorted(self.latencies)
        if not ordered:
            return {}
        summary = {
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
        }
        for q in PERCENTILES:
            summary[f"p{q:g}"] = percentile(ordered, q)
        return summary


def percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sample list."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = math.ceil(q / 100.0 * len(sorted_samples))
    index = min(len(sorted_samples) - 1, max(0, rank - 1))
    return sorted_samples[index]


def _request_payload(options: LoadgenOptions, index: int) -> Dict[str, Any]:
    protocol = options.protocol
    if options.spread:
        # Rotate epsilon so every request is a distinct batch key.
        protocol = f"S:{0.05 + 0.9 * ((index % 17) / 17.0):.4f}"
    elif options.groups > 1:
        # A few distinct batch groups, each coalescable on its own.
        group = index % options.groups
        protocol = f"S:{0.05 + 0.9 * (group / options.groups):.4f}"
    return {
        "protocol": protocol,
        "topology": options.topology,
        "rounds": options.rounds,
        "run": f"cut:{1 + index % options.rounds}",
        "seed": options.seed,
    }


async def _scrape_metrics(host: str, port: int, report: LoadReport) -> None:
    """One last scrape for the server's own accounting of the run."""
    try:
        status, _, payload = await request_once(host, port, "GET", "/metrics")
    except (ConnectionError, OSError):
        return
    if status == 200:
        report.server_metrics = dict(payload.get("metrics", {}))


async def run_load(host: str, port: int, options: LoadgenOptions) -> LoadReport:
    """Drive a live server; returns the measured :class:`LoadReport`."""
    report = LoadReport()
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        connection: Optional[ClientConnection] = None
        try:
            while next_index < options.requests:
                payload = _request_payload(options, next_index)
                next_index += 1
                if connection is None:
                    connection = await ClientConnection.open(host, port)
                started = monotonic()
                try:
                    status, headers, _ = await connection.request(
                        "POST", "/v1/evaluate", payload
                    )
                except (ConnectionError, OSError):
                    report.note_failed()
                    await connection.close()
                    connection = None
                    continue
                elapsed = monotonic() - started
                if status == 200:
                    report.note_served(elapsed)
                elif status == 429:
                    report.note_rejected("retry-after" in headers)
                else:
                    report.note_failed()
        finally:
            if connection is not None:
                await connection.close()

    started = monotonic()
    await asyncio.gather(*(worker() for _ in range(options.concurrency)))
    report.duration_seconds = monotonic() - started
    report.finalize()
    await _scrape_metrics(host, port, report)
    return report


def _git_sha() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def _batch_size_max(metrics: Dict[str, Any]) -> Optional[float]:
    """The coalescing evidence: max observed micro-batch size."""
    entry = metrics.get("service.batch.size")
    if isinstance(entry, dict) and entry.get("type") == "histogram":
        value = entry.get("max")
        if isinstance(value, (int, float)):
            return float(value)
    return None


def result_block(report: LoadReport) -> Dict[str, Any]:
    """The artifact's ``result`` block: SLO + shed + coalescing."""
    return {
        "duration_seconds": report.duration_seconds,
        "requests_total": report.requests_total,
        "requests_ok": report.requests_ok,
        "requests_rejected": report.requests_rejected,
        "requests_rejected_with_retry_after": (
            report.requests_rejected_with_retry_after
        ),
        "requests_failed": report.requests_failed,
        "shed_rate": report.shed_rate,
        "throughput_rps": report.throughput_rps,
        "served_throughput_rps": report.served_throughput_rps,
        "latency_seconds": report.latency_summary(),
        "batch_size_max": _batch_size_max(report.server_metrics),
    }


def bench_payload(
    result: Dict[str, Any],
    options: LoadgenOptions,
    target: str,
    server_metrics: Optional[Dict[str, Any]] = None,
    tracing: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``BENCH_serve.json`` artifact body (schema v5).

    ``result`` is the :func:`result_block` of the measured run.
    ``cpu_count`` records the hardware it was measured on.
    ``tracing`` is the audit-trail overhead block from
    :func:`_tracing_overhead_entry`, present when the bench measured
    it.
    """
    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at_utc": utc_now_isoformat(),
        "git_sha": _git_sha(),
        "benchmark": "serve",
        "target": target,
        "cpu_count": os.cpu_count(),
        "workload": {
            "requests": options.requests,
            "concurrency": options.concurrency,
            "rounds": options.rounds,
            "protocol": options.protocol,
            "topology": options.topology,
            "spread": options.spread,
            "groups": options.groups,
            "seed": options.seed,
        },
        "result": result,
    }
    if tracing is not None:
        payload["tracing"] = tracing
    if server_metrics is not None:
        payload["metrics"] = server_metrics
    return payload


def write_bench_artifact(path: str, payload: Dict[str, Any]) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def run_bench(
    options: LoadgenOptions,
    host: Optional[str] = None,
    port: Optional[int] = None,
    output: Optional[str] = None,
    server_config: Optional[ServiceConfig] = None,
    trace_sample_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """One full bench: external server if addressed, else self-contained.

    With ``host``/``port`` the load targets an already-running server.
    Otherwise a :class:`BackgroundServer` (configured by
    ``server_config``) is stood up on an ephemeral port, loaded, and
    drained.  ``trace_sample_rate`` adds the ``tracing`` overhead
    block (self-contained benches only: the comparison needs to
    restart the server with tracing off, which an external target
    does not allow).  Returns the artifact payload; also writes it to
    ``output`` when given.
    """
    tracing: Optional[Dict[str, Any]] = None
    if host is not None and port is not None:
        if trace_sample_rate is not None:
            raise ValueError(
                "trace_sample_rate requires a self-contained bench; the "
                "overhead comparison restarts the server with tracing off"
            )
        target = f"http://{host}:{port}"
        report = asyncio.run(run_load(host, port, options))
    else:
        base = server_config if server_config is not None else ServiceConfig()
        target = "in-process server"
        with BackgroundServer(replace(base, port=0)) as background:
            report = asyncio.run(
                run_load(background.host, background.port, options)
            )
        if trace_sample_rate is not None:
            tracing = _tracing_overhead_entry(base, options, trace_sample_rate)
    payload = bench_payload(
        result_block(report),
        options,
        target,
        server_metrics=report.server_metrics,
        tracing=tracing,
    )
    if output:
        write_bench_artifact(output, payload)
    return payload


def _tracing_overhead_entry(
    base: ServiceConfig, options: LoadgenOptions, sample_rate: float
) -> Dict[str, Any]:
    """Tracing-off vs. tracing-on, same workload, same server config.

    The baseline run disables sampling and the audit directory
    entirely; the traced run samples at ``sample_rate`` into a
    temporary audit directory (counted, then discarded).  The ratio of
    served p99s is the cost of the audit trail — the number
    EXPERIMENTS.md holds under 10%.
    """
    baseline_config = replace(
        base, port=0, trace_sample_rate=0.0, audit_dir=None
    )
    with BackgroundServer(baseline_config) as background:
        baseline = asyncio.run(
            run_load(background.host, background.port, options)
        )
    with tempfile.TemporaryDirectory(prefix="repro-audit-") as audit_dir:
        traced_config = replace(
            base,
            port=0,
            trace_sample_rate=sample_rate,
            audit_dir=audit_dir,
        )
        with BackgroundServer(traced_config) as background:
            traced = asyncio.run(
                run_load(background.host, background.port, options)
            )
        audit_records = len(load_audit_dir(audit_dir))
    baseline_p99 = baseline.latency_summary().get("p99")
    traced_p99 = traced.latency_summary().get("p99")
    overhead: Optional[float] = None
    if baseline_p99 and traced_p99 is not None:
        overhead = traced_p99 / baseline_p99 - 1.0
    return {
        "sample_rate": sample_rate,
        "baseline_p99_seconds": baseline_p99,
        "traced_p99_seconds": traced_p99,
        "p99_overhead_ratio": overhead,
        "audit_records": audit_records,
    }
