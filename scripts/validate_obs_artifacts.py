#!/usr/bin/env python
"""Validate observability artifacts against their documented schemas.

Usage::

    python scripts/validate_obs_artifacts.py --trace trace.jsonl \
        --metrics metrics.json

Checks the ``--trace`` JSONL export (meta line, span records,
parent/child consistency), the ``--metrics`` JSON export
(schema_version, per-metric shape, histogram bucket invariants) as
documented in DESIGN.md §8, the ``--bench-serve`` artifact
(schema_version 5: provenance stamps, CPU count, the ``result`` SLO
block with served-only latency percentiles and shed-rate arithmetic,
the embedded metrics snapshot, and — when present — the ``tracing``
overhead block) from DESIGN.md §10 and §12, the ``--bench-e17``
artifact (the m-scaling curve at 10^3..10^6 processes with the
Theorem 6.8 floor and per-point wall budget, plus the mean-field
envelope coverage block) from DESIGN.md §15, and ``--audit`` request
audit logs (per-file meta line, span record shape, known stages) from
DESIGN.md §12.  Exits
non-zero with a message per violation — CI runs this against the
artifacts it uploads so schema drift fails the build instead of
silently shipping.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

TRACE_SCHEMA_VERSION = 1
METRICS_SCHEMA_VERSION = 1
BENCH_SERVE_SCHEMA_VERSION = 5
BENCH_E17_SCHEMA_VERSION = 3
AUDIT_SCHEMA_VERSION = 1

#: The m-scaling grid BENCH_e17.json must cover, and the per-point
#: single-core wall budget (E17's acceptance criterion).
BENCH_E17_GRID = (10**3, 10**4, 10**5, 10**6)
BENCH_E17_WALL_BUDGET_SECONDS = 60.0

AUDIT_STAGES = {
    "admission",
    "batch",
    "engine",
    "worker",
    "response",
}


def _fail(errors, message):
    errors.append(message)


def validate_trace(path: str, errors: list) -> int:
    """Validate a span-trace JSONL file; returns the span count."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        _fail(errors, f"{path}: empty trace file")
        return 0
    meta = json.loads(lines[0])
    if meta.get("kind") != "meta":
        _fail(errors, f"{path}: first line must be the meta record")
    if meta.get("schema_version") != TRACE_SCHEMA_VERSION:
        _fail(
            errors,
            f"{path}: schema_version {meta.get('schema_version')!r}, "
            f"expected {TRACE_SCHEMA_VERSION}",
        )
    if meta.get("clock") != "perf_counter" or meta.get("unit") != "seconds":
        _fail(errors, f"{path}: unexpected clock/unit in meta: {meta}")
    span_ids = set()
    spans = 0
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        kind = record.get("kind")
        if kind not in ("span", "event"):
            _fail(errors, f"{path}: unknown record kind {kind!r}")
            continue
        if kind == "event":
            if "name" not in record or "time" not in record:
                _fail(errors, f"{path}: malformed event: {record}")
            continue
        spans += 1
        for field in ("span_id", "name", "start", "end", "duration", "depth"):
            if field not in record:
                _fail(
                    errors,
                    f"{path}: span missing {field!r}: {record.get('name')}",
                )
        span_ids.add(record.get("span_id"))
        if record.get("end") is not None and record.get("start") is not None:
            if record["end"] < record["start"]:
                _fail(
                    errors,
                    f"{path}: span {record.get('name')!r} ends before it "
                    "starts",
                )
    for record in records:
        parent = record.get("parent_id")
        if parent is not None and parent not in span_ids:
            _fail(
                errors,
                f"{path}: record {record.get('name')!r} references "
                f"unknown parent {parent}",
            )
    if spans == 0:
        _fail(errors, f"{path}: no span records")
    return spans


def validate_metrics(path: str, errors: list) -> int:
    """Validate a metrics JSON snapshot; returns the metric count."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema_version") != METRICS_SCHEMA_VERSION:
        _fail(
            errors,
            f"{path}: schema_version {payload.get('schema_version')!r}, "
            f"expected {METRICS_SCHEMA_VERSION}",
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        _fail(errors, f"{path}: missing or empty 'metrics' mapping")
        return 0
    return _validate_metric_entries(path, metrics, errors)


def _validate_metric_entries(path: str, metrics: dict, errors: list) -> int:
    """Per-metric shape checks shared by --metrics and --bench-serve."""
    for name, snap in sorted(metrics.items()):
        kind = snap.get("type")
        if kind in ("counter", "gauge"):
            if not isinstance(snap.get("value"), (int, float)):
                _fail(errors, f"{path}: {name}: non-numeric value")
            if kind == "counter" and snap.get("value", 0) < 0:
                _fail(errors, f"{path}: {name}: negative counter")
        elif kind == "histogram":
            buckets = snap.get("buckets")
            if not buckets:
                _fail(errors, f"{path}: {name}: histogram without buckets")
                continue
            if buckets[-1].get("le") != "+Inf":
                _fail(
                    errors,
                    f"{path}: {name}: last bucket must be le='+Inf'",
                )
            bounds = [b["le"] for b in buckets[:-1]]
            if bounds != sorted(bounds):
                _fail(errors, f"{path}: {name}: bucket bounds not sorted")
            total = sum(b.get("count", 0) for b in buckets)
            if total != snap.get("count"):
                _fail(
                    errors,
                    f"{path}: {name}: bucket counts sum to {total}, "
                    f"count says {snap.get('count')}",
                )
        else:
            _fail(errors, f"{path}: {name}: unknown metric type {kind!r}")
    return len(metrics)


def _validate_latency_block(
    path: str, label: str, latency, required: bool, errors: list
) -> None:
    if not isinstance(latency, dict):
        _fail(errors, f"{path}: {label}: missing latency mapping")
        return
    if not latency:
        if required:
            _fail(errors, f"{path}: {label}: empty latency_seconds")
        return
    for key in ("min", "max", "mean", "p50", "p95", "p99"):
        if not isinstance(latency.get(key), (int, float)):
            _fail(errors, f"{path}: {label}: latency missing {key!r}")
    quantiles = [latency.get(k) for k in ("p50", "p95", "p99", "max")]
    if all(isinstance(q, (int, float)) for q in quantiles):
        if sorted(quantiles) != quantiles:
            _fail(errors, f"{path}: {label}: percentiles are not monotone")


def _validate_result(path: str, result, errors: list) -> int:
    """The ``result`` SLO block; returns its requests_total."""
    label = "result"
    if not isinstance(result, dict):
        _fail(errors, f"{path}: missing '{label}' object")
        return 0
    counts = {}
    for field in (
        "requests_total",
        "requests_ok",
        "requests_rejected",
        "requests_rejected_with_retry_after",
        "requests_failed",
    ):
        value = result.get(field)
        if not isinstance(value, int) or value < 0:
            _fail(
                errors,
                f"{path}: {label}: {field} must be a non-negative integer",
            )
            value = 0
        counts[field] = value
    if counts["requests_total"] != (
        counts["requests_ok"]
        + counts["requests_rejected"]
        + counts["requests_failed"]
    ):
        _fail(errors, f"{path}: {label}: counts do not sum to requests_total")
    if (
        counts["requests_rejected_with_retry_after"]
        > counts["requests_rejected"]
    ):
        _fail(
            errors,
            f"{path}: {label}: more Retry-After rejections than rejections",
        )
    for field in ("duration_seconds", "throughput_rps", "shed_rate"):
        if not isinstance(result.get(field), (int, float)):
            _fail(errors, f"{path}: {label}: missing numeric {field}")
    shed = result.get("shed_rate")
    if isinstance(shed, (int, float)) and counts["requests_total"]:
        expected = counts["requests_rejected"] / counts["requests_total"]
        if abs(shed - expected) > 1e-9:
            _fail(
                errors,
                f"{path}: {label}: shed_rate {shed} does not match "
                f"rejected/total = {expected}",
            )
    # Served-only percentiles: required whenever anything was served.
    _validate_latency_block(
        path,
        label,
        result.get("latency_seconds"),
        required=counts["requests_ok"] > 0,
        errors=errors,
    )
    if not isinstance(result.get("batch_size_max"), (int, float)):
        _fail(errors, f"{path}: {label}: missing numeric batch_size_max")
    return counts["requests_total"]


def validate_bench_serve(path: str, errors: list) -> int:
    """Validate a BENCH_serve.json artifact; returns the request count."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema_version") != BENCH_SERVE_SCHEMA_VERSION:
        _fail(
            errors,
            f"{path}: schema_version {payload.get('schema_version')!r}, "
            f"expected {BENCH_SERVE_SCHEMA_VERSION}",
        )
    if payload.get("benchmark") != "serve":
        _fail(errors, f"{path}: benchmark {payload.get('benchmark')!r}")
    stamp = payload.get("generated_at_utc")
    if not isinstance(stamp, str) or "T" not in stamp:
        _fail(errors, f"{path}: missing/malformed generated_at_utc")
    sha = payload.get("git_sha")
    if sha is not None and not (
        isinstance(sha, str) and len(sha) == 40
    ):
        _fail(errors, f"{path}: malformed git_sha {sha!r}")
    cpus = payload.get("cpu_count")
    if not isinstance(cpus, int) or cpus < 1:
        _fail(
            errors,
            f"{path}: cpu_count must be a positive integer (throughput "
            "means little without the hardware it ran on)",
        )
    if not isinstance(payload.get("workload"), dict):
        _fail(errors, f"{path}: missing 'workload' mapping")
    result = payload.get("result")
    total = _validate_result(path, result, errors)
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        _fail(errors, f"{path}: missing or empty embedded 'metrics'")
    else:
        _validate_metric_entries(path, metrics, errors)
        batch_max = metrics.get("service.batch.size", {}).get("max")
        if not isinstance(batch_max, (int, float)):
            _fail(
                errors,
                f"{path}: metrics missing service.batch.size (the "
                "coalescing evidence)",
            )
        elif (
            isinstance(result, dict)
            and isinstance(result.get("batch_size_max"), (int, float))
            and result["batch_size_max"] != batch_max
        ):
            _fail(
                errors,
                f"{path}: result.batch_size_max "
                f"{result['batch_size_max']} != metrics "
                f"service.batch.size max {batch_max}",
            )
    tracing = payload.get("tracing")
    if tracing is not None:
        _validate_tracing_block(path, tracing, errors)
    return total


def _validate_tracing_block(path: str, tracing, errors: list) -> None:
    """The tracing-overhead block: shape only, no ratio threshold
    (overhead acceptance is an EXPERIMENTS.md measurement, not a CI
    gate — a loaded runner would flake it)."""
    label = "tracing"
    if not isinstance(tracing, dict):
        _fail(errors, f"{path}: {label} must be an object")
        return
    rate = tracing.get("sample_rate")
    if not isinstance(rate, (int, float)) or not 0 < rate <= 1:
        _fail(errors, f"{path}: {label}: sample_rate must be in (0, 1]")
    for field in ("baseline_p99_seconds", "traced_p99_seconds"):
        value = tracing.get(field)
        if value is not None and not isinstance(value, (int, float)):
            _fail(errors, f"{path}: {label}: non-numeric {field}")
    ratio = tracing.get("p99_overhead_ratio")
    if ratio is not None and not isinstance(ratio, (int, float)):
        _fail(errors, f"{path}: {label}: non-numeric p99_overhead_ratio")
    records = tracing.get("audit_records")
    if not isinstance(records, int) or records < 0:
        _fail(
            errors,
            f"{path}: {label}: audit_records must be a non-negative "
            "integer",
        )


def validate_bench_e17(path: str, errors: list) -> int:
    """Validate a BENCH_e17.json artifact; returns the scaling-point count.

    Checks the claims the artifact exists to carry: the full
    ``10**3 .. 10**6`` grid is present in order, every point respects
    the Theorem 6.8 tradeoff floor ``U_s >= L / (m + 1)`` and the
    Theorem 6.7 ceiling ``U_s <= eps``, the per-point wall time is
    under the single-core budget, and the mean-field envelope's exact
    coverage never drops below its stated confidence.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema_version") != BENCH_E17_SCHEMA_VERSION:
        _fail(
            errors,
            f"{path}: schema_version {payload.get('schema_version')!r}, "
            f"expected {BENCH_E17_SCHEMA_VERSION}",
        )
    if payload.get("experiment") != "E17":
        _fail(errors, f"{path}: experiment {payload.get('experiment')!r}")
    if payload.get("passed") is not True:
        _fail(errors, f"{path}: experiment did not pass")
    scaling = payload.get("scaling")
    if not isinstance(scaling, dict):
        _fail(errors, f"{path}: missing 'scaling' block")
        return 0
    epsilon = scaling.get("epsilon")
    if not isinstance(epsilon, (int, float)) or not 0 < epsilon < 1:
        _fail(errors, f"{path}: scaling.epsilon must be in (0, 1)")
        epsilon = None
    points = scaling.get("points")
    if not isinstance(points, list):
        _fail(errors, f"{path}: scaling.points must be a list")
        return 0
    grid = [
        point.get("m") for point in points if isinstance(point, dict)
    ]
    if grid != list(BENCH_E17_GRID):
        _fail(
            errors,
            f"{path}: scaling grid {grid} != required {list(BENCH_E17_GRID)}",
        )
    for point in points:
        if not isinstance(point, dict):
            _fail(errors, f"{path}: scaling point must be an object")
            continue
        label = f"scaling point m={point.get('m')}"
        fields = {}
        for field in (
            "unsafety_family",
            "liveness_good",
            "floor",
            "wall_seconds",
        ):
            value = point.get(field)
            if not isinstance(value, (int, float)):
                _fail(errors, f"{path}: {label}: missing numeric {field}")
                value = None
            fields[field] = value
        m = point.get("m")
        if None in fields.values() or not isinstance(m, int):
            continue
        if abs(fields["floor"] - fields["liveness_good"] / (m + 1)) > 1e-15:
            _fail(
                errors,
                f"{path}: {label}: floor {fields['floor']} != "
                f"liveness/(m+1)",
            )
        if fields["unsafety_family"] < fields["floor"]:
            _fail(
                errors,
                f"{path}: {label}: U_s {fields['unsafety_family']} below "
                f"the tradeoff floor {fields['floor']} (Theorem 6.8)",
            )
        if epsilon is not None and fields["unsafety_family"] > epsilon:
            _fail(
                errors,
                f"{path}: {label}: U_s {fields['unsafety_family']} above "
                f"eps {epsilon} (Theorem 6.7)",
            )
        if fields["wall_seconds"] >= BENCH_E17_WALL_BUDGET_SECONDS:
            _fail(
                errors,
                f"{path}: {label}: wall {fields['wall_seconds']:.1f}s "
                f"over the {BENCH_E17_WALL_BUDGET_SECONDS:.0f}s budget",
            )
    envelope = payload.get("envelope")
    if not isinstance(envelope, dict):
        _fail(errors, f"{path}: missing 'envelope' block")
    else:
        confidence = envelope.get("confidence")
        coverage = envelope.get("coverage")
        if not isinstance(confidence, (int, float)) or not 0 < confidence <= 1:
            _fail(errors, f"{path}: envelope.confidence must be in (0, 1]")
        elif not isinstance(coverage, list) or not coverage:
            _fail(errors, f"{path}: envelope.coverage must be non-empty")
        else:
            for round_number, mass in enumerate(coverage):
                if not isinstance(mass, (int, float)) or mass < confidence:
                    _fail(
                        errors,
                        f"{path}: envelope round {round_number}: coverage "
                        f"{mass!r} below confidence {confidence}",
                    )
    return len(points)


def validate_audit_dir(directory: str, errors: list) -> int:
    """Validate every audit log under ``directory``; returns span count."""
    base = pathlib.Path(directory)
    paths = sorted(base.glob("audit-*.jsonl")) + sorted(
        base.glob("audit-*.jsonl.1")
    )
    if not paths:
        _fail(errors, f"{directory}: no audit-*.jsonl files")
        return 0
    spans = 0
    for path in paths:
        spans += _validate_audit_file(str(path), errors)
    return spans


def _validate_audit_file(path: str, errors: list) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        _fail(errors, f"{path}: empty audit file")
        return 0
    meta = json.loads(lines[0])
    if meta.get("kind") != "meta":
        _fail(errors, f"{path}: first line must be the meta record")
    if meta.get("schema_version") != AUDIT_SCHEMA_VERSION:
        _fail(
            errors,
            f"{path}: schema_version {meta.get('schema_version')!r}, "
            f"expected {AUDIT_SCHEMA_VERSION}",
        )
    if meta.get("clock") != "unix-epoch" or meta.get("unit") != "seconds":
        _fail(errors, f"{path}: unexpected clock/unit in meta: {meta}")
    process = meta.get("process")
    if not isinstance(process, str) or not process:
        _fail(errors, f"{path}: meta missing 'process'")
    spans = 0
    for position, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position == len(lines):
                continue  # torn tail write is legal; mid-file junk is not
            _fail(errors, f"{path}:{position}: malformed JSON")
            continue
        if record.get("kind") != "span":
            _fail(
                errors,
                f"{path}:{position}: unknown record kind "
                f"{record.get('kind')!r}",
            )
            continue
        spans += 1
        stage = record.get("stage")
        if stage not in AUDIT_STAGES:
            _fail(errors, f"{path}:{position}: unknown stage {stage!r}")
        if record.get("process") != process:
            _fail(
                errors,
                f"{path}:{position}: span process "
                f"{record.get('process')!r} != meta process {process!r}",
            )
        for field, kinds in (
            ("t_start", (int, float)),
            ("duration", (int, float)),
            ("attributes", dict),
        ):
            if not isinstance(record.get(field), kinds):
                _fail(errors, f"{path}:{position}: missing/invalid {field!r}")
        duration = record.get("duration")
        if isinstance(duration, (int, float)) and duration < 0:
            _fail(errors, f"{path}:{position}: negative duration")
        request_id = record.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            _fail(errors, f"{path}:{position}: non-string request_id")
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="trace JSONL to check")
    parser.add_argument(
        "--metrics", default=None, help="metrics JSON to check"
    )
    parser.add_argument(
        "--bench-serve",
        default=None,
        metavar="PATH",
        help="BENCH_serve.json artifact to check",
    )
    parser.add_argument(
        "--bench-e17",
        default=None,
        metavar="PATH",
        help="BENCH_e17.json artifact (m-scaling curve) to check",
    )
    parser.add_argument(
        "--expect-metric",
        action="append",
        default=[],
        metavar="NAME",
        help="require this metric name to be present (repeatable)",
    )
    parser.add_argument(
        "--audit",
        default=None,
        metavar="DIR",
        help="audit-log directory (audit-*.jsonl files) to check",
    )
    args = parser.parse_args(argv)
    if (
        not args.trace
        and not args.metrics
        and not args.bench_serve
        and not args.bench_e17
        and not args.audit
    ):
        parser.error(
            "nothing to validate: pass --trace, --metrics, "
            "--bench-serve, --bench-e17, and/or --audit"
        )
    errors: list = []
    if args.trace:
        spans = validate_trace(args.trace, errors)
        print(f"{args.trace}: {spans} spans")
    if args.metrics:
        count = validate_metrics(args.metrics, errors)
        print(f"{args.metrics}: {count} metrics")
        if args.expect_metric:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                present = set(json.load(handle).get("metrics", {}))
            for name in args.expect_metric:
                if name not in present:
                    _fail(errors, f"{args.metrics}: missing metric {name!r}")
    if args.bench_serve:
        requests = validate_bench_serve(args.bench_serve, errors)
        print(f"{args.bench_serve}: {requests} requests")
    if args.bench_e17:
        points = validate_bench_e17(args.bench_e17, errors)
        print(f"{args.bench_e17}: {points} scaling points")
    if args.audit:
        spans = validate_audit_dir(args.audit, errors)
        print(f"{args.audit}: {spans} audit spans")
    for message in errors:
        print(f"ERROR: {message}", file=sys.stderr)
    if errors:
        return 1
    print("observability artifacts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
