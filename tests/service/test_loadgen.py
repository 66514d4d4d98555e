"""The load generator and its BENCH_serve.json artifact (schema v5)."""

import json
import pathlib
import runpy

import pytest

from repro.service import LoadgenOptions, ServiceConfig, percentile, run_bench
from repro.service.loadgen import (
    BENCH_SCHEMA_VERSION,
    LoadReport,
    bench_payload,
    result_block,
)

VALIDATOR = (
    pathlib.Path(__file__).resolve().parents[2]
    / "scripts"
    / "validate_obs_artifacts.py"
)


def test_percentile_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 50.0) == 50.0
    assert percentile(samples, 95.0) == 95.0
    assert percentile(samples, 99.0) == 99.0
    assert percentile(samples, 100.0) == 100.0
    assert percentile([3.5], 50.0) == 3.5
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_loadgen_options_validate():
    with pytest.raises(ValueError):
        LoadgenOptions(requests=0)
    with pytest.raises(ValueError):
        LoadgenOptions(concurrency=0)
    with pytest.raises(ValueError):
        LoadgenOptions(groups=0)


@pytest.fixture(scope="module")
def bench_artifact(tmp_path_factory):
    """One self-contained bench, written to disk: (path, payload)."""
    output = tmp_path_factory.mktemp("bench") / "BENCH_serve.json"
    options = LoadgenOptions(requests=48, concurrency=8, rounds=6)
    payload = run_bench(
        options,
        output=str(output),
        server_config=ServiceConfig(port=0),
    )
    return output, payload


def test_self_contained_bench_writes_schema_v5_artifact(bench_artifact):
    output, payload = bench_artifact
    on_disk = json.loads(output.read_text())
    assert on_disk == payload
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION == 5
    assert payload["benchmark"] == "serve"
    assert payload["generated_at_utc"].endswith("+00:00")
    assert payload["git_sha"], "expected a git SHA inside the repo"
    assert payload["cpu_count"] >= 1
    result = payload["result"]
    assert result["requests_total"] == 48
    assert result["requests_ok"] == 48
    assert result["requests_rejected"] == 0
    assert result["requests_failed"] == 0
    assert result["shed_rate"] == 0.0
    assert result["throughput_rps"] > 0
    latency = result["latency_seconds"]
    for key in ("min", "max", "mean", "p50", "p95", "p99"):
        assert key in latency
    assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
    # The acceptance smoke: concurrent identical specs demonstrably
    # coalesced into multi-request engine batches.
    assert result["batch_size_max"] > 1
    assert payload["metrics"]["service.batch.size"]["max"] > 1
    assert payload["metrics"]["service.responses.2xx"]["value"] >= 48


def test_bench_artifact_passes_the_validator(bench_artifact):
    """The load generator and the CI validator agree on schema v5."""
    output, _ = bench_artifact
    validator = runpy.run_path(str(VALIDATOR))
    errors: list = []
    requests = validator["validate_bench_serve"](str(output), errors)
    assert errors == []
    assert requests == 48


def test_scaling_entry_excludes_sheds_from_percentiles():
    """Satellite contract: 429s are counted, never timed."""
    report = LoadReport()
    report.note_served(0.01)
    report.note_served(0.02)
    report.note_served(0.03)
    report.note_rejected(had_retry_after=True)
    report.note_rejected(had_retry_after=False)
    report.note_failed()
    report.duration_seconds = 0.5
    report.finalize()
    result = result_block(report)
    assert result["requests_total"] == 6
    assert result["requests_ok"] == 3
    assert result["requests_rejected"] == 2
    assert result["requests_rejected_with_retry_after"] == 1
    assert result["requests_failed"] == 1
    assert result["shed_rate"] == pytest.approx(2 / 6)
    # Percentiles over the three served samples only.
    assert result["latency_seconds"]["min"] == 0.01
    assert result["latency_seconds"]["max"] == 0.03
    assert result["latency_seconds"]["p99"] == 0.03


def test_bench_payload_shape_from_synthetic_entries():
    report = LoadReport()
    report.note_served(0.01)
    report.note_served(0.02)
    report.note_served(0.03)
    report.duration_seconds = 0.5
    report.finalize()
    payload = bench_payload(
        result_block(report), LoadgenOptions(), "http://host:1"
    )
    assert payload["workload"]["protocol"] == "S:0.25"
    assert payload["result"]["latency_seconds"]["p50"] == 0.02
    assert payload["result"]["throughput_rps"] == pytest.approx(6.0)
    assert "tracing" not in payload and "metrics" not in payload
