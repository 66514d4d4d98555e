"""Observability wired into the engine, experiments, and CLI.

Covers the guarantees DESIGN.md §8 documents: stats are a view over
the registry, cache hits do not inflate wall time, tracing never
changes what an experiment computes, the execution-trace hook records
per-round protocol events, and the CLI exports match the schemas the
validator in ``scripts/validate_obs_artifacts.py`` checks.
"""

from __future__ import annotations

import json

import pytest

from repro.core.run import bernoulli_run, good_run
from repro.core.topology import Topology
from repro.engine import Engine
from repro.experiments import Config, run_experiment
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.protocols.protocol_s import ProtocolS

PAIR = Topology.pair()


def _traced_engine(exec_trace=False, backend="auto"):
    obs = Obs(
        metrics=MetricsRegistry(),
        tracer=Tracer(enabled=True),
        exec_trace=exec_trace,
    )
    return Engine(backend=backend, obs=obs)


class TestEngineMetrics:
    def test_stats_view_reads_registry(self):
        engine = Engine()
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        metrics = engine.obs.metrics
        assert metrics.counter("engine.runs_evaluated").value == 1
        assert engine.stats.runs_evaluated == 1
        assert metrics.histogram("engine.evaluate.latency").count == 1
        # The as_dict schema the reports/benchmarks consume.
        assert set(engine.stats.as_dict()) == {
            "runs_evaluated",
            "reference_evaluations",
            "vectorized_evaluations",
            "meanfield_evaluations",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "batch_calls",
            "wall_time_seconds",
        }

    def test_cache_hits_do_not_inflate_wall_time(self):
        engine = Engine()
        protocol = ProtocolS(epsilon=0.25)
        run = good_run(PAIR, 4)
        engine.evaluate(protocol, PAIR, run)
        wall_after_miss = engine.stats.wall_time_seconds
        assert wall_after_miss > 0
        for _ in range(50):
            engine.evaluate(protocol, PAIR, run)
        # Only backend work is timed; 50 cache hits add nothing.
        assert engine.stats.cache_hits == 50
        assert engine.stats.wall_time_seconds == wall_after_miss
        assert (
            engine.obs.metrics.histogram("engine.evaluate.latency").count == 1
        )

    def test_reset_keeps_stats_view_live(self):
        engine = Engine()
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        engine.reset()
        assert engine.stats.runs_evaluated == 0
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 3))
        assert engine.stats.runs_evaluated == 1

    def test_disabled_tracer_records_nothing(self):
        engine = Engine()  # default obs: tracer disabled
        assert not engine.obs.tracer.enabled
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        assert engine.obs.tracer.records == []


class TestEngineTracing:
    def test_evaluate_spans_carry_protocol_and_method(self):
        engine = _traced_engine()
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        (span,) = engine.obs.tracer.spans
        assert span.name == "engine.evaluate"
        assert "protocol" in span.attributes
        assert "method" in span.attributes

    def test_evaluate_many_single_span(self):
        engine = _traced_engine()
        import random

        runs = [
            bernoulli_run(PAIR, 4, 0.5, random.Random(7)) for _ in range(8)
        ]
        engine.evaluate_many(ProtocolS(epsilon=0.25), PAIR, runs)
        names = [span.name for span in engine.obs.tracer.spans]
        assert names == ["engine.evaluate_many"]
        assert engine.obs.tracer.spans[0].attributes["runs"] == 8

    def test_spans_record_the_routed_backend(self):
        import random

        runs = [
            bernoulli_run(PAIR, 4, 0.5, random.Random(seed)) for seed in range(10)
        ]
        protocol = ProtocolS(epsilon=0.25)
        auto = _traced_engine(backend="auto")
        auto.evaluate_many(protocol, PAIR, runs[:2])
        # Routed on its misses: the two cached runs leave eight.
        auto.evaluate_many(protocol, PAIR, runs)
        assert [span.attributes["backend"] for span in auto.obs.tracer.spans] == [
            "reference",
            "vectorized",
        ]
        reference = _traced_engine(backend="reference")
        reference.evaluate(protocol, PAIR, runs[0])
        (span,) = reference.obs.tracer.spans
        assert span.attributes["backend"] == "reference"

    def test_exec_trace_records_rounds_and_decisions(self):
        engine = _traced_engine(exec_trace=True)
        num_rounds = 4
        engine.evaluate(
            ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, num_rounds)
        )
        events = engine.obs.tracer.events
        rounds = [e for e in events if e.name == "exec.round"]
        decisions = [e for e in events if e.name == "exec.decision"]
        assert len(rounds) == num_rounds
        assert len(decisions) == len(PAIR.processes)
        for event in rounds:
            assert set(event.attributes) >= {
                "round", "delivered", "cut", "levels", "modified_levels",
            }
        for event in decisions:
            assert set(event.attributes) >= {
                "process", "fired", "level", "modified_level",
            }
        # Protocol S decisions expose the counting state.
        assert all("count" in e.attributes for e in decisions)

    def test_exec_trace_off_by_default(self):
        engine = _traced_engine(exec_trace=False)
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        assert not any(
            e.name.startswith("exec.") for e in engine.obs.tracer.events
        )


class TestExperimentParity:
    @pytest.mark.parametrize("experiment_id", ["E1", "E3"])
    def test_tracing_does_not_change_results(self, experiment_id):
        plain = run_experiment(experiment_id, Config(scale="quick", seed=0))
        traced_config = Config(
            scale="quick", seed=0, tracing=True, exec_trace=True
        )
        traced = run_experiment(experiment_id, traced_config)
        assert traced.passed == plain.passed
        assert traced.render() == plain.render()
        assert traced_config.obs().tracer.spans  # tracing actually ran

    def test_report_metadata_carries_metrics_snapshot(self):
        config = Config(scale="quick", seed=0)
        report = run_experiment("E1", config)
        metrics = report.metadata.get("metrics")
        assert metrics is not None
        assert "engine.runs_evaluated" in metrics
        assert "engine.cache.hit_rate" in metrics
        assert metrics["engine.evaluate.latency"]["type"] == "histogram"


class TestCliExports:
    def test_profile_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "profile",
                "e1",
                "--quick",
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Profile: [E1]" in out
        assert "experiment.E1" in out  # span tree root
        assert "Metrics snapshot" in out
        lines = trace_path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "meta"
        names = {
            json.loads(line)["name"]
            for line in lines[1:]
        }
        assert "experiment.E1" in names
        assert "engine.evaluate_packed_many" in names
        payload = json.loads(metrics_path.read_text())
        assert payload["schema_version"] == 1
        assert "engine.runs_evaluated" in payload["metrics"]

    def test_validator_accepts_profile_artifacts(self, tmp_path, capsys):
        import runpy
        import sys

        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "profile",
                    "e1",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        script = (
            __file__.rsplit("tests", 1)[0]
            + "scripts/validate_obs_artifacts.py"
        )
        argv = sys.argv
        sys.argv = [
            script,
            "--trace",
            str(trace_path),
            "--metrics",
            str(metrics_path),
            "--expect-metric",
            "engine.cache.hit_rate",
        ]
        try:
            with pytest.raises(SystemExit) as excinfo:
                runpy.run_path(script, run_name="__main__")
            assert excinfo.value.code == 0
        finally:
            sys.argv = argv

    def test_experiments_module_exports_session_metrics(self, tmp_path):
        from repro.experiments.__main__ import main as experiments_main

        metrics_path = tmp_path / "metrics.json"
        code = experiments_main(
            ["E1", "--metrics", str(metrics_path)]
        )
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["metrics"]["engine.runs_evaluated"]["value"] > 0
