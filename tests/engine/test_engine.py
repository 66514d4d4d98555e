"""Unit tests for the :class:`Engine` facade: backends, cache, stats."""

from __future__ import annotations

import random

import pytest

from repro.core.probability import evaluate
from repro.core.run import bernoulli_run, good_run, silent_run
from repro.core.topology import Topology
from repro.engine import BACKENDS, Engine, default_engine
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_s import ProtocolS

PAIR = Topology.pair()


def _runs(num_rounds=4, count=12, seed=3):
    rng = random.Random(seed)
    return [bernoulli_run(PAIR, num_rounds, 0.5, rng) for _ in range(count)]


class TestBackends:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine(backend="gpu")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evaluate_matches_reference(self, backend):
        engine = Engine(backend=backend)
        protocol = ProtocolS(epsilon=0.25)
        for run in _runs():
            assert engine.evaluate(protocol, PAIR, run) == evaluate(
                protocol, PAIR, run
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evaluate_many_matches_serial_map(self, backend):
        engine = Engine(backend=backend)
        protocol = ProtocolS(epsilon=0.125)
        runs = _runs(count=20)
        batch = engine.evaluate_many(protocol, PAIR, runs)
        assert batch == [evaluate(protocol, PAIR, run) for run in runs]

    def test_reference_backend_never_vectorizes(self):
        engine = Engine(backend="reference")
        runs = _runs(count=30)
        engine.evaluate_many(ProtocolS(epsilon=0.25), PAIR, runs)
        assert engine.stats.vectorized_evaluations == 0
        # Duplicate draws are served from the memo cache, so actual
        # evaluations count the distinct runs only.
        assert engine.stats.reference_evaluations == len(set(runs))

    def test_vectorized_backend_vectorizes_single_runs(self):
        engine = Engine(backend="vectorized")
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        assert engine.stats.vectorized_evaluations == 1

    def test_auto_backend_respects_batch_threshold(self):
        engine = Engine(backend="auto")
        protocol = ProtocolS(epsilon=0.25)
        engine.evaluate_many(protocol, PAIR, _runs(count=4))
        assert engine.stats.vectorized_evaluations == 0
        engine.evaluate_many(protocol, PAIR, _runs(count=16, seed=4))
        assert engine.stats.vectorized_evaluations > 0

    def test_unsupported_protocol_falls_back(self):
        engine = Engine(backend="vectorized")
        protocol = ProtocolA(4)
        run = good_run(PAIR, 4)
        assert engine.evaluate(protocol, PAIR, run) == evaluate(
            protocol, PAIR, run
        )
        assert engine.stats.vectorized_evaluations == 0
        assert engine.stats.reference_evaluations == 1

    def test_mixed_horizon_batches(self):
        engine = Engine(backend="vectorized")
        protocol = ProtocolS(epsilon=0.5)
        runs = _runs(num_rounds=3, count=5) + _runs(
            num_rounds=5, count=5, seed=8
        )
        batch = engine.evaluate_many(protocol, PAIR, runs)
        assert batch == [evaluate(protocol, PAIR, run) for run in runs]


class TestCache:
    def test_repeat_evaluation_hits_cache(self):
        engine = Engine(backend="reference")
        protocol = ProtocolS(epsilon=0.25)
        run = good_run(PAIR, 4)
        first = engine.evaluate(protocol, PAIR, run)
        second = engine.evaluate(protocol, PAIR, run)
        assert first == second
        assert engine.stats.cache_hits == 1
        assert engine.stats.reference_evaluations == 1
        assert engine.cache_len == 1

    def test_duplicates_within_batch_evaluated_once(self):
        engine = Engine(backend="vectorized")
        run = good_run(PAIR, 4)
        runs = [run] * 10
        engine.evaluate_many(ProtocolS(epsilon=0.25), PAIR, runs)
        assert engine.stats.vectorized_evaluations == 1
        assert engine.stats.runs_evaluated == 10

    def test_monte_carlo_results_not_cached(self):
        engine = Engine(backend="reference")
        protocol = ProtocolS(epsilon=0.25)
        run = silent_run(PAIR, 4, list(PAIR.processes))
        engine.evaluate(
            protocol,
            PAIR,
            run,
            method="monte-carlo",
            trials=50,
            rng=random.Random(1),
        )
        assert engine.cache_len == 0
        assert engine.stats.reference_evaluations == 1

    def test_cache_is_bounded_fifo(self):
        engine = Engine(backend="reference", cache_size=2)
        protocol = ProtocolS(epsilon=0.25)
        for run in _runs(count=5):
            engine.evaluate(protocol, PAIR, run)
        assert engine.cache_len <= 2

    def test_clear_cache(self):
        engine = Engine(backend="reference")
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        assert engine.cache_len == 1
        engine.clear_cache()
        assert engine.cache_len == 0

    def test_distinct_methods_do_not_collide(self):
        engine = Engine(backend="reference")
        protocol = ProtocolS(epsilon=0.25)
        run = good_run(PAIR, 4)
        auto = engine.evaluate(protocol, PAIR, run, method="auto")
        closed = engine.evaluate(protocol, PAIR, run, method="closed-form")
        assert engine.cache_len == 2
        assert auto.pr_partial_attack == pytest.approx(
            closed.pr_partial_attack
        )


class TestStats:
    def test_counters_accumulate(self):
        engine = Engine(backend="vectorized")
        engine.evaluate_many(ProtocolS(epsilon=0.25), PAIR, _runs(count=10))
        stats = engine.stats
        assert stats.runs_evaluated == 10
        assert stats.batch_calls == 1
        assert stats.wall_time_seconds > 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0

    def test_as_dict_round_trip(self):
        engine = Engine()
        engine.evaluate(ProtocolS(epsilon=0.25), PAIR, good_run(PAIR, 4))
        payload = engine.stats.as_dict()
        assert payload["runs_evaluated"] == 1
        assert set(payload) >= {
            "runs_evaluated",
            "vectorized_evaluations",
            "cache_hit_rate",
            "wall_time_seconds",
        }


def test_default_engine_is_singleton():
    assert default_engine() is default_engine()
