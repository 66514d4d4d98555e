"""Unit tests for the metrics primitives (repro.obs.metrics)."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        counter.inc(0.5)
        assert counter.value == 6.5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_bucketing_inclusive_upper_edge(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        # counts: (-inf,1], (1,2], (2,4], (4,inf)
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 2, 1]
        assert histogram.count == 7
        assert histogram.min == 0.5
        assert histogram.max == 100.0
        assert histogram.sum == pytest.approx(112.0)

    def test_snapshot_buckets_end_with_inf(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(0.5)
        histogram.observe(2.0)
        snap = histogram.snapshot()
        assert snap["buckets"] == [
            {"le": 1.0, "count": 1},
            {"le": "+Inf", "count": 1},
        ]
        assert sum(b["count"] for b in snap["buckets"]) == snap["count"]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_default_bounds_cover_latency_range(self):
        histogram = Histogram("h")
        assert histogram.bounds == DEFAULT_LATENCY_BUCKETS
        assert len(histogram.counts) == len(DEFAULT_LATENCY_BUCKETS) + 1


class TestRegistry:
    def test_accessors_return_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(2.0,))

    def test_reset_zeroes_in_place(self):
        # The engine pre-resolves metric objects; reset() must keep
        # those references live rather than replace the objects.
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h")
        counter.inc(3)
        histogram.observe(0.5)
        registry.reset()
        assert counter is registry.counter("c")
        assert counter.value == 0
        assert histogram.count == 0
        assert histogram.min is None

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        b.counter("only_b").inc(1)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        for value in (0.5, 3.0):
            a.histogram("h", bounds=(1.0, 2.0)).observe(value)
        b.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.counter("c").value == 7
        assert a.counter("only_b").value == 1
        assert a.gauge("g").value == 9
        merged = a.histogram("h", bounds=(1.0, 2.0))
        assert merged.count == 3
        assert merged.counts == [1, 1, 1]
        assert merged.min == 0.5
        assert merged.max == 3.0

    def test_merge_accepts_snapshot_and_rejects_bound_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(4)
        a.merge(b.snapshot())
        assert a.counter("c").value == 4
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        c = MetricsRegistry()
        c.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(c)

    def test_json_export_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("engine.runs_evaluated").inc(10)
        registry.gauge("engine.cache.hit_rate").set(0.5)
        registry.histogram("engine.evaluate.latency").observe(1e-4)
        path = tmp_path / "metrics.json"
        registry.export_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        metrics = payload["metrics"]
        assert metrics["engine.runs_evaluated"] == {
            "type": "counter",
            "value": 10,
        }
        assert metrics["engine.cache.hit_rate"]["type"] == "gauge"
        latency = metrics["engine.evaluate.latency"]
        assert latency["type"] == "histogram"
        assert latency["buckets"][-1]["le"] == "+Inf"
        assert list(metrics) == sorted(metrics)


class TestShardSnapshotMerge:
    """Property-style checks for snapshot merges: the server folds the
    metrics snapshot of every worker-tier result into its registry,
    and the result must not depend on which worker answered first."""

    @staticmethod
    def _worker_snapshot(index, rounds=3):
        """A realistic per-worker registry: shared cumulative counters
        and latency histograms plus one worker-unique counter."""
        registry = MetricsRegistry()
        registry.counter("service.requests_total").inc(10 + index)
        registry.counter("service.responses.2xx").inc(7 * (index + 1))
        registry.counter(f"worker.{index}.requests").inc(index + 1)
        latency = registry.histogram("service.request.latency")
        for step in range(rounds * (index + 1)):
            # Dyadic-rational samples: float addition over them is
            # exact, so the order-independence property is testable
            # bit-for-bit (the running ``sum`` of arbitrary floats is
            # only associative to the last ulp).
            latency.observe((step + 1) * (index + 1) / 1024)
        return registry.snapshot()

    @staticmethod
    def _merged(snapshots, order):
        registry = MetricsRegistry()
        for position in order:
            registry.merge(snapshots[position])
        return registry

    def test_merge_over_shard_snapshots_is_order_independent(self):
        import itertools

        snapshots = [self._worker_snapshot(index) for index in range(3)]
        orders = list(itertools.permutations(range(3)))
        baseline = self._merged(snapshots, orders[0]).snapshot()
        for order in orders[1:]:
            assert self._merged(snapshots, order).snapshot() == baseline

    def test_merge_preserves_counter_and_histogram_totals(self):
        snapshots = [self._worker_snapshot(index) for index in range(4)]
        merged = self._merged(snapshots, range(4))
        total = sum(
            snapshot["service.requests_total"]["value"]
            for snapshot in snapshots
        )
        assert merged.counter("service.requests_total").value == total
        histogram = merged.histogram("service.request.latency")
        per_worker_counts = [
            snapshot["service.request.latency"]["count"]
            for snapshot in snapshots
        ]
        assert histogram.count == sum(per_worker_counts)
        # Bucket mass is preserved exactly, not just the top-line count.
        bucket_total = sum(
            bucket["count"]
            for snapshot in snapshots
            for bucket in snapshot["service.request.latency"]["buckets"]
        )
        assert sum(histogram.counts) == bucket_total == histogram.count
        # Extremes survive the merge from whichever worker held them.
        assert histogram.min == min(
            snapshot["service.request.latency"]["min"] for snapshot in snapshots
        )
        assert histogram.max == max(
            snapshot["service.request.latency"]["max"] for snapshot in snapshots
        )
        # Worker-unique counters pass through untouched.
        for index in range(4):
            name = f"worker.{index}.requests"
            assert merged.counter(name).value == index + 1
