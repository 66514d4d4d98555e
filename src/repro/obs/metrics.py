"""Zero-dependency metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is the always-on instrumentation backing
store of the evaluation :class:`~repro.engine.Engine` (whose
``EngineStats`` is a thin read view over it), the worst-run searches,
and the Monte-Carlo estimators.  Updates are plain attribute bumps on
pre-resolved metric objects — no locks, no string formatting, no
allocation per update — so they are cheap enough for the scalar
``evaluate`` hot path.

Snapshots are deterministic (names sorted) plain dicts, which makes
them JSON-exportable and mergeable: per-experiment registries can be
folded into a session total with :meth:`MetricsRegistry.merge`
(counters and histograms add, gauges take the merged-in value).

Export schema (``schema_version`` 1)::

    {"schema_version": 1,
     "metrics": {
       "<name>": {"type": "counter", "value": <number>},
       "<name>": {"type": "gauge", "value": <number|null>},
       "<name>": {"type": "histogram", "count": N, "sum": S,
                  "min": <number|null>, "max": <number|null>,
                  "buckets": [{"le": <bound>, "count": n}, ...,
                              {"le": "+Inf", "count": n}]}}}

Histogram bucket counts are per-bucket (not cumulative); the ``le``
bound is the inclusive upper edge and the final ``"+Inf"`` bucket
absorbs everything above the last finite bound.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

SCHEMA_VERSION = 1

# Default bounds for latency histograms, in seconds.  Engine
# evaluations range from microseconds (cached closed forms) to seconds
# (full-scale Monte-Carlo batches).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


class Counter:
    """A monotonically non-decreasing sum (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value (``None`` until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are the ascending inclusive upper edges of the finite
    buckets; one implicit ``+Inf`` bucket absorbs larger observations.
    Bucket counts are per-bucket, not cumulative.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly ascending"
            )
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict[str, object]:
        buckets: List[Dict[str, object]] = [
            {"le": bound, "count": count}
            for bound, count in zip(self.bounds, self.counts)
        ]
        buckets.append({"le": "+Inf", "count": self.counts[-1]})
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with snapshot, merge, and export.

    Accessors create on first use and return the *same* object on
    every subsequent call, so hot paths can resolve their metrics once
    and bump plain attributes afterwards.  :meth:`reset` zeroes every
    metric **in place** — resolved references stay valid.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: type, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        histogram = self._get(name, Histogram, lambda: Histogram(name, bounds))
        if histogram.bounds != tuple(float(bound) for bound in bounds):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{histogram.bounds}"
            )
        return histogram

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric in place (resolved references stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic name -> payload mapping (names sorted)."""
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    def merge(
        self, other: Union["MetricsRegistry", Dict[str, Dict[str, object]]]
    ) -> None:
        """Fold another registry (or a snapshot of one) into this one.

        Counters and histograms add; gauges take the merged-in value
        when it is set.  Histograms must agree on bucket bounds.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, payload in other.items():
            kind = payload.get("type")
            if kind == "counter":
                self.counter(name).inc(payload["value"])
            elif kind == "gauge":
                if payload["value"] is not None:
                    self.gauge(name).set(payload["value"])
            elif kind == "histogram":
                self._merge_histogram(name, payload)
            else:
                raise ValueError(f"metric {name!r} has unknown type {kind!r}")

    def _merge_histogram(self, name: str, payload: Dict[str, object]) -> None:
        buckets = payload["buckets"]
        bounds = tuple(
            float(bucket["le"]) for bucket in buckets[:-1]
        )
        histogram = self.histogram(name, bounds or DEFAULT_LATENCY_BUCKETS)
        if histogram.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} bucket bounds differ: "
                f"{histogram.bounds} vs {bounds}"
            )
        for index, bucket in enumerate(buckets):
            histogram.counts[index] += int(bucket["count"])
        histogram.count += int(payload["count"])
        histogram.sum += float(payload["sum"])
        for incoming, pick in ((payload["min"], min), (payload["max"], max)):
            if incoming is None:
                continue
            attribute = "min" if pick is min else "max"
            current = getattr(histogram, attribute)
            setattr(
                histogram,
                attribute,
                incoming if current is None else pick(current, incoming),
            )

    def to_json(self, indent: int = 2) -> str:
        """The documented export payload as a JSON string."""
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, "metrics": self.snapshot()},
            indent=indent,
        )

    def export_json(self, path: str) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
