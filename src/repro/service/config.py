"""Service configuration: one frozen dataclass of serving knobs.

Defaults are tuned for a laptop-scale deployment: the micro-batcher
coalesces whatever arrives while the engine thread is busy, so it
adds no latency to an idle service, and a bounded admission queue
keeps tail latency flat by shedding load (429) instead of queueing
without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import BACKENDS, DEFAULT_CACHE_SIZE

DEFAULT_PORT = 8642

#: Default size-based rotation threshold for the audit log.
DEFAULT_AUDIT_MAX_BYTES = 4 * 1024 * 1024

#: Default in-memory ring-buffer depth behind ``/v1/debug/requests``.
DEFAULT_AUDIT_RING = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the evaluation server in one place.

    ``workers`` selects the worker tier for CPU-bound work (Monte
    Carlo estimates, experiment launches): ``0`` evaluates inline on
    the server's executor thread (tests, tiny deployments), ``> 0``
    runs a process pool of that size so the GIL stops being the
    ceiling.  ``queue_limit`` bounds concurrently admitted requests —
    the (queue_limit+1)-th concurrent evaluation is rejected with
    ``429`` and a ``Retry-After`` hint rather than queued forever.

    ``max_batch`` caps a micro-batch: requests that share a batch key
    coalesce while the engine thread is busy (DESIGN.md §10).

    ``cache_size`` bounds the engine's exact-result memo cache.

    ``debug`` enables the ``POST /v1/_sleep`` test hook (an admitted,
    deadline-checked request that just sleeps), which the backpressure
    and drain tests use to hold the admission queue open
    deterministically.  Never enable it on a real deployment.

    ``audit_dir`` enables a persistent request audit trail: the
    server appends the spans of sampled requests to
    ``audit-server.jsonl`` under the directory, rotated once it passes
    ``audit_max_bytes`` (one ``.1`` backup is kept).  ``repro audit
    <request_id>`` stitches them into one request tree.  With no
    directory, the in-memory ring of the last ``audit_ring`` spans
    behind ``GET /v1/debug/requests`` still works.  ``trace_sample_rate``
    picks which requests are audited — the decision is a
    deterministic hash of the request id, and client-supplied
    ``X-Repro-Request-Id`` values are always sampled.  Requests slower
    than ``slow_request_ms`` are logged at WARNING with their request
    id.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    backend: str = "auto"
    seed: int = 0
    max_batch: int = 32
    queue_limit: int = 64
    workers: int = 0
    deadline_ms: float = 30_000.0
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 1 << 20
    enumeration_limit: Optional[int] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    debug: bool = False
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    audit_dir: Optional[str] = None
    audit_max_bytes: int = DEFAULT_AUDIT_MAX_BYTES
    audit_ring: int = DEFAULT_AUDIT_RING
    trace_sample_rate: float = 1.0
    slow_request_ms: float = 1_000.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.audit_max_bytes < 1024:
            raise ValueError("audit_max_bytes must be >= 1024")
        if self.audit_ring < 1:
            raise ValueError("audit_ring must be >= 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.slow_request_ms <= 0:
            raise ValueError("slow_request_ms must be > 0")

    @property
    def deadline_s(self) -> float:
        return self.deadline_ms / 1000.0

    @property
    def slow_request_s(self) -> float:
        return self.slow_request_ms / 1000.0
