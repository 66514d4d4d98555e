"""Process-wide observability state and the ``repro.*`` log hierarchy.

An :class:`Obs` bundles the three observability facilities — a
:class:`~repro.obs.metrics.MetricsRegistry` (always on, cheap), a
:class:`~repro.obs.tracing.Tracer` (off unless opted in), and the
execution-trace flag.  Call sites that cannot be handed one
explicitly (the module-level fast estimators, the process default
engine) read the process-wide instance via :func:`get_obs`; the CLI
swaps in a fresh one per invocation with :func:`set_obs` so its
``--trace`` / ``--metrics`` exports cover exactly one command.

:func:`setup_logging` configures the stdlib ``repro`` logger that
every module in the package parents under (``repro.engine.engine``,
``repro.adversary.search``, ...), routing ``--log-level`` without
touching the root logger or third-party handlers.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .metrics import MetricsRegistry
from .tracing import Tracer


def monotonic() -> float:
    """The repo-wide monotonic clock (seconds, arbitrary epoch).

    Every duration measured outside :mod:`repro.obs` — engine wall
    time, search timing, experiment latencies — goes through this one
    function, so measurements are immune to wall-clock adjustments and
    there is exactly one place to stub in tests.  The static analyzer
    (rule RC002, see DESIGN.md section 9) bans direct ``time.*`` /
    ``datetime.*`` calls in the evaluation layers to keep it that way.
    """
    return time.perf_counter()


def utc_now_isoformat() -> str:
    """The current wall-clock instant as an ISO-8601 UTC timestamp.

    The one sanctioned wall-clock read for the evaluation and serving
    layers: artifact stamping (``BENCH_*.json``'s ``generated_at_utc``)
    needs a real timestamp, but rule RC002 bans direct ``datetime.*``
    calls there, so call sites route through this helper instead.
    Never use it to measure durations — that is what
    :func:`monotonic` is for.
    """
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def utc_now_timestamp() -> float:
    """The current wall-clock instant as epoch seconds (UTC).

    The audit trail's ordering key: span records written by the event
    loop, the engine thread and the worker tier are stitched into one
    request tree by wall-clock start time, which a per-process
    :func:`monotonic` epoch cannot provide.  Like
    :func:`utc_now_isoformat` this is a sanctioned escape hatch from
    rule RC002 — use it for *ordering and stamping only*, never for
    durations (those stay on :func:`monotonic`).
    """
    return time.time()


#: Surfaces that are *deliberately* written from more than one
#: execution context (event loop, engine/default-executor threads) and
#: carry their own synchronization.  The static analyzer's RC008
#: shared-state rule treats any other multi-context write as a data
#: race — mirroring how RC005 fences the cacheable surface with
#: :data:`repro.engine.engine.CACHEABLE_QUALNAMES`.  Registering a
#: name here is a reviewed claim that the synchronization exists; keep
#: the justification next to the entry.
SYNCHRONIZED_QUALNAMES = (
    # GIL-atomic single-op counters/gauges; merges happen on snapshots,
    # never in place (see MetricsRegistry's class docstring).
    "repro.obs.metrics.MetricsRegistry",
    "repro.obs.metrics.Counter",
    "repro.obs.metrics.Gauge",
    "repro.obs.metrics.Histogram",
    # Ring buffer + counters guarded by AuditLogger._lock; JSONL
    # persistence is owned by the single background writer thread.
    "repro.obs.audit.AuditLogger",
    # Span records/ids guarded by Tracer._lock; the open-span stack is
    # per-thread state (threading.local) so loop and engine threads
    # cannot corrupt each other's parent attribution.
    "repro.obs.tracing.Tracer",
    # The engine's busy-guard: cache/RNG mutation is confined to the
    # single engine-executor thread, and cross-context admin calls
    # (clear_cache, reset) raise EngineBusyError instead of racing
    # (see Engine._check_not_busy).
    "repro.engine.engine.Engine",
    "repro.engine.cache.InProcessCache",
)


@dataclass
class Obs:
    """One bundle of observability state: metrics + tracer + flags."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    exec_trace: bool = False


_global_obs: Optional[Obs] = None


def get_obs() -> Obs:
    """The process-wide observability bundle (created on first use)."""
    global _global_obs
    if _global_obs is None:
        _global_obs = Obs()
    return _global_obs


def set_obs(obs: Obs) -> Obs:
    """Replace the process-wide bundle; returns the previous one."""
    global _global_obs
    previous = get_obs()
    _global_obs = obs
    return previous


LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def setup_logging(level: str = "info", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy at ``level``.

    Idempotent: repeated calls adjust the level of the single handler
    this function owns instead of stacking handlers.  Logs go to
    ``stream`` (default ``sys.stderr``) so they never pollute the
    CLI's stdout tables.
    """
    name = str(level).lower()
    if name not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LOG_LEVELS}"
        )
    numeric = getattr(logging, name.upper())
    logger = logging.getLogger("repro")
    logger.setLevel(numeric)
    handler = next(
        (h for h in logger.handlers if getattr(h, "_repro_obs", False)), None
    )
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler._repro_obs = True  # type: ignore[attr-defined]
        logger.addHandler(handler)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler.setLevel(numeric)
    logger.propagate = False
    return logger
