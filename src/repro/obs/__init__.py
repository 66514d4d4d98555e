"""Observability: metrics, tracing, execution traces, and logging.

One zero-dependency subsystem behind every "where did the time go"
question in the reproduction:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket
  histograms in a :class:`MetricsRegistry` with snapshot / merge /
  JSON export.  Always on: the evaluation engine's ``EngineStats``
  is a thin view over one of these.
* :mod:`repro.obs.tracing` — a span :class:`Tracer` (context-manager
  API, monotonic clocks, parent/child nesting per task and thread,
  JSONL export).  Off by default; disabled call sites outside a
  sampled tree hit a shared no-op singleton.
* :mod:`repro.obs.exec_trace` — opt-in per-round protocol events:
  messages delivered/cut, ``L_i^r`` / ``ML_i^r`` progression, fire
  decisions vs ``rfire``.
* :mod:`repro.obs.audit` — per-request audit trails for the serving
  tier: :class:`TraceContext` sampling, the span log that sampled
  trees sink into (:class:`AuditLogger`), and the stitching behind
  ``repro audit <request_id>``.
* :mod:`repro.obs.runtime` — the process-wide :class:`Obs` bundle and
  the ``repro.*`` logging hierarchy.

Surfaced via ``--trace FILE.jsonl`` / ``--metrics FILE.json`` /
``--log-level`` on the CLI and the ``repro profile`` subcommand; see
DESIGN.md section 8 for the architecture and schemas.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    AnySpan,
    Event,
    Span,
    Tracer,
    render_span_tree,
)
from .exec_trace import trace_execution
from .audit import (
    REQUEST_ID_HEADER,
    AuditLogger,
    RequestTree,
    TraceContext,
    audit_log_path,
    deterministic_sample,
    load_audit_dir,
    missing_stages,
    new_request_id,
    read_audit_log,
    render_request_tree,
    stitch_request,
)
from .runtime import (
    LOG_LEVELS,
    Obs,
    get_obs,
    monotonic,
    set_obs,
    setup_logging,
    utc_now_isoformat,
)

__all__ = [
    "AnySpan",
    "AuditLogger",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Event",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "NULL_SPAN",
    "Obs",
    "REQUEST_ID_HEADER",
    "RequestTree",
    "SCHEMA_VERSION",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "Tracer",
    "audit_log_path",
    "deterministic_sample",
    "get_obs",
    "load_audit_dir",
    "missing_stages",
    "monotonic",
    "new_request_id",
    "read_audit_log",
    "render_request_tree",
    "render_span_tree",
    "set_obs",
    "setup_logging",
    "stitch_request",
    "trace_execution",
    "utc_now_isoformat",
]
