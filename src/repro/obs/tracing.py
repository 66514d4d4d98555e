"""Span-based tracing with monotonic clocks and JSONL export.

A :class:`Tracer` records a tree of timed spans (``with
tracer.span("engine.evaluate", ...):``) plus point-in-time events
attached to the enclosing span.  Timestamps come from
``time.perf_counter`` relative to the tracer's creation, so durations
are monotonic and immune to wall-clock adjustments.

The open span lives in a :class:`contextvars.ContextVar`, so each
asyncio task and each thread nests its own spans.  Work handed to an
executor thread keeps its parent only when it runs in a copy of the
caller's context (``contextvars.copy_context().run``).

A span is *real* when the tracer is enabled (``--trace`` / ``repro
profile``) or when it lies in a *sampled tree*: one whose root
:meth:`Tracer.root` opened with a sink.  An enabled tracer keeps its
real spans in ``records``; a sampled tree hands each of its spans to
the sink (:meth:`repro.obs.audit.AuditLogger.record`) as it closes.
Anything else is the process-wide no-op :data:`NULL_SPAN`: outside a
sampled tree a disabled tracer costs one context-variable read per
call and builds no span, so instrumented hot paths stay cheap until
someone opts in.

JSONL schema (``schema_version`` 1), shared by the ``--trace`` export
and the audit log, one JSON object per line:

* ``{"kind": "meta", "schema_version": 1, "clock": "perf_counter",
  "unit": "seconds"}`` — always the first line; an audit log adds
  ``"run"``, an id fresh for each logger (span ids restart with every
  process, so a span is identified by its run and its id);
* ``{"kind": "span", "span_id": int, "parent_id": int|null,
  "name": str, "start": float, "end": float, "duration": float,
  "depth": int, "attributes": {...}}``;
* ``{"kind": "event", "span_id": int|null, "name": str,
  "time": float, "attributes": {...}}``.
"""

from __future__ import annotations

import contextvars
import io
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Union

TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start: float
    end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to the span; returns the span."""
        self.attributes.update(attributes)
        return self

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "attributes": self.attributes,
        }


@dataclass
class Event:
    """A point-in-time annotation under the enclosing span."""

    name: str
    span_id: Optional[int]
    time: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": "event",
            "span_id": self.span_id,
            "name": self.name,
            "time": self.time,
            "attributes": self.attributes,
        }


class _NullSpan:
    """The shared no-op span: context manager and attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

#: A span as call sites hold it: a real one or :data:`NULL_SPAN`.
AnySpan = Union[Span, _NullSpan]


class SpanSink(Protocol):
    """Receives every closed span of a sampled tree."""

    def record(self, span: Span) -> None: ...


def meta_record() -> Dict[str, Any]:
    """The meta line that opens every span JSONL file."""
    return {
        "kind": "meta",
        "schema_version": TRACE_SCHEMA_VERSION,
        "clock": "perf_counter",
        "unit": "seconds",
    }


class _SpanContext:
    """Opens a span under the current one on entry, closes it on exit.

    While open it is the value of its tracer's context variable, which
    is how children find their parent and the sink of their tree.
    """

    __slots__ = (
        "_tracer", "_name", "_attributes", "_root", "sink", "span", "_token"
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Dict[str, object],
        sink: Optional[SpanSink] = None,
        root: bool = False,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._root = root
        self.sink = sink

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = None if self._root else tracer._current.get()
        if parent is not None:
            self.sink = parent.sink
        self.span = Span(
            name=self._name,
            span_id=tracer._allocate_id(),
            parent_id=parent.span.span_id if parent is not None else None,
            depth=parent.span.depth + 1 if parent is not None else 0,
            start=tracer._now(),
            attributes=self._attributes,
        )
        self._token = tracer._current.set(self)
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        span = self.span
        tracer = self._tracer
        span.end = tracer._now()
        try:
            tracer._current.reset(self._token)
        except (RuntimeError, ValueError):
            pass  # exited in another context than it entered: not ours
        if tracer.enabled:
            with tracer._lock:
                tracer.records.append(span)
        if self.sink is not None:
            self.sink.record(span)
        return False


class _Detached:
    """An unsampled root opened inside another tree: no span, but its
    body runs with no open span, so nothing in it nests under (or
    reaches the sink of) a tree it does not belong to."""

    __slots__ = ("_current", "_token")

    def __init__(
        self, current: "contextvars.ContextVar[Optional[_SpanContext]]"
    ) -> None:
        self._current = current

    def __enter__(self) -> _NullSpan:
        self._token = self._current.set(None)
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        try:
            self._current.reset(self._token)
        except (RuntimeError, ValueError):
            pass  # exited in another context than it entered: not ours
        return False


class Tracer:
    """Records nested spans and events; exports JSONL.

    ``records`` holds finished spans (appended at close) and events
    (appended at emit), so an open span only becomes visible once its
    ``with`` block exits.  It fills only while the tracer is enabled:
    spans of a sampled tree on a disabled tracer reach their sink and
    nothing else, so a long-running server without ``--trace`` holds
    no spans.

    Thread-safety: the serving tier opens spans from both the event
    loop and the engine-executor thread, so ``records`` appends and
    span-id allocation are guarded by ``_lock``.  The open span is a
    context variable, so concurrent tasks and threads never adopt
    each other's parent.  The tracer is registered in
    :data:`repro.obs.runtime.SYNCHRONIZED_QUALNAMES` on the strength
    of exactly this scheme.
    """

    __slots__ = ("enabled", "records", "_current", "_next_id", "_t0", "_lock")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[Union[Span, Event]] = []
        self._current: "contextvars.ContextVar[Optional[_SpanContext]]" = (
            contextvars.ContextVar("repro.obs.tracing.open_span", default=None)
        )
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def span(
        self, name: str, **attributes: object
    ) -> Union[_SpanContext, _NullSpan]:
        """A context manager timing ``name`` under the current span.

        The no-op :data:`NULL_SPAN` when the tracer is disabled and no
        span of a sampled tree is open in this context.
        """
        if not self.enabled and self._current.get() is None:
            return NULL_SPAN
        return _SpanContext(self, name, attributes)

    def root(
        self, name: str, sink: Optional[SpanSink] = None, **attributes: object
    ) -> Union[_SpanContext, _NullSpan, _Detached]:
        """A context manager timing ``name`` as a new tree's root.

        The root has no parent, whatever span is open.  With a
        ``sink`` the tree is sampled: it is real even on a disabled
        tracer, and each of its spans goes to ``sink.record`` as it
        closes.  An unsampled root on a disabled tracer yields
        :data:`NULL_SPAN`, and its body runs outside any open span.
        """
        if not self.enabled and sink is None:
            if self._current.get() is None:
                return NULL_SPAN
            return _Detached(self._current)
        return _SpanContext(self, name, attributes, sink, root=True)

    def event(self, name: str, **attributes: object) -> Optional[Event]:
        """Record a point-in-time event under the current span."""
        if not self.enabled:
            return None
        parent = self._current.get()
        event = Event(
            name=name,
            span_id=parent.span.span_id if parent is not None else None,
            time=self._now(),
            attributes=attributes,
        )
        with self._lock:
            self.records.append(event)
        return event

    @property
    def spans(self) -> List[Span]:
        """All finished spans, in close order."""
        with self._lock:
            records = list(self.records)
        return [record for record in records if isinstance(record, Span)]

    @property
    def events(self) -> List[Event]:
        """All events, in emit order."""
        with self._lock:
            records = list(self.records)
        return [record for record in records if isinstance(record, Event)]

    def clear(self) -> None:
        """Drop recorded spans/events (ids restart, clock keeps running).

        Spans still open close into the fresh record list.
        """
        with self._lock:
            self.records.clear()
            self._next_id = 1

    def to_jsonl(self) -> str:
        """The JSONL export (meta line + one line per record)."""
        out = io.StringIO()
        out.write(json.dumps(meta_record()))
        out.write("\n")
        with self._lock:
            records = list(self.records)
        for record in sorted(
            records, key=lambda r: (r.start if isinstance(r, Span) else r.time)
        ):
            out.write(json.dumps(record.to_record(), default=str))
            out.write("\n")
        return out.getvalue()

    def export_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_span_tree(tracer: Tracer) -> str:
    """An indented text rendering of the span tree, with durations.

    Sibling spans sharing a name are collapsed into one aggregated
    line (``name xN total=... avg=...``) and their subtrees are
    aggregated together, so wide fan-outs (one span per search
    strategy call) stay readable.  Events are summarized per group.
    """
    spans = sorted(tracer.spans, key=lambda span: (span.start, span.span_id))
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    events_by_span: Dict[Optional[int], List[Event]] = {}
    for event in tracer.events:
        events_by_span.setdefault(event.span_id, []).append(event)
    lines: List[str] = []

    def emit(group: List[Span], indent: int) -> None:
        pad = "  " * indent
        total = sum(span.duration for span in group)
        name = group[0].name
        if len(group) == 1:
            lines.append(f"{pad}{name}  {_format_duration(total)}")
        else:
            lines.append(
                f"{pad}{name}  x{len(group)}  total={_format_duration(total)}"
                f"  avg={_format_duration(total / len(group))}"
            )
        event_counts: Dict[str, int] = {}
        for span in group:
            for event in events_by_span.get(span.span_id, ()):
                event_counts[event.name] = event_counts.get(event.name, 0) + 1
        for event_name, count in sorted(event_counts.items()):
            lines.append(f"{pad}  * {event_name} x{count}")
        grouped: Dict[str, List[Span]] = {}
        order: List[str] = []
        for span in group:
            for child in children.get(span.span_id, ()):
                if child.name not in grouped:
                    grouped[child.name] = []
                    order.append(child.name)
                grouped[child.name].append(child)
        for child_name in order:
            emit(grouped[child_name], indent + 1)

    roots = children.get(None, [])
    grouped_roots: Dict[str, List[Span]] = {}
    root_order: List[str] = []
    for span in roots:
        if span.name not in grouped_roots:
            grouped_roots[span.name] = []
            root_order.append(span.name)
        grouped_roots[span.name].append(span)
    for name in root_order:
        emit(grouped_roots[name], 0)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)
