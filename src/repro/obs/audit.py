"""Per-request audit trails: trace contexts, JSONL logs, stitching.

The serving tier (DESIGN.md §10) answers ``/v1/evaluate`` in stages —
admission, the micro-batcher and engine thread or the worker pool,
the response — and the paper's tradeoff results are statements about
*individual runs*, which makes the individual request the natural
observability unit.  This module supplies the three pieces that
reconstruct what any one request did:

* :class:`TraceContext` — the request identity assigned at admission
  (honoring a client-supplied ``X-Repro-Request-Id``) plus the
  **deterministic** sampling decision: a hash of the request id, so
  the same id always gets the same keep/drop verdict.  Client-supplied
  ids are always sampled — an explicit id is a debugging signal — and
  no request header overrides the verdict.
* :class:`AuditLogger` — a per-process JSONL span log with size-based
  rotation (one ``.1`` backup) and an in-memory ring buffer backing
  ``GET /v1/debug/requests``.  ``record()`` only appends to the ring
  and enqueues — a single background writer thread owns the file and
  rotation — so the event loop, the engine thread, and worker
  callbacks may all record without ever blocking on disk I/O.
* :func:`stitch_request` / :func:`render_request_tree` — merge the
  audit records (any order — records carry wall-clock start times
  from :func:`repro.obs.runtime.utc_now_timestamp`) into one request
  tree: admission → batch/worker → engine → response, with the
  queue-wait vs compute-time split and cache hit/miss provenance
  attached.  ``repro audit <request_id>`` is a thin CLI over these.

Audit JSONL schema (``schema_version`` 1), one object per line:

* ``{"kind": "meta", "schema_version": 1, "process": str,
  "clock": "unix-epoch", "unit": "seconds"}`` — first line of every
  (rotated) file;
* ``{"kind": "span", "request_id": str|null, "trace_id": str|null,
  "process": str, "stage": str, "t_start": float, "duration": float,
  "attributes": {...}}``.

Timestamps are wall-clock epoch seconds (cross-process orderable);
durations are measured on the monotonic clock by the call sites.
Rule RC002 holds this module to :mod:`repro.obs.runtime` for both.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import queue
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from .runtime import utc_now_timestamp

AUDIT_SCHEMA_VERSION = 1

#: Wire header carrying the request id, both directions.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Client-supplied request ids must match this (anything else is
#: replaced with a generated id rather than echoed back verbatim).
_REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: Span stages a complete evaluation trace must contain (see
#: :func:`missing_stages`); ``engine`` only when a batch executed.
ADMISSION_STAGE = "admission"
BATCH_STAGE = "batch"
ENGINE_STAGE = "engine"
WORKER_STAGE = "worker"
RESPONSE_STAGE = "response"

#: Stitching order for spans sharing one process (wall clocks have
#: finite resolution; stage rank breaks the ties deterministically).
_STAGE_RANK = {
    ADMISSION_STAGE: 0,
    BATCH_STAGE: 1,
    ENGINE_STAGE: 2,
    WORKER_STAGE: 3,
    RESPONSE_STAGE: 4,
}


def new_request_id() -> str:
    """A fresh 12-hex-char request id (collision-safe at serving scale)."""
    return os.urandom(6).hex()


def deterministic_sample(request_id: str, rate: float) -> bool:
    """The process-independent sampling verdict for ``request_id``.

    blake2b maps the id to a uniform point in ``[0, 1)``; the request
    is sampled when that point falls below ``rate``.  Any process
    computes the same verdict from the id alone — no sampling state to
    keep.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        request_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64) < rate


@dataclass(frozen=True)
class TraceContext:
    """One request's identity and sampling verdict, assigned at admission."""

    request_id: str
    trace_id: str
    sampled: bool
    client_supplied: bool

    @classmethod
    def from_headers(
        cls, headers: Mapping[str, str], sample_rate: float = 1.0
    ) -> "TraceContext":
        """Admit one request: honor a valid client id, else mint one.

        ``headers`` is the parsed (lower-cased) request header mapping.
        Client-supplied ids are always sampled and generated ids roll
        :func:`deterministic_sample`; no other header is read, so a
        client can neither force auditing nor hide its own request.
        """
        supplied = headers.get(REQUEST_ID_HEADER.lower(), "").strip()
        client_supplied = bool(_REQUEST_ID_PATTERN.match(supplied))
        request_id = supplied if client_supplied else new_request_id()
        sampled = client_supplied or deterministic_sample(
            request_id, sample_rate
        )
        return cls(
            request_id=request_id,
            trace_id=request_id,
            sampled=sampled,
            client_supplied=client_supplied,
        )


class AuditLogger:
    """A per-process JSONL audit log + ring buffer, thread-safe.

    ``path=None`` disables persistence but keeps the ring buffer, so
    ``GET /v1/debug/requests`` works even without ``--audit-dir``.
    Rotation is size-based: when an append would push the file past
    ``max_bytes``, the current file moves to ``<path>.1`` (replacing
    any previous backup) and a fresh file starts with its own meta
    line — bounded disk at roughly ``2 * max_bytes`` per process.

    :meth:`record` never touches the filesystem: it appends to the
    ring and enqueues the encoded line for a single background writer
    thread, which owns the file handle, the size accounting, and
    rotation.  That keeps ``record`` safe to call from the event loop
    (rule RC006) — the old design appended and rotated inline, which
    stalled the event loop for the duration of an ``os.replace`` on
    every rotation.  :meth:`flush` blocks until everything enqueued
    so far is on disk; :meth:`close` flushes, stops the writer, and is
    idempotent (records issued after close still reach the ring).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        process: str = "server",
        max_bytes: int = 4 * 1024 * 1024,
        ring_size: int = 256,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.path = pathlib.Path(path) if path else None
        self.process = process
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring_size)
        self._size = 0
        self._records_counter = 0
        self._closed = False
        self._queue: Optional["queue.Queue[Optional[str]]"] = None
        self._writer: Optional[threading.Thread] = None
        if self.path is not None:
            # Construction is a startup-path act (server boot), so
            # the initial mkdir + meta line stay synchronous:
            # a misconfigured --audit-dir fails loudly at startup, not
            # silently in a background thread mid-flight.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._size = self._start_file()
            self._queue = queue.Queue()
            self._writer = threading.Thread(
                target=self._writer_loop,
                name=f"audit-writer-{process}",
                daemon=True,
            )
            self._writer.start()

    @property
    def records_written(self) -> int:
        return self._records_counter

    def _meta_line(self) -> str:
        return json.dumps(
            {
                "kind": "meta",
                "schema_version": AUDIT_SCHEMA_VERSION,
                "process": self.process,
                "clock": "unix-epoch",
                "unit": "seconds",
            },
            sort_keys=True,
        )

    def _start_file(self) -> int:
        """Open a fresh log file with its meta line; returns its size."""
        assert self.path is not None
        line = self._meta_line() + "\n"
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(line)
        return len(line.encode("utf-8"))

    def _writer_loop(self) -> None:
        """Drain the queue onto disk; the only code that appends/rotates.

        ``_size`` is written exclusively here after construction, so
        rotation needs no lock — single-writer ownership is the
        synchronization.  A ``None`` sentinel stops the loop.
        """
        assert self.path is not None and self._queue is not None
        while True:
            line = self._queue.get()
            try:
                if line is None:
                    return
                encoded = line.encode("utf-8")
                if self._size + len(encoded) > self.max_bytes:
                    os.replace(self.path, str(self.path) + ".1")
                    self._size = self._start_file()
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line)
                self._size += len(encoded)
            finally:
                self._queue.task_done()

    def record(
        self,
        stage: str,
        request_id: Optional[str],
        duration: float,
        t_start: Optional[float] = None,
        **attributes: Any,
    ) -> Dict[str, Any]:
        """Record one span: ring append + enqueue for the writer thread.

        ``t_start`` defaults to "now minus duration" — call sites that
        measured on the monotonic clock need not also read the wall
        clock.  Returns the record; it reaches disk asynchronously
        (call :meth:`flush` to wait for it).
        """
        if t_start is None:
            t_start = utc_now_timestamp() - duration
        entry: Dict[str, Any] = {
            "kind": "span",
            "request_id": request_id,
            "trace_id": request_id,
            "process": self.process,
            "stage": stage,
            "t_start": t_start,
            "duration": duration,
            "attributes": attributes,
        }
        line = json.dumps(entry, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._ring.append(entry)
            self._records_counter += 1
            if self._queue is not None and not self._closed:
                self._queue.put(line)
        return entry

    def flush(self) -> None:
        """Block until every record enqueued so far is on disk."""
        if self._queue is not None:
            self._queue.join()

    def close(self) -> None:
        """Flush and stop the writer thread; idempotent.

        Later :meth:`record` calls still land in the ring buffer but
        are no longer persisted — shutdown paths call this exactly to
        guarantee the file is complete before the process exits.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._queue is not None and self._writer is not None:
            self._queue.put(None)
            self._writer.join()

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The newest ring-buffer records, oldest first."""
        with self._lock:
            records = list(self._ring)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records


def audit_log_path(directory: str, process: str) -> str:
    """The canonical per-process audit file under ``directory``."""
    return str(pathlib.Path(directory) / f"audit-{process}.jsonl")


# -- engine-thread batch context ---------------------------------------
#
# The micro-batcher hands work to the engine through an executor, so
# the engine's span hook cannot receive the batch identity as an
# argument.  The batcher instead tags the engine thread before the
# call and the hook reads the tag back — a thread-local, not a
# contextvar, because run_in_executor does not propagate context to
# the worker thread.

_BATCH_CONTEXT = threading.local()


def set_batch_context(batch_id: str) -> None:
    """Tag the current thread with the executing batch's id."""
    _BATCH_CONTEXT.batch_id = batch_id


def current_batch_id() -> Optional[str]:
    """The batch id tagged on this thread, if any."""
    batch_id = getattr(_BATCH_CONTEXT, "batch_id", None)
    return str(batch_id) if batch_id is not None else None


def clear_batch_context() -> None:
    """Drop this thread's batch tag (always pair with ``set``)."""
    _BATCH_CONTEXT.batch_id = None


# -- reading and stitching ---------------------------------------------


def read_audit_log(path: str) -> List[Dict[str, Any]]:
    """All span records of one audit JSONL file (meta lines skipped).

    Tolerates a truncated final line (a process killed mid-append) —
    everything before it still stitches.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write
            if entry.get("kind") == "span":
                records.append(entry)
    return records


def load_audit_dir(directory: str) -> List[Dict[str, Any]]:
    """Every span record under ``directory`` (rotated backups included)."""
    base = pathlib.Path(directory)
    records: List[Dict[str, Any]] = []
    paths = sorted(base.glob("audit-*.jsonl")) + sorted(
        base.glob("audit-*.jsonl.1")
    )
    for path in paths:
        records.extend(read_audit_log(str(path)))
    return records


def _sort_key(record: Mapping[str, Any]) -> Tuple[float, int, str, str]:
    return (
        float(record.get("t_start", 0.0)),
        _STAGE_RANK.get(str(record.get("stage")), 99),
        str(record.get("process", "")),
        json.dumps(record.get("attributes", {}), sort_keys=True, default=str),
    )


@dataclass
class RequestTree:
    """One request's stitched span tree."""

    request_id: str
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def processes(self) -> List[str]:
        """Participating processes, in first-seen order."""
        return list(
            dict.fromkeys(str(span.get("process", "")) for span in self.spans)
        )

    def stages(self, process: Optional[str] = None) -> List[str]:
        return [
            str(span.get("stage"))
            for span in self.spans
            if process is None or span.get("process") == process
        ]

    def spans_for(self, process: str) -> List[Dict[str, Any]]:
        return [
            span for span in self.spans if span.get("process") == process
        ]

    @property
    def status(self) -> Optional[int]:
        """The final HTTP status, from the last response span seen."""
        status: Optional[int] = None
        for span in self.spans:
            if span.get("stage") == RESPONSE_STAGE:
                value = span.get("attributes", {}).get("status")
                if isinstance(value, int):
                    status = value
        return status


def stitch_request(
    records: Iterable[Mapping[str, Any]], request_id: str
) -> RequestTree:
    """The request tree for ``request_id`` from merged audit records.

    Membership is by id, plus indirection through batches: a batch
    span lists its members in ``attributes.member_request_ids``, and
    an engine span joins via ``attributes.batch_id`` — so the one
    batch span fanning in N request spans appears in all N trees.
    Input order is irrelevant: spans sort on wall-clock start time
    with a stage-rank tiebreak, which the order-independence property
    test pins.
    """
    direct: List[Dict[str, Any]] = []
    batches: Dict[str, Dict[str, Any]] = {}
    by_batch: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        entry = dict(record)
        attributes = entry.get("attributes", {}) or {}
        if entry.get("request_id") == request_id:
            direct.append(entry)
            continue
        members = attributes.get("member_request_ids")
        if isinstance(members, list) and request_id in members:
            batch_id = str(attributes.get("batch_id", ""))
            if batch_id:
                batches[batch_id] = entry
            else:
                direct.append(entry)
            continue
        batch_id = attributes.get("batch_id")
        if batch_id is not None:
            by_batch.setdefault(str(batch_id), []).append(entry)
    related: List[Dict[str, Any]] = list(direct)
    for batch_id, batch_span in batches.items():
        related.append(batch_span)
        related.extend(by_batch.get(batch_id, []))
    # A request's own spans may also carry batch ids (batch members);
    # pull the matching engine spans in for those too.
    for entry in direct:
        batch_id = entry.get("attributes", {}).get("batch_id")
        if batch_id is not None:
            for span in by_batch.get(str(batch_id), ()):
                if span not in related:
                    related.append(span)
    related.sort(key=_sort_key)
    return RequestTree(request_id=request_id, spans=related)


def missing_stages(tree: RequestTree) -> List[str]:
    """Stages a complete evaluation trace still lacks (empty = complete).

    Every trace needs admission, an execution span (batch or worker),
    and a response; a batch execution additionally needs its engine
    span.
    """
    missing: List[str] = []
    stages = set(tree.stages())
    if ADMISSION_STAGE not in stages:
        missing.append(ADMISSION_STAGE)
    if BATCH_STAGE not in stages and WORKER_STAGE not in stages:
        missing.append(f"{BATCH_STAGE}|{WORKER_STAGE}")
    if BATCH_STAGE in stages and ENGINE_STAGE not in stages:
        missing.append(ENGINE_STAGE)
    if RESPONSE_STAGE not in stages:
        missing.append(RESPONSE_STAGE)
    return missing


def _format_ms(seconds: Any) -> str:
    try:
        return f"{float(seconds) * 1e3:.2f}ms"
    except (TypeError, ValueError):
        return "?"


def render_request_tree(tree: RequestTree) -> str:
    """An indented text rendering of one stitched request tree."""
    if not tree.spans:
        return f"request {tree.request_id}: no audit records found"
    status = tree.status
    lines = [
        f"request {tree.request_id}"
        + (f"  status={status}" if status is not None else "")
    ]
    for process in tree.processes:
        lines.append(f"  {process}")
        for span in tree.spans_for(process):
            attributes = dict(span.get("attributes", {}) or {})
            detail = " ".join(
                f"{key}={value}"
                for key, value in sorted(attributes.items())
                if key not in ("member_request_ids",)
            )
            members = attributes.get("member_request_ids")
            if isinstance(members, list):
                detail = f"members={len(members)} " + detail
            lines.append(
                f"    {span.get('stage'):<10} "
                f"{_format_ms(span.get('duration'))}"
                + (f"  {detail}" if detail else "")
            )
    gaps = missing_stages(tree)
    if gaps:
        lines.append(f"  INCOMPLETE: missing {', '.join(gaps)}")
    return "\n".join(lines)
