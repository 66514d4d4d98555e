"""Per-request audit trails: trace contexts, the span log, stitching.

The serving tier (DESIGN.md §10) answers ``/v1/evaluate`` in stages —
admission, the micro-batcher and engine thread or the worker pool,
the response — and the paper's tradeoff results are statements about
*individual runs*, which makes the individual request the natural
observability unit.  Its spans come from the one
:class:`~repro.obs.tracing.Tracer`; this module supplies the three
pieces that reconstruct what any one request did:

* :class:`TraceContext` — the request identity assigned at admission
  (honoring a client-supplied ``X-Repro-Request-Id``) plus the
  **deterministic** sampling decision: a hash of the request id, so
  the same id always gets the same keep/drop verdict.  Client-supplied
  ids are always sampled — an explicit id is a debugging signal — and
  no request header overrides the verdict.
* :class:`AuditLogger` — the sink of sampled span trees: a JSONL log
  in the tracer's record schema with size-based rotation (one ``.1``
  backup) and an in-memory ring buffer backing ``GET
  /v1/debug/requests``.  ``record()`` only appends to the ring and
  enqueues — a single background writer thread encodes, owns the file
  and rotates — so the event loop and the engine thread may record
  without ever blocking on disk I/O.
* :func:`stitch_request` / :func:`render_request_tree` — join the
  logged spans into one request tree by parent links: the request's
  ``service.request`` root, every ``service.batch`` root listing it
  as a member, and their descendants, with the queue-wait vs
  compute-time split and cache hit/miss provenance attached.  ``repro
  audit <request_id>`` is a thin CLI over these.

The log's schema is :mod:`repro.obs.tracing`'s JSONL export; its meta
line adds ``run``, fresh for each logger, because span ids restart
with every process and a restarted server may find an earlier run's
backup in its directory.  Stitching joins spans only within a run.
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

from .tracing import Span, meta_record

#: Wire header carrying the request id, both directions.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Client-supplied request ids must match this (anything else is
#: replaced with a generated id rather than echoed back verbatim).
_REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: The audit log's file name under ``--audit-dir``.
AUDIT_FILE = "audit-server.jsonl"

#: The span names a complete evaluation tree is made of (see
#: :func:`missing_stages`).
REQUEST_SPAN = "service.request"
BATCH_SPAN = "service.batch"
WORKER_SPAN = "service.worker"
ENGINE_SPAN_PREFIX = "engine."


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
            sampled=sampled,
            client_supplied=client_supplied,
        )


class AuditLogger:
    """The span sink: a JSONL log + ring buffer, thread-safe.

    ``path=None`` disables persistence but keeps the ring buffer, so
    ``GET /v1/debug/requests`` works even without ``--audit-dir``.
    Rotation is size-based: when an append would push the file past
    ``max_bytes``, the current file moves to ``<path>.1`` (replacing
    any previous backup) and a fresh file starts with its own meta
    line — bounded disk at roughly ``2 * max_bytes``.  A new logger
    rotates a log an earlier run left behind the same way, so the
    directory always holds the newest spans of each run it covers, and
    every parent a logged span names is logged too (parents close
    after their children).

    :meth:`record` never touches the filesystem and encodes nothing:
    it appends the span to the ring and, when there is a file,
    enqueues it for a single background writer thread, which encodes
    it and owns the file handle, the size accounting, and rotation.
    That keeps ``record`` safe to call from the event loop (rule
    RC006).  :meth:`flush` blocks until everything enqueued so far is
    on disk; :meth:`close` flushes, stops the writer, and is idempotent
    (records issued after close still reach the ring).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_bytes: int = 4 * 1024 * 1024,
        ring_size: int = 256,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.path = pathlib.Path(path) if path else None
        self.max_bytes = max_bytes
        self.run_id = new_request_id()
        self._lock = threading.Lock()
        self._ring: Deque[Span] = deque(maxlen=ring_size)
        self._size = 0
        self._records_counter = 0
        self._closed = False
        self._queue: Optional["queue.Queue[Optional[Span]]"] = None
        self._writer: Optional[threading.Thread] = None
        if self.path is not None:
            # Construction is a startup-path act (server boot), so
            # the initial mkdir + meta line stay synchronous:
            # a misconfigured --audit-dir fails loudly at startup, not
            # silently in a background thread mid-flight.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                self._rotate()
            self._size = self._start_file()
            self._queue = queue.Queue()
            self._writer = threading.Thread(
                target=self._writer_loop, name="audit-writer", daemon=True
            )
            self._writer.start()

    @property
    def records_written(self) -> int:
        return self._records_counter

    def _start_file(self) -> int:
        """Open a fresh log file with its meta line; returns its size."""
        assert self.path is not None
        meta = dict(meta_record(), run=self.run_id)
        line = json.dumps(meta) + "\n"
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(line)
        return len(line.encode("utf-8"))

    def _rotate(self) -> None:
        assert self.path is not None
        os.replace(self.path, str(self.path) + ".1")

    def _writer_loop(self) -> None:
        """Drain the queue onto disk; the only code that appends/rotates.

        ``_size`` is written exclusively here after construction, so
        rotation needs no lock — single-writer ownership is the
        synchronization.  A ``None`` sentinel stops the loop.
        """
        assert self.path is not None and self._queue is not None
        while True:
            span = self._queue.get()
            try:
                if span is None:
                    return
                line = json.dumps(span.to_record(), default=str) + "\n"
                encoded = line.encode("utf-8")
                if self._size + len(encoded) > self.max_bytes:
                    self._rotate()
                    self._size = self._start_file()
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line)
                self._size += len(encoded)
            finally:
                self._queue.task_done()

    def record(self, span: Span) -> None:
        """Take one closed span: ring append, plus a writer-queue entry
        when there is a file (it reaches disk asynchronously; call
        :meth:`flush` to wait for it)."""
        with self._lock:
            self._ring.append(span)
            self._records_counter += 1
            if self._queue is not None and not self._closed:
                self._queue.put(span)

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
        """The newest ring-buffer spans as records, oldest first."""
        with self._lock:
            spans = list(self._ring)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [span.to_record() for span in spans]


def audit_log_path(directory: str) -> str:
    """The audit log file under ``directory``."""
    return str(pathlib.Path(directory) / AUDIT_FILE)


# -- reading and stitching ---------------------------------------------


def read_audit_log(path: str) -> List[Dict[str, Any]]:
    """All span records of one audit JSONL file, each tagged with the
    ``run`` of the meta line above it.

    Tolerates a truncated final line (a process killed mid-append) —
    everything before it still stitches.
    """
    records: List[Dict[str, Any]] = []
    run = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write
            if entry.get("kind") == "meta":
                run = entry.get("run")
            elif entry.get("kind") == "span":
                entry["run"] = run
                records.append(entry)
    return records


def load_audit_dir(directory: str) -> List[Dict[str, Any]]:
    """Every span record under ``directory`` (rotated backup included)."""
    path = audit_log_path(directory)
    records: List[Dict[str, Any]] = []
    for generation in (path + ".1", path):
        if os.path.exists(generation):
            records.extend(read_audit_log(generation))
    return records


def _span_key(record: Mapping[str, Any]) -> Tuple[Any, Any]:
    """A span's identity: its run and its id within the run."""
    return record.get("run"), record.get("span_id")


def _order(record: Mapping[str, Any]) -> Tuple[str, float, int]:
    return (
        str(record.get("run")),
        float(record.get("start") or 0.0),
        int(record.get("span_id") or 0),
    )


@dataclass
class RequestTree:
    """One request's stitched spans, parents before their children."""

    request_id: str
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def names(self) -> List[str]:
        return [str(span.get("name")) for span in self.spans]

    @property
    def status(self) -> Optional[int]:
        """The final HTTP status, from the last request span seen."""
        status: Optional[int] = None
        for span in self.spans:
            if span.get("name") == REQUEST_SPAN:
                value = (span.get("attributes") or {}).get("status")
                if isinstance(value, int):
                    status = value
        return status


def stitch_request(
    records: Iterable[Mapping[str, Any]], request_id: str
) -> RequestTree:
    """The request tree for ``request_id`` from logged span records.

    The roots are the spans without a parent whose ``request_id``
    attribute is the id, or whose ``member_request_ids`` lists it — so
    the one batch span fanning in N requests appears in all N trees.
    Every descendant of a root joins by parent link within the root's
    run.  Spans come out depth first, each root and each set of
    siblings ordered by start, so the input order is irrelevant (the
    order-independence property test pins that).
    """
    children: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for record in records:
        entry = dict(record)
        parent = entry.get("parent_id")
        if parent is not None:
            children.setdefault((entry.get("run"), parent), []).append(entry)
            continue
        attributes = entry.get("attributes") or {}
        members = attributes.get("member_request_ids")
        if attributes.get("request_id") == request_id or (
            isinstance(members, list) and request_id in members
        ):
            roots.append(entry)
    spans: List[Dict[str, Any]] = []

    def visit(span: Dict[str, Any]) -> None:
        spans.append(span)
        for child in sorted(children.get(_span_key(span), ()), key=_order):
            visit(child)

    for root in sorted(roots, key=_order):
        visit(root)
    return RequestTree(request_id=request_id, spans=spans)


def missing_stages(tree: RequestTree) -> List[str]:
    """What a complete evaluation tree still lacks (empty = complete).

    A complete tree has the request span with its ``status`` and
    ``admitted`` attributes, and an execution: a batch span with an
    engine span under it, or a worker span under the request span.
    """
    missing: List[str] = []
    requests = [span for span in tree.spans if span.get("name") == REQUEST_SPAN]
    if not requests:
        missing.append(REQUEST_SPAN)
    for attribute in ("status", "admitted"):
        if requests and not any(
            attribute in (span.get("attributes") or {}) for span in requests
        ):
            missing.append(f"{REQUEST_SPAN}.{attribute}")
    names = {_span_key(span): str(span.get("name")) for span in tree.spans}

    def executes(span: Mapping[str, Any]) -> bool:
        name = str(span.get("name"))
        parent = names.get((span.get("run"), span.get("parent_id")))
        return (parent == BATCH_SPAN and name.startswith(ENGINE_SPAN_PREFIX)) or (
            parent == REQUEST_SPAN and name == WORKER_SPAN
        )

    if not any(executes(span) for span in tree.spans):
        missing.append(
            f"{ENGINE_SPAN_PREFIX}* under {BATCH_SPAN}"
            if BATCH_SPAN in names.values()
            else f"{BATCH_SPAN}|{WORKER_SPAN}"
        )
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
    for span in tree.spans:
        attributes = dict(span.get("attributes") or {})
        members = attributes.pop("member_request_ids", None)
        detail = " ".join(
            f"{key}={value}" for key, value in sorted(attributes.items())
        )
        if isinstance(members, list):
            detail = f"members={len(members)} " + detail
        pad = "  " * (1 + int(span.get("depth") or 0))
        lines.append(
            f"{pad}{span.get('name')}  {_format_ms(span.get('duration'))}"
            + (f"  {detail}" if detail else "")
        )
    gaps = missing_stages(tree)
    if gaps:
        lines.append(f"  INCOMPLETE: missing {', '.join(gaps)}")
    return "\n".join(lines)
