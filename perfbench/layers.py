"""Which program functions are traced, and the per-layer metrics.

Every wrapper patches a name where its caller looks it up (a module
attribute or a class attribute), from the benchmark's own files; the
program's sources are never edited.  :func:`install_search` is called
by the search worker, :func:`install_serve` by the traced server
launcher, and :func:`layer_metrics` turns the recorded spans into the
per-op numbers the benchmark prints.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from .spans import COUNT, END, NAME, OP, PARENT, START, Recorder, Span, now, self_times

#: Span name -> the per-layer metric its self time is reported under.
LAYER_OF_SPAN: Dict[str, str] = {
    "adversary.search": "adversary.search.self_ms",
    "core.packed.enumerate": "core.packed.enumerate_ms",
    "adversary.structured.runs": "adversary.structured.runs_ms",
    "core.packed.pack": "core.packed.pack_ms",
    "engine.vectorized.kernel": "engine.vectorized.kernel_ms",
    "engine.vectorized.neighbors": "engine.vectorized.neighbors_ms",
    "engine": "engine.self_ms",
    "engine.cache.get": "engine.cache.ms",
    "engine.cache.put": "engine.cache.ms",
    "core.probability.reference": "core.probability.reference_ms",
    "service.http.read": "service.http.read_ms",
    "service.specs.parse": "service.specs.parse_ms",
    "service.http.encode": "service.http.encode_ms",
    "service.batcher.submit": "service.batcher.wait_ms",
    "service.specs.response": "service.specs.response_ms",
    "obs.audit.record": "obs.audit.record_ms",
    "service.server.request": "service.server.other_ms",
}

TIME_METRICS = sorted(set(LAYER_OF_SPAN.values())) + ["client.overhead_ms"]

#: Every per-layer metric, with its unit, in print order.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "ms" for name in TIME_METRICS},
    "engine.vectorized.runs_per_call": "count",
    "adversary.search.runs_examined": "count",
    "adversary.search.orbit_reduction": "ratio",
    "engine.cache.lookups": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.entries": "count",
    "engine.reference_share": "ratio",
    "service.batcher.batch_size": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "host.steal_s": "s",
    "host.other_cpu_s": "s",
}

KERNELS = ("engine.vectorized.kernel", "engine.vectorized.neighbors")


def _batch_len(args: tuple, kwargs: dict, result: Any) -> float:
    return len(args[2])


def _neighbors_len(args: tuple, kwargs: dict, result: Any) -> float:
    return 1 + len(result[1])


def _hit(args: tuple, kwargs: dict, result: Any) -> float:
    return 0.0 if result is None else 1.0


def _cache_len(args: tuple, kwargs: dict, result: Any) -> float:
    return len(args[0])


ENGINE_METHODS = ("evaluate", "evaluate_many", "evaluate_packed_many", "evaluate_neighbors")


def _install_engine(recorder: Recorder, scope: Optional[Callable] = None) -> List[Callable]:
    restores = [
        recorder.patch(f"repro.engine.engine:Engine.{method}", "engine", scope=scope)
        for method in ENGINE_METHODS
    ]
    restores += [
        recorder.patch("repro.engine.engine.evaluate", "core.probability.reference"),
        recorder.patch(
            "repro.engine.vectorized.evaluate_packed_batch",
            "engine.vectorized.kernel",
            count=_batch_len,
        ),
        recorder.patch(
            "repro.engine.vectorized.evaluate_batch",
            "engine.vectorized.kernel",
            count=_batch_len,
        ),
        recorder.patch(
            "repro.engine.vectorized.evaluate_neighbor_batch",
            "engine.vectorized.neighbors",
            count=_neighbors_len,
        ),
        recorder.patch("repro.engine.cache:InProcessCache.get", "engine.cache.get", count=_hit),
        recorder.patch(
            "repro.engine.cache:InProcessCache.put", "engine.cache.put", count=_cache_len
        ),
        recorder.patch("repro.core.packed:RunBatch.from_bits", "core.packed.pack"),
        recorder.patch("repro.core.packed:RunBatch.from_runs", "core.packed.pack"),
        recorder.patch("repro.core.packed:RunLayout.pack_bits", "core.packed.pack"),
    ]
    return restores


def install_search(recorder: Recorder) -> Callable[[], None]:
    """Trace the worst-run search and the engine under it."""
    restores = _install_engine(recorder)
    restores += [
        recorder.patch("repro.adversary.search.worst_case_unsafety", "adversary.search"),
        recorder.patch(
            "repro.adversary.search.enumerate_orbit_representatives",
            "core.packed.enumerate",
            iterator=True,
        ),
        recorder.patch(
            "repro.adversary.strong:StrongAdversary.enumerate_packed",
            "core.packed.enumerate",
            iterator=True,
        ),
        recorder.patch("repro.adversary.structured:RunFamily.runs", "adversary.structured.runs"),
        recorder.patch("repro.adversary.search.random_run", "adversary.structured.runs"),
    ]

    def restore() -> None:
        for undo in reversed(restores):
            undo()

    return restore


class _FirstLineTimer:
    """Stream proxy noting when a request's first line has arrived.

    A keep-alive connection parks in ``read_request`` until the client
    sends again; that idle time is the client's, not the parser's.
    """

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.first: Optional[float] = None

    async def readline(self) -> bytes:
        line: bytes = await self._reader.readline()
        if self.first is None:
            self.first = now()
        return line

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


def install_serve(recorder: Recorder) -> None:
    """Trace one request from first byte to encoded response.

    Each request is an op, numbered in arrival order.  Its root span
    ``service.server.request`` runs from the arrival of the request
    line to the return of ``render_response``.  The engine call of a
    micro-batch runs under its own batch op, whose members are the ops
    whose runs it evaluated.  Executor hand-offs copy the submitting
    task's context, as ``asyncio.to_thread`` does, so work done on an
    executor thread keeps its op and parent.
    """
    import repro.service.batcher as batcher_module
    import repro.service.server as server_module
    from repro.core.run import Run

    ops = itertools.count()
    roots: Dict[int, tuple] = {}
    waiting: Dict[int, int] = {}
    current_span, current_op = recorder.current_span, recorder.current_op

    def batch_scope(args: tuple, kwargs: dict) -> Optional[str]:
        runs = args[3] if len(args) > 3 else kwargs.get("runs", kwargs.get("run"))
        if isinstance(runs, Run):
            runs = [runs]
        if not isinstance(runs, list):
            return None
        popped = (waiting.pop(id(run), None) for run in runs)
        members = [op for op in popped if op is not None]
        return recorder.new_batch(members) if members else None

    _install_engine(recorder, scope=batch_scope)

    original_read = server_module.read_request

    async def read_request(reader: Any, *args: Any, **kwargs: Any) -> Any:
        timer = _FirstLineTimer(reader)
        request = await original_read(timer, *args, **kwargs)
        if request is None or timer.first is None:
            return request
        op, root = next(ops), recorder.new_id()
        current_op.set(op)
        current_span.set(root)
        roots[op] = (root, timer.first)
        recorder.add(recorder.new_id(), "service.http.read", timer.first, now(), root, op)
        return request

    original_render = server_module.render_response

    def render_response(*args: Any, **kwargs: Any) -> bytes:
        start = now()
        body: bytes = original_render(*args, **kwargs)
        end = now()
        op = current_op.get()
        opened = roots.pop(op, None) if op is not None else None
        if opened is not None:
            root, root_start = opened
            recorder.add(recorder.new_id(), "service.http.encode", start, end, root, op)
            recorder.add(root, "service.server.request", root_start, end, None, op)
            current_op.set(None)
            current_span.set(None)
        return body

    original_submit = batcher_module.MicroBatcher.submit

    async def submit(self: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
        op = current_op.get()
        if op is not None:
            waiting[id(request.run)] = op
        return await original_submit(self, request, *args, **kwargs)

    server_module.read_request = read_request
    server_module.render_response = render_response
    batcher_module.MicroBatcher.submit = recorder.wrap("service.batcher.submit", submit)
    recorder.patch("repro.service.server.parse_evaluate_payload", "service.specs.parse")
    recorder.patch("repro.service.server.build_evaluate_response", "service.specs.response")
    recorder.patch("repro.obs.audit:AuditLogger.record", "obs.audit.record")

    original_run_in_executor = asyncio.BaseEventLoop.run_in_executor

    def run_in_executor(self: Any, executor: Any, func: Any, *args: Any) -> Any:
        context = contextvars.copy_context()
        return original_run_in_executor(self, executor, context.run, func, *args)

    asyncio.BaseEventLoop.run_in_executor = run_in_executor  # type: ignore[method-assign]


def layer_metrics(
    exported: Dict[str, Any],
    timed_ops: Sequence[int],
    latencies_s: Sequence[float],
) -> Dict[str, float]:
    """Per-op layer metrics from one traced window's spans.

    ``timed_ops`` are the ops of the timed window (warm-up ops are left
    out) and ``latencies_s`` their latencies as the caller measured
    them.  A batch's spans count in full for each of its members, since
    each member waited for the whole batch.  Counts are totals over
    the window divided by the number of ops.
    """
    spans: List[Span] = [tuple(span) for span in exported["spans"]]  # type: ignore[misc]
    timed = set(timed_ops)
    members = {
        batch: [op for op in ops if op in timed]
        for batch, ops in exported["batches"].items()
    }
    batch_roots: Dict[str, List[Span]] = {}
    for span in spans:
        if span[PARENT] is None and span[OP] in members:
            batch_roots.setdefault(span[OP], []).append(span)
    batch_of = {op: batch for batch, ops in members.items() for op in ops}
    extra = {
        span[0]: batch_roots.get(batch_of[span[OP]], [])
        for span in spans
        if span[NAME] == "service.batcher.submit" and span[OP] in batch_of
    }
    selfs = self_times(spans, extra)

    def weight(span: Span) -> int:
        op = span[OP]
        if op in members:
            return len(members[op])
        return 1 if op in timed else 0

    n_ops = max(1, len(timed))
    totals = {name: 0.0 for name in TIME_METRICS}
    counted = [span for span in spans if weight(span)]
    for span in counted:
        layer = LAYER_OF_SPAN.get(span[NAME])
        if layer is not None:
            totals[layer] += selfs[span[0]] * weight(span)
    metrics = {name: total * 1e3 / n_ops for name, total in totals.items()}

    def named(name: str) -> List[Span]:
        return [span for span in counted if span[NAME] == name]

    roots = named("service.server.request")
    if roots:
        server_ms = sum(span[END] - span[START] for span in roots) * 1e3 / len(roots)
        metrics["client.overhead_ms"] = sum(latencies_s) * 1e3 / len(latencies_s) - server_ms
    lookups = named("engine.cache.get")
    # Entries count the whole cache, warm-up inserts included.
    puts = [span for span in spans if span[NAME] == "engine.cache.put"]
    kernels = [span for span in counted if span[NAME] in KERNELS]
    vectorized_runs = sum(span[COUNT] for span in kernels)
    references = len(named("core.probability.reference"))
    batches = [len(ops) for ops in members.values() if ops]
    latency_ms = sum(latencies_s) * 1e3 / max(1, len(latencies_s))
    metrics.update(
        {
            "engine.cache.lookups": len(lookups) / n_ops,
            "engine.cache.hit_ratio": (
                sum(span[COUNT] for span in lookups) / len(lookups) if lookups else 0.0
            ),
            "engine.cache.entries": float(max((span[COUNT] for span in puts), default=0)),
            "engine.reference_share": (
                references / (references + vectorized_runs)
                if references + vectorized_runs
                else 0.0
            ),
            "engine.vectorized.runs_per_call": (
                vectorized_runs / len(kernels) if kernels else 0.0
            ),
            "service.batcher.batch_size": sum(batches) / len(batches) if batches else 0.0,
            "trace.unattributed_ms": latency_ms - sum(metrics[name] for name in TIME_METRICS),
        }
    )
    return metrics
