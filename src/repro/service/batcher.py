"""The micro-batcher: coalesce concurrent requests into engine batches.

Requests that share an :meth:`Engine.batch_key
<repro.engine.Engine.batch_key>` — same protocol, topology, method,
and trial count, only the run differs — are submitted as **one**
:meth:`Engine.evaluate_many <repro.engine.Engine.evaluate_many>` call.
A request that finds the engine thread idle is dispatched at once;
requests that arrive while a batch computes coalesce (up to
``max_batch``) into the next one, dispatched when that batch returns.
Under concurrent load this turns N scalar evaluations into one
vectorized batch plus one memo-cache sweep; an idle service degrades
to scalar calls that wait on no clock.

Engine work runs on a dedicated single-thread executor: the engine's
memo cache is not thread-safe, and one worker thread both serializes
it and keeps the event loop free to accept requests while a batch
computes.  Each batch is a ``service.batch`` root span, sampled when
any member is, and the engine call runs in a copy of its context, so
the engine's own span is the batch span's child.  Only exact (cacheable) requests belong here — Monte Carlo
estimates would consume one shared rng stream in coalescing order,
making results depend on who else was in flight; those go to the
worker tier instead (see :mod:`repro.service.workers`).
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.probability import EventProbabilities
from ..engine import Engine
from ..obs import NULL_SPAN, AuditLogger, MetricsRegistry, TraceContext
from ..obs.audit import BATCH_SPAN
from ..obs.runtime import monotonic
from .specs import EvaluateRequest

#: Batch-size histogram buckets: powers of two up to a generous cap.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _PendingBatch:
    """One forming batch: requests plus the futures awaiting them."""

    __slots__ = ("requests", "futures", "traces", "submitted")

    def __init__(self) -> None:
        self.requests: List[EvaluateRequest] = []
        self.futures: List["asyncio.Future[EventProbabilities]"] = []
        self.traces: List[Optional[TraceContext]] = []
        self.submitted: List[float] = []


class MicroBatcher:
    """Coalesces concurrent scalar evaluations into engine batch calls."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricsRegistry,
        max_batch: int = 32,
        audit: Optional[AuditLogger] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        assert engine.obs is not None
        self._engine = engine
        self._tracer = engine.obs.tracer
        self._max_batch = max_batch
        self._audit = audit
        self._pending: Dict[tuple, _PendingBatch] = {}
        self._running = 0  # batches handed to the engine thread
        self._dispatch_scheduled = False
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._size_histogram = metrics.histogram(
            "service.batch.size", BATCH_SIZE_BUCKETS
        )
        self._flush_counter = metrics.counter("service.batch.flushes")
        self._request_counter = metrics.counter("service.batch.requests")
        self._coalesced_counter = metrics.counter("service.batch.coalesced")

    async def submit(
        self,
        request: EvaluateRequest,
        trace: Optional[TraceContext] = None,
    ) -> EventProbabilities:
        """Evaluate one request, possibly riding a coalesced batch.

        ``trace`` is the request's audit identity: the batch span lists
        every member's id (with the queue-wait each one paid for
        coalescing), which is how ``repro audit`` joins one batch span
        to N request spans, and a sampled member samples the batch.
        """
        loop = asyncio.get_running_loop()
        self._request_counter.inc()
        key = self._engine.batch_key(
            request.protocol,
            request.topology,
            request.method,
            request.trials,
        )
        if key is None:
            key = (object(),)  # unhashable spec: a batch of its own
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = _PendingBatch()
        future: "asyncio.Future[EventProbabilities]" = loop.create_future()
        batch.requests.append(request)
        batch.futures.append(future)
        batch.traces.append(trace)
        batch.submitted.append(monotonic())
        if len(batch.requests) >= self._max_batch:
            self._flush(key)
        elif not self._running and not self._dispatch_scheduled:
            # The engine is idle: dispatch on the next loop pass, so
            # requests that become ready in this pass share the batch.
            self._dispatch_scheduled = True
            loop.call_soon(self._dispatch)
        return await future

    def _dispatch(self) -> None:
        """Flush every forming batch, unless one is still computing."""
        self._dispatch_scheduled = False
        if not self._running:
            for key in list(self._pending):
                self._flush(key)

    def _flush(self, key: tuple) -> None:
        """Detach the forming batch for ``key`` and start evaluating it."""
        batch = self._pending.pop(key)
        self._running += 1
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, batch: _PendingBatch) -> None:
        loop = asyncio.get_running_loop()
        size = len(batch.requests)
        self._flush_counter.inc()
        self._size_histogram.observe(size)
        if size > 1:
            self._coalesced_counter.inc(size)
        template = batch.requests[0]
        runs = [request.run for request in batch.requests]
        call: Callable[[], List[EventProbabilities]] = partial(
            self._engine.evaluate_many,
            template.protocol,
            template.topology,
            runs,
            method=template.method,
            trials=template.trials,
        )
        sampled = any(trace is not None and trace.sampled for trace in batch.traces)
        flushed = monotonic()
        error: Optional[Exception] = None
        results: List[EventProbabilities] = []
        # A root: this task runs in a copy of the first member's
        # context, where a plain span would nest under that request.
        with self._tracer.root(
            BATCH_SPAN, self._audit if sampled else None
        ) as span:
            if span is not NULL_SPAN:
                span.set(**self._batch_attributes(batch, flushed))
            # run_in_executor drops the context; this copy carries the
            # batch span to the engine thread as its parent.
            context = contextvars.copy_context()
            try:
                results = await loop.run_in_executor(
                    self._executor, lambda: context.run(call)
                )
            except Exception as caught:  # surface to every coalesced waiter
                error = caught
                if span is not NULL_SPAN:
                    span.set(error=type(caught).__name__)
            finally:
                self._running -= 1
        if not self._running:
            self._dispatch()  # before this batch's waiters wake
        if error is not None:
            for future in batch.futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(batch.futures, results):
            if not future.done():
                future.set_result(result)

    @staticmethod
    def _batch_attributes(batch: _PendingBatch, flushed: float) -> Dict[str, Any]:
        """The batch span's members, fanning in N request spans.

        ``member_queue_wait_s`` aligns with ``member_request_ids``:
        each entry is the time that member spent waiting for the
        engine thread — the queue-wait half of the queue-wait vs.
        compute-time split (compute is the engine child span).
        """
        return {
            "size": len(batch.requests),
            "member_request_ids": [
                trace.request_id if trace is not None else None
                for trace in batch.traces
            ],
            "member_queue_wait_s": [
                round(max(0.0, flushed - submitted), 6)
                for submitted in batch.submitted
            ],
        }

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches."""
        for key in list(self._pending):
            self._flush(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def shutdown(self) -> None:
        """Stop the engine thread (call after :meth:`drain`)."""
        self._executor.shutdown(wait=False, cancel_futures=True)
