"""The evaluation server: admission control, routing, graceful drain.

Request lifecycle::

    accept -> parse HTTP -> admit (bounded queue, 429 on overflow)
           -> route:
                exact evaluation  -> micro-batcher -> engine thread
                Monte Carlo / experiment -> worker tier (process pool)
           -> respond (JSON), keep-alive

Backpressure is admission-based rather than socket-based: at most
``queue_limit`` evaluations are in flight at once, and the next one is
answered ``429 Too Many Requests`` with a ``Retry-After`` hint
immediately — a cheap rejection the client can act on beats an
unbounded queue that turns overload into timeouts for everyone.

Shutdown (SIGTERM/SIGINT under ``repro serve``, or
:meth:`EvaluationServer.request_shutdown`) drains gracefully: stop
accepting connections, answer ``503`` to anything new on live
keep-alive connections, wait up to ``drain_timeout_s`` for in-flight
requests to finish (no admitted request loses its response), then
close idle connections, flush the batcher, stop the worker tier, and
export the ``--trace`` / ``--metrics`` artifacts if configured.

Ops endpoints: ``GET /healthz`` (liveness + queue state) and ``GET
/metrics`` (the :class:`~repro.obs.MetricsRegistry` JSON export,
schema documented in DESIGN.md §8 — the same payload ``--metrics``
writes, so one validator covers both).
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Any, Dict, Optional, Tuple

from ..core.probability import DEFAULT_ENUMERATION_LIMIT
from ..engine import Engine
from ..obs import Histogram, MetricsRegistry, Obs, Tracer
from ..obs.audit import (
    ADMISSION_STAGE,
    AUDIT_SCHEMA_VERSION,
    ENGINE_STAGE,
    REQUEST_ID_HEADER,
    RESPONSE_STAGE,
    WORKER_STAGE,
    AuditLogger,
    TraceContext,
    audit_log_path,
    current_batch_id,
)
from ..obs.runtime import monotonic
from .batcher import MicroBatcher
from .config import ServiceConfig
from .http import HttpError, HttpRequest, read_request, render_response
from ..meanfield.evaluate import evaluate_spec
from .specs import (
    RequestError,
    ScaledEvaluateRequest,
    check_monte_carlo_work,
    parse_evaluate_payload,
    scaled_evaluate_response,
)
from .specs import evaluate_response as build_evaluate_response
from .workers import (
    DeadlineExceeded,
    WorkerPool,
    evaluate_in_worker,
    run_experiment_in_worker,
)

logger = logging.getLogger(__name__)

#: Seconds a 429/503 response suggests the client wait before retrying.
RETRY_AFTER_SECONDS = 1

#: Deadline-burn histogram buckets (elapsed / deadline): a request in
#: the 1.0+ buckets blew its deadline; 0.75+ is the worry zone.
DEADLINE_BURN_BUCKETS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    0.75,
    0.9,
    1.0,
    2.0,
)

#: The process label of this server's audit records and log file.
PROCESS_NAME = "server"

Route = Tuple[int, Dict[str, Any], Dict[str, str]]


def _endpoint_name(path: str) -> str:
    """A bounded metric label for one request path.

    Raw paths would mint one histogram per experiment id (or per
    attacker-chosen 404 target); a fixed endpoint vocabulary keeps
    the per-endpoint latency metrics enumerable.
    """
    path = path.split("?", 1)[0]
    if path == "/v1/evaluate":
        return "evaluate"
    if path.startswith("/v1/experiments/"):
        return "experiments"
    if path == "/healthz":
        return "healthz"
    if path == "/metrics":
        return "metrics"
    if path == "/v1/debug/requests":
        return "debug_requests"
    if path == "/v1/_sleep":
        return "sleep"
    return "other"


def _query_int(path: str, name: str, default: int) -> int:
    """``?name=N`` from a request target, tolerant of junk."""
    query = path.partition("?")[2]
    for part in query.split("&"):
        key, separator, value = part.partition("=")
        if separator and key == name:
            try:
                return max(0, int(value))
            except ValueError:
                return default
    return default


class EvaluationServer:
    """One asyncio HTTP server wired to an engine, batcher, and pool.

    It owns the keep-alive connection loops, request accounting, 5xx
    shielding and the idle/draining bookkeeping that graceful
    shutdown relies on, plus the evaluation components: the engine
    and its memo cache, the micro-batcher and the worker tier.
    """

    def __init__(
        self, config: ServiceConfig, obs: Optional[Obs] = None
    ) -> None:
        self.config = config
        if obs is None:
            obs = Obs(
                metrics=MetricsRegistry(),
                tracer=Tracer(enabled=config.trace_path is not None),
            )
        self.obs = obs
        self.metrics = obs.metrics
        self.audit = AuditLogger(
            path=(
                audit_log_path(config.audit_dir, PROCESS_NAME)
                if config.audit_dir
                else None
            ),
            process=PROCESS_NAME,
            max_bytes=config.audit_max_bytes,
            ring_size=config.audit_ring,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task[None]]" = set()
        self._inflight = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._requests_counter = self.metrics.counter("service.requests_total")
        self._rejected_counter = self.metrics.counter("service.rejected_total")
        self._responses: Dict[str, Any] = {
            klass: self.metrics.counter(f"service.responses.{klass}")
            for klass in ("2xx", "4xx", "5xx")
        }
        self._latency_histogram = self.metrics.histogram(
            "service.request.latency"
        )
        self._endpoint_histograms: Dict[str, Histogram] = {}
        self._deadline_burn_gauge = self.metrics.gauge(
            "service.deadline.burn"
        )
        self._deadline_burn_histogram = self.metrics.histogram(
            "service.deadline.burn_ratio", DEADLINE_BURN_BUCKETS
        )
        self._slow_counter = self.metrics.counter(
            "service.slow_requests_total"
        )
        self._inflight_gauge = self.metrics.gauge("service.inflight")
        self._inflight_gauge.set(0)
        self.engine = Engine(
            backend=config.backend,
            obs=self.obs,
            cache_size=config.cache_size,
        )
        self.engine.span_hook = self._engine_span_hook
        self.batcher = MicroBatcher(
            self.engine,
            self.metrics,
            max_batch=config.max_batch,
            audit=self.audit,
        )
        self.pool = WorkerPool(config.workers, self.metrics)

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        port: int = self._server.sockets[0].getsockname()[1]
        return port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        logger.info(
            "serving on http://%s:%d (backend=%s, workers=%d, "
            "max_batch=%d, queue_limit=%d)",
            self.config.host,
            self.port,
            self.config.backend,
            self.config.workers,
            self.config.max_batch,
            self.config.queue_limit,
        )

    def request_shutdown(self) -> None:
        """Signal-safe: ask the serve loop to drain and exit."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                # Non-main thread or unsupported platform: the caller
                # falls back to request_shutdown() directly.
                return

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`request_shutdown`, then drain and stop."""
        if self._server is None:
            await self.start()
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, release resources."""
        if self._server is None:
            return
        logger.info("shutdown: draining %d in-flight requests", self._inflight)
        started = monotonic()
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        assert self._idle is not None
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            logger.warning(
                "drain timeout after %.1fs with %d requests in flight",
                self.config.drain_timeout_s,
                self._inflight,
            )
        # In-flight requests have answered (or timed out); now close
        # idle keep-alive connections still parked in read_request.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.batcher.drain()
        self.batcher.shutdown()
        self.pool.shutdown()
        self._server = None
        self.metrics.gauge("service.drain.seconds").set(monotonic() - started)
        await asyncio.get_running_loop().run_in_executor(
            None, self._export_artifacts
        )
        # Stop the audit writer last: every record from the drain above
        # must be on disk before the process exits (the CI smoke test
        # runs `repro audit --expect-complete` against these files
        # after SIGTERM).
        self.audit.close()
        logger.info("shutdown complete")

    def _export_artifacts(self) -> None:
        if self.config.trace_path:
            self.obs.tracer.export_jsonl(self.config.trace_path)
            logger.info("trace written to %s", self.config.trace_path)
        if self.config.metrics_path:
            self.metrics.export_json(self.config.metrics_path)
            logger.info("metrics written to %s", self.config.metrics_path)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # drain closing an idle connection
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(
                    reader, self.config.max_body_bytes
                )
            except HttpError as error:
                writer.write(
                    render_response(
                        error.status,
                        {"error": error.message},
                        keep_alive=False,
                        extra_headers=error.headers,
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            status, payload, headers = await self._route_safely(request)
            keep_alive = (
                request.keep_alive and not self._draining and status < 500
            )
            writer.write(
                render_response(
                    status, payload, keep_alive=keep_alive, extra_headers=headers
                )
            )
            await writer.drain()
            if not keep_alive:
                return

    async def _route_safely(self, request: HttpRequest) -> Route:
        self._requests_counter.inc()
        if request.trace is None:
            request.trace = TraceContext.from_headers(
                request.headers, self.config.trace_sample_rate
            )
        trace = request.trace
        started = monotonic()
        tracer = self.obs.tracer
        with tracer.span(
            "service.request",
            method=request.method,
            path=request.path,
            request_id=trace.request_id,
        ) as span:
            try:
                status, payload, headers = await self._route(request)
            except HttpError as error:
                status, payload, headers = (
                    error.status,
                    {"error": error.message},
                    error.headers,
                )
            except RequestError as error:
                status, payload, headers = 400, {"error": str(error)}, {}
            except DeadlineExceeded as error:
                status, payload, headers = 504, {"error": str(error)}, {}
            except asyncio.CancelledError:
                raise
            except Exception as error:  # never leak a traceback to the wire
                logger.exception("unhandled error serving %s", request.path)
                status, payload, headers = (
                    500,
                    {"error": f"internal error: {type(error).__name__}"},
                    {},
                )
            span.set(status=status)
        bucket = f"{status // 100}xx"
        if bucket in self._responses:
            self._responses[bucket].inc()
        # Every response — 429s and 504s included — echoes the request
        # id, and error bodies carry it so clients can quote it.
        headers = dict(headers)
        headers.setdefault(REQUEST_ID_HEADER, trace.request_id)
        if status >= 400 and "error" in payload:
            payload = dict(payload)
            payload.setdefault("request_id", trace.request_id)
        self._observe_request(request, status, monotonic() - started)
        return status, payload, headers

    def _observe_request(
        self, request: HttpRequest, status: int, elapsed: float
    ) -> None:
        """Per-request accounting: histograms, burn, slow log, audit."""
        path = request.path.split("?", 1)[0]
        self._latency_histogram.observe(elapsed)
        self._endpoint_histogram(_endpoint_name(path)).observe(elapsed)
        burn = elapsed / self.config.deadline_s
        self._deadline_burn_gauge.set(burn)
        self._deadline_burn_histogram.observe(burn)
        trace = request.trace
        if elapsed >= self.config.slow_request_s:
            self._slow_counter.inc()
            logger.warning(
                "slow request: %s %s -> %d in %.1fms (%.0f%% of the "
                "deadline, request_id=%s)",
                request.method,
                path,
                status,
                elapsed * 1e3,
                burn * 100,
                trace.request_id if trace is not None else "-",
            )
        if trace is not None and trace.sampled:
            self.audit.record(
                RESPONSE_STAGE,
                trace.request_id,
                elapsed,
                status=status,
                method=request.method,
                path=path,
            )

    def _endpoint_histogram(self, endpoint: str) -> Histogram:
        histogram = self._endpoint_histograms.get(endpoint)
        if histogram is None:
            histogram = self.metrics.histogram(
                f"service.request.latency.{endpoint}"
            )
            self._endpoint_histograms[endpoint] = histogram
        return histogram

    def _debug_requests_payload(self, request: HttpRequest) -> Dict[str, Any]:
        """The ring-buffer view behind ``GET /v1/debug/requests``."""
        limit = _query_int(request.path, "limit", 64)
        return {
            "schema_version": AUDIT_SCHEMA_VERSION,
            "process": PROCESS_NAME,
            "sample_rate": self.config.trace_sample_rate,
            "requests": self.audit.recent(limit),
        }

    @staticmethod
    def _expect_method(request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405,
                f"{request.path} expects {method}, got {request.method}",
                headers={"Allow": method},
            )

    # -- inflight bookkeeping (admission + drain) ----------------------

    def _enter_inflight(self) -> None:
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        assert self._idle is not None
        self._idle.clear()

    def _leave_inflight(self) -> None:
        self._inflight -= 1
        self._inflight_gauge.set(self._inflight)
        if self._inflight == 0:
            assert self._idle is not None
            self._idle.set()

    def _refuse_if_draining(self) -> None:
        if self._draining:
            raise HttpError(
                503,
                "server is draining",
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )

    def _engine_span_hook(
        self, name: str, duration: float, attributes: Dict[str, Any]
    ) -> None:
        """Audit one engine execution, joined to its batch.

        Fires on the engine thread.  Only batch-tagged executions are
        recorded — the tag doubles as the sampling decision (the
        batcher tags the thread only when a sampled request rides the
        batch), so unsampled traffic costs nothing here.
        """
        batch_id = current_batch_id()
        if batch_id is None:
            return
        self.audit.record(
            ENGINE_STAGE,
            None,
            duration,
            batch_id=batch_id,
            operation=name,
            **attributes,
        )

    # -- routing -------------------------------------------------------

    async def _route(self, request: HttpRequest) -> Route:
        path = request.path.split("?", 1)[0]
        if path == "/healthz":
            self._expect_method(request, "GET")
            return 200, self._health_payload(), {}
        if path == "/metrics":
            self._expect_method(request, "GET")
            return (
                200,
                {
                    "schema_version": 1,
                    "metrics": self.metrics.snapshot(),
                },
                {},
            )
        if path == "/v1/debug/requests":
            self._expect_method(request, "GET")
            return 200, self._debug_requests_payload(request), {}
        if path == "/v1/evaluate":
            self._expect_method(request, "POST")
            return await self._admitted(self._handle_evaluate, request)
        if path.startswith("/v1/experiments/"):
            self._expect_method(request, "POST")
            return await self._admitted(self._handle_experiment, request)
        if path == "/v1/_sleep" and self.config.debug:
            self._expect_method(request, "POST")
            return await self._admitted(self._handle_sleep, request)
        raise HttpError(404, f"no route for {path!r}")

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "backend": self.config.backend,
        }

    async def _admitted(self, handler: Any, request: HttpRequest) -> Route:
        """Run ``handler`` under admission control and the deadline."""
        trace = request.trace
        sampled = trace is not None and trace.sampled
        self._refuse_if_draining()
        if self._inflight >= self.config.queue_limit:
            self._rejected_counter.inc()
            if sampled:
                assert trace is not None
                self.audit.record(
                    ADMISSION_STAGE,
                    trace.request_id,
                    0.0,
                    admitted=False,
                    inflight=self._inflight,
                    queue_limit=self.config.queue_limit,
                )
            raise HttpError(
                429,
                f"admission queue full ({self.config.queue_limit} in "
                "flight); retry shortly",
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        if sampled:
            assert trace is not None
            self.audit.record(
                ADMISSION_STAGE,
                trace.request_id,
                0.0,
                admitted=True,
                inflight=self._inflight,
                queue_limit=self.config.queue_limit,
            )
        self._enter_inflight()
        try:
            result: Route = await asyncio.wait_for(
                handler(request), timeout=self.config.deadline_s
            )
            return result
        except asyncio.TimeoutError as error:
            raise DeadlineExceeded(
                f"request exceeded its {self.config.deadline_s:.3f}s deadline"
            ) from error
        finally:
            self._leave_inflight()

    # -- endpoint handlers ---------------------------------------------

    async def _handle_evaluate(self, request: HttpRequest) -> Route:
        # Off-loop: a large concrete request (62 processes, 64 rounds)
        # is slow to build, and RC006 sees `cli.parse_run`'s `open()`.
        spec = await asyncio.get_running_loop().run_in_executor(
            None, parse_evaluate_payload, request.json()
        )
        if isinstance(spec, ScaledEvaluateRequest):
            # Counter-abstraction request: exact, O(classes^2), no
            # graph — answered inline (off-loop with the parse-side
            # executor), bypassing micro-batcher and worker tier.
            evaluation = await asyncio.get_running_loop().run_in_executor(
                None, evaluate_spec, spec.protocol, spec.spec
            )
            return 200, scaled_evaluate_response(spec, evaluation), {}
        enumeration_limit = self.config.enumeration_limit
        if enumeration_limit is None:
            enumeration_limit = DEFAULT_ENUMERATION_LIMIT
        if spec.resolves_exact(enumeration_limit):
            result = await self.batcher.submit(spec, trace=request.trace)
            return 200, build_evaluate_response(spec, result), {}
        check_monte_carlo_work(spec, enumeration_limit)
        payload = dict(spec.payload)
        payload["_backend"] = self.config.backend
        started = monotonic()
        outcome = await self.pool.run(
            evaluate_in_worker, payload, self.config.deadline_s
        )
        self._record_worker(
            request.trace, "evaluate", monotonic() - started, outcome
        )
        self.metrics.merge(outcome["metrics"])
        return 200, dict(outcome["response"]), {}

    def _record_worker(
        self,
        trace: Optional[TraceContext],
        operation: str,
        total_s: float,
        outcome: Dict[str, Any],
    ) -> None:
        """Audit one worker-tier dispatch, split into wait vs. compute.

        ``elapsed_seconds`` is the child's self-reported compute time;
        the difference from the dispatch total is time spent queued for
        a worker slot (plus dispatch overhead) — the worker tier's half
        of the queue-wait vs. compute-time split.
        """
        if trace is None or not trace.sampled:
            return
        compute = outcome.get("elapsed_seconds")
        attributes: Dict[str, Any] = {"operation": operation}
        if isinstance(compute, (int, float)):
            attributes["compute_s"] = round(float(compute), 6)
            attributes["queue_wait_s"] = round(
                max(0.0, total_s - float(compute)), 6
            )
        self.audit.record(
            WORKER_STAGE, trace.request_id, total_s, **attributes
        )

    async def _handle_experiment(self, request: HttpRequest) -> Route:
        experiment_id = request.path.rsplit("/", 1)[1]
        body = request.json()
        scale = body.get("scale", "quick")
        if scale not in ("quick", "full"):
            raise RequestError(f"unknown scale {scale!r}")
        seed = body.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise RequestError("seed must be an integer")
        from ..experiments import experiment_ids

        if experiment_id.upper() not in experiment_ids():
            raise HttpError(
                404,
                f"unknown experiment {experiment_id!r}; known: "
                f"{', '.join(experiment_ids())}",
            )
        payload = {
            "experiment": experiment_id,
            "scale": scale,
            "seed": seed,
            "_backend": self.config.backend,
        }
        started = monotonic()
        outcome = await self.pool.run(
            run_experiment_in_worker, payload, self.config.deadline_s
        )
        self._record_worker(
            request.trace, "experiment", monotonic() - started, outcome
        )
        self.metrics.merge(outcome["metrics"])
        return 200, dict(outcome["response"]), {}

    async def _handle_sleep(self, request: HttpRequest) -> Route:
        # Debug-only: a deterministic slow request for backpressure and
        # drain tests.  Admission, deadline, and response accounting all
        # apply, which is the point.
        body = request.json()
        seconds = body.get("seconds", 0.05)
        if not isinstance(seconds, (int, float)) or not 0 <= seconds <= 30:
            raise RequestError("seconds must be a number in [0, 30]")
        await asyncio.sleep(float(seconds))
        return 200, {"slept": float(seconds)}, {}


async def serve(config: ServiceConfig, obs: Optional[Obs] = None) -> None:
    """Run a server until SIGTERM/SIGINT (the ``repro serve`` body)."""
    # Off-loop: construction opens the audit log (mkdir + meta line).
    server = await asyncio.get_running_loop().run_in_executor(
        None, EvaluationServer, config, obs
    )
    await server.start()
    server.install_signal_handlers()
    # An unbuffered, parseable readiness line: scripts wait for it.
    print(f"serving on http://{config.host}:{server.port}", flush=True)
    await server.serve_until_shutdown()
