"""`repro.service`: the asyncio evaluation server and its clients.

The serving tier turns the batch reproduction into an online system:
JSON-over-HTTP endpoints for protocol evaluation (``POST
/v1/evaluate``), experiment launches (``POST /v1/experiments/{eX}``),
and ops (``GET /healthz``, ``GET /metrics``), built from four pieces
that each do one thing:

* :mod:`~repro.service.http` — hand-rolled HTTP/1.1 on asyncio
  streams, server and client halves (zero dependencies);
* :mod:`~repro.service.batcher` — the micro-batcher that coalesces
  concurrent exact evaluations sharing a batch key into single
  :class:`~repro.engine.Engine` batch calls;
* :mod:`~repro.service.workers` — the process-pool tier for CPU-bound
  Monte-Carlo estimates and experiment runs, with per-request
  deadlines and metrics-snapshot merge-back;
* :mod:`~repro.service.server` — admission control (bounded queue,
  429 + ``Retry-After`` backpressure), routing, and graceful drain on
  SIGTERM.

One process serves: the server, its engine and memo cache, and the
micro-batcher share one event loop and one engine thread, and only
the worker tier adds processes.  Surfaced on the CLI as ``repro
serve`` and ``repro bench-serve``; see DESIGN.md §10 for the
architecture and endpoint schemas.
"""

from .batcher import MicroBatcher
from .config import DEFAULT_PORT, ServiceConfig
from .http import ClientConnection, HttpError, HttpRequest, request_once
from .loadgen import (
    BENCH_SCHEMA_VERSION,
    LoadgenOptions,
    LoadReport,
    percentile,
    run_bench,
    run_load,
)
from .server import EvaluationServer, serve
from .specs import (
    EvaluateRequest,
    RequestError,
    ScaledEvaluateRequest,
    evaluate_response,
    parse_evaluate_payload,
    scaled_evaluate_response,
)
from .testing import BackgroundServer
from .workers import DeadlineExceeded, WorkerPool

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BackgroundServer",
    "ClientConnection",
    "DEFAULT_PORT",
    "DeadlineExceeded",
    "EvaluateRequest",
    "EvaluationServer",
    "HttpError",
    "HttpRequest",
    "LoadReport",
    "LoadgenOptions",
    "MicroBatcher",
    "RequestError",
    "ScaledEvaluateRequest",
    "ServiceConfig",
    "WorkerPool",
    "evaluate_response",
    "parse_evaluate_payload",
    "percentile",
    "request_once",
    "run_bench",
    "scaled_evaluate_response",
    "run_load",
    "serve",
]
