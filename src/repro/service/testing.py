"""A background-thread server harness for tests, examples, and benches.

Runs an :class:`~repro.service.server.EvaluationServer` for the given
config on its own event loop in a daemon thread, so synchronous
callers (pytest, the examples, the self-contained ``repro
bench-serve``) can stand up a real server on an ephemeral port, talk
to it over real sockets, and tear it down — the same code paths
production traffic exercises, no mocks.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import replace
from types import TracebackType
from typing import Optional, Type

from ..obs import Obs
from .config import ServiceConfig
from .server import EvaluationServer

STARTUP_TIMEOUT_S = 10.0


class BackgroundServer:
    """Context manager: a live server on ``127.0.0.1:<ephemeral>``."""

    def __init__(
        self, config: Optional[ServiceConfig] = None, obs: Optional[Obs] = None
    ) -> None:
        base = config if config is not None else ServiceConfig()
        # Ephemeral port unless the caller pinned one explicitly.
        self.config = base if base.port else replace(base, port=0)
        self._obs = obs
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[EvaluationServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.port: int = 0

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def server(self) -> EvaluationServer:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(STARTUP_TIMEOUT_S):
            raise RuntimeError("server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced to start() or stop()
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        # Off-loop: construction opens the audit log (mkdir + meta line).
        server = await asyncio.get_running_loop().run_in_executor(
            None, EvaluationServer, self.config, self._obs
        )
        await server.start()
        self._server = server
        self._loop = asyncio.get_running_loop()
        self.port = server.port
        self._ready.set()
        await server.serve_until_shutdown()

    def stop(self) -> None:
        """Graceful drain from the outside; joins the server thread."""
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(self.config.drain_timeout_s + STARTUP_TIMEOUT_S)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop")
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.stop()
