"""Hand-rolled HTTP/1.1 over ``asyncio`` streams (zero dependencies).

Just enough of RFC 9112 for a JSON API: request-line + headers +
``Content-Length`` bodies on the way in, status line + headers + body
on the way out, with keep-alive by default and ``Connection: close``
honored.  No chunked transfer encoding, no TLS, no pipelining — the
server reads one request per turn, so a client that pipelines simply
gets its responses in order.

The module also carries the client half (:class:`ClientConnection`,
:func:`request_once`), shared by the load generator, the examples,
and the test suite, so client and server agree on one wire dialect by
construction.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    from ..obs.audit import TraceContext

MAX_HEADER_LINE = 8192
MAX_HEADER_COUNT = 100

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request the server refuses, carried as (status, message)."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers: Dict[str, str] = dict(headers or {})


@dataclass
class HttpRequest:
    """One parsed request: method, target path, headers, raw body."""

    method: str
    path: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The request's audit identity, assigned by the server at the top
    #: of routing (never by the parser — admission owns id assignment).
    trace: Optional["TraceContext"] = None

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> Dict[str, Any]:
        """The body decoded as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"malformed JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[HttpRequest]:
    """Read one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` for protocol violations (the caller
    answers with the carried status and closes the connection).
    """
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    if len(line) > MAX_HEADER_LINE:
        raise HttpError(400, "request line too long")
    try:
        method, path, version = line.decode("latin-1").split()
    except ValueError as error:
        raise HttpError(400, "malformed request line") from error
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    while True:
        header_line = await reader.readline()
        if header_line in (b"\r\n", b"\n"):
            break
        if not header_line:
            raise HttpError(400, "connection closed inside headers")
        if len(header_line) > MAX_HEADER_LINE:
            raise HttpError(400, "header line too long")
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        name, separator, value = header_line.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {header_line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as error:
            raise HttpError(400, "malformed Content-Length") from error
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413, f"body of {length} bytes exceeds {max_body_bytes}"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise HttpError(
                    400, "connection closed inside the body"
                ) from error
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked transfer encoding is not supported")
    return HttpRequest(
        method=method, path=path, version=version, headers=headers, body=body
    )


def render_response(
    status: int,
    payload: Dict[str, Any],
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one JSON response (status line, headers, body)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


class ClientConnection:
    """A keep-alive client connection speaking the same dialect.

    One connection issues requests strictly in sequence (HTTP/1.1
    without pipelining); open several connections for concurrency —
    that is exactly what the load generator does.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "ClientConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """Issue one request; returns (status, headers, JSON payload).

        ``headers`` adds extra request headers, such as a client's own
        ``X-Repro-Request-Id``.
        """
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: repro-service",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            header_line = await self._reader.readline()
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        parsed: Dict[str, Any] = json.loads(raw) if raw else {}
        return status, headers, parsed

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """One-shot convenience: open, request, close."""
    connection = await ClientConnection.open(host, port)
    try:
        return await connection.request(method, path, payload, headers)
    finally:
        await connection.close()
