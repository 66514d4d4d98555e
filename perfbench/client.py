"""A closed-loop HTTP/1.1 client over a few keep-alive connections.

Deliberately independent of the program's own client code, so a
change to the server's wire helpers cannot move the client's cost.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

HOST = "127.0.0.1"
PATH = "/v1/evaluate"


@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    started: float
    finished: float
    status: int
    body: bytes = field(repr=False)

    @property
    def latency(self) -> float:
        return self.finished - self.started


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(HOST, port)
        return cls(reader, writer)

    async def post(self, body: bytes) -> Tuple[int, bytes]:
        head = (
            f"POST {PATH} HTTP/1.1\r\nHost: {HOST}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        header_block = await self._reader.readuntil(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(
    connections: List[Connection],
    body_for: Callable[[int], bytes],
    seconds: float,
) -> List[Exchange]:
    """Each connection sends its next request when its last one is
    answered, until ``seconds`` have passed; requests in flight at the
    deadline finish and count.  Request indices are handed out in order
    across connections.  A request the connection fails on is recorded
    with status 0 and ends that connection's loop."""
    indices = itertools.count()
    exchanges: List[Exchange] = []
    deadline = time.perf_counter() + seconds

    async def drive(connection: Connection) -> None:
        while time.perf_counter() < deadline:
            index = next(indices)
            body = body_for(index)
            started = time.perf_counter()
            try:
                status, payload = await connection.post(body)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                # A dropped or garbled exchange is a failed request;
                # the connection is unusable after it.
                exchanges.append(Exchange(index, started, time.perf_counter(), 0, b""))
                return
            exchanges.append(
                Exchange(index, started, time.perf_counter(), status, payload)
            )

    await asyncio.gather(*(drive(connection) for connection in connections))
    exchanges.sort(key=lambda exchange: exchange.index)
    return exchanges
