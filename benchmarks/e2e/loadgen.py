"""Single-process asyncio load generator over keep-alive loopback HTTP.

Closed loop: each connection sends its next request when the previous
reply is complete.  A request is timed from its bytes being written to
the last byte of the response being read.  No threads: one event loop
owns every connection, so the generator costs one core at most and its
own CPU share is reported beside the numbers it produces.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import (Awaitable, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from workloads import Request


class Connection:
    """One HTTP/1.1 connection, reopened whenever the server closes it.

    The endpoint marks every 100th response ``Connection: close``; the
    next request then goes out on a fresh socket, opened before its
    clock starts.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.opened = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.port)
        self.opened += 1

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def request(self, method: str, path: str, body: bytes = b"",
                      ) -> Tuple[int, bytes, float, float]:
        """``(status, body, t_sent, t_received)`` on the perf_counter clock."""
        if self._writer is None:
            await self._open()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        t_sent = time.perf_counter()
        self._writer.write(head + body)
        try:
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length, close = 0, False
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            payload = await self._reader.readexactly(length)
        except BaseException:
            # Cancelled or broken mid-response: the stream position is
            # unknown, so the socket cannot be reused.
            await asyncio.shield(self.close())
            raise
        t_received = time.perf_counter()
        if close:
            await self.close()
        return status, payload, t_sent, t_received


@dataclass
class Sample:
    request: Request
    status: int
    body: bytes
    t_sent: float
    t_received: float

    @property
    def latency(self) -> float:
        return self.t_received - self.t_sent

    @cached_property
    def reply(self) -> dict:
        """The JSON body of a ``/query`` reply, parsed once."""
        return json.loads(self.body)


class Pass:
    """One closed-loop pass over ``connections`` keep-alive connections.

    The samples live on the object, not in a return value, so a pass
    the watchdog cancels still shows what it completed and how many
    requests were left without a reply.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.outstanding = 0
        self.t0 = self.t1 = 0.0  # perf_counter clock, as the spans use
        self.cpu = 0.0  # the generator's own CPU seconds over the pass

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    async def run(self, port: int, requests: Iterator[Request],
                  connections: int, more: Callable[[int, float], bool],
                  every: Optional[Tuple[int, Callable[[int], Awaitable]]]
                  = None) -> None:
        """Issue requests while ``more(issued, elapsed seconds)`` holds.

        ``every=(n, hook)`` awaits ``hook(replies so far)`` on the
        connection that receives each ``n``-th reply, before its next
        request; with one connection the server is idle meanwhile.
        """
        issued = 0
        cpu0 = time.process_time()
        self.t0 = t0 = time.perf_counter()

        async def client() -> None:
            nonlocal issued
            conn = Connection(port)
            try:
                while more(issued, time.perf_counter() - t0):
                    req = next(requests)
                    issued += 1
                    self.outstanding += 1
                    status, body, t_sent, t_recv = await conn.request(
                        "POST", "/query", req.body)
                    self.outstanding -= 1
                    self.samples.append(
                        Sample(req, status, body, t_sent, t_recv))
                    if every and len(self.samples) % every[0] == 0:
                        await every[1](len(self.samples))
            finally:
                await conn.close()

        tasks = [asyncio.ensure_future(client())
                 for _ in range(connections)]
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self.t1 = time.perf_counter()
            self.cpu = time.process_time() - cpu0


# -- /metrics ----------------------------------------------------------------

_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)\s*$")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Exposition text as ``{'name{labels}': value}`` (comments dropped)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"not a Prometheus sample: {line!r}")
        name, labels, value = match.groups()
        out[name + (labels or "")] = float(value)
    return out


def scrape_delta(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` per sample; a sample new in ``after`` counts from 0."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


async def scrape(port: int) -> Dict[str, float]:
    conn = Connection(port)
    try:
        status, body, _, _ = await conn.request("GET", "/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return parse_prometheus(body.decode("utf-8"))
