"""The benchmark's own open-loop load generator.

One process, one TCP connection, at most two threads: the calling
thread sends every request at its scheduled time whether or not earlier
ones have returned (open loop), and the transport's reader thread
resolves the answers.  Latency is timed from when each request was *due*,
so a stall of the generator or the server shows up in every request it
delays; how late the generator itself sent (issue lag) is recorded too.

Bytes are counted at the client socket by a proxy handed to
``SocketTransport`` in place of the raw socket.
"""

from __future__ import annotations

import contextlib
import gc
import random
import socket
import time
from concurrent.futures import wait
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.serve import SocketTransport


class CountingSocket:
    """A socket proxy counting the bytes sent and received through it."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)
        self.sent += len(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self.received += len(data)
        return data

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()


@contextlib.contextmanager
def quiet_gc():
    """No cyclic garbage collection in this process while timing.

    The generator holds the oracle's expected answers and every answer of
    the phase; a full collection scanning them would stall the sender
    and the reader for tens of milliseconds at random points, adding the
    benchmark's own pauses to the program's latencies.  Answers are
    acyclic, so reference counting still frees them.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def connect(port: int) -> tuple[SocketTransport, CountingSocket]:
    """One counted TCP connection to the benchmark server on localhost."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(None)
    counted = CountingSocket(sock)
    return SocketTransport(counted, name="tcp"), counted


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Sent:
    """One scheduled request and what became of it."""

    item: object
    due: float
    issued: float = 0.0
    done: float | None = None
    future: object = None
    error: BaseException | None = None

    def finish(self, future) -> None:
        self.done = time.perf_counter()


@dataclass
class Phase:
    """Outcome of one scheduled phase at one offered rate."""

    rate: float
    seconds: float
    sent: list[Sent] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    wall_end: float = 0.0

    def results(self):
        """``(entry, result)`` for every request that got an answer."""
        for entry in self.sent:
            if entry.error is None and entry.future is not None:
                yield entry, entry.future.result()

    def latencies_ms(self) -> list[float]:
        return [
            (entry.done - entry.due) * 1e3
            for entry, _ in self.results()
            if entry.item.kind != "deploy"
        ]

    def issue_lags_ms(self) -> list[float]:
        return [(entry.issued - entry.due) * 1e3 for entry in self.sent]

    @property
    def failures(self) -> int:
        return sum(1 for entry in self.sent if entry.error is not None)

    @classmethod
    def merged(cls, parts: list["Phase"]) -> "Phase":
        """One phase pooling the requests of several rounds at one rate."""
        phase = cls(rate=parts[0].rate, seconds=sum(p.seconds for p in parts))
        for part in parts:
            phase.sent.extend(part.sent)
            phase.bytes_sent += part.bytes_sent
            phase.bytes_received += part.bytes_received
            phase.wall_end = max(phase.wall_end, part.wall_end)
        return phase


def schedule(
    rate: float,
    seconds: float,
    traffic,
    rng: random.Random,
    redeploy=None,
    redeploy_every: float = 0.0,
) -> list[tuple[float, object]]:
    """Poisson arrivals at ``rate`` for ``seconds``: ``(offset, item)``.

    Each arrival takes the next item of the ``traffic`` iterator; with
    ``redeploy`` set, one deploy item is due every ``redeploy_every``
    seconds as well, the first half an interval in, so even a phase
    shorter than the interval carries one.
    """
    arrivals: list[tuple[float, object]] = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        arrivals.append((offset, next(traffic)))
        offset += rng.expovariate(rate)
    if redeploy is not None and redeploy_every > 0:
        tick = redeploy_every / 2
        while tick < seconds:
            arrivals.append((tick, redeploy))
            tick += redeploy_every
        arrivals.sort(key=lambda pair: pair[0])
    return arrivals


def run_phase(
    transport: SocketTransport,
    counted: CountingSocket,
    arrivals: list[tuple[float, object]],
    rate: float,
    seconds: float,
    timeout: float,
) -> Phase:
    """Send ``arrivals`` open-loop and wait for every answer or timeout."""
    phase = Phase(rate=rate, seconds=seconds)
    with quiet_gc():
        sent0, received0 = counted.sent, counted.received
        start = time.perf_counter() + 0.01
        for offset, item in arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            entry = Sent(item=item, due=due, issued=time.perf_counter())
            phase.sent.append(entry)
            try:
                entry.future = transport.submit(item.request)
            except ReproError as error:
                entry.error = error
                entry.done = time.perf_counter()
                continue
            entry.future.add_done_callback(entry.finish)
        pending = [e.future for e in phase.sent if e.future is not None]
        last_due = start + (arrivals[-1][0] if arrivals else 0.0)
        wait(
            pending,
            timeout=max(0.0, last_due + timeout + 1 - time.perf_counter()),
        )
    for entry in phase.sent:
        if entry.future is None:
            continue
        if not entry.future.done():
            entry.error = TimeoutError("unresolved at the end of the phase")
            entry.future = None
        elif entry.future.exception() is not None:
            entry.error = entry.future.exception()
        else:
            # ``wait`` can return before the reader thread has run the
            # done-callback that stamps the completion time.
            while entry.done is None:
                time.sleep(0)
    phase.wall_end = max(
        [e.done for e in phase.sent if e.done is not None] or [last_due]
    ) - last_due
    phase.bytes_sent = counted.sent - sent0
    phase.bytes_received = counted.received - received0
    return phase


def run_sequential(
    transport: SocketTransport, items, timeout: float
) -> tuple[float, list]:
    """One pass over ``items``, one request at a time: ``(seconds, outcomes)``.

    Each outcome is ``(item, result or exception)``.
    """
    outcomes = []
    with quiet_gc():
        started = time.perf_counter()
        for item in items:
            try:
                future = transport.submit(item.request)
                outcomes.append((item, future.result(timeout=timeout)))
            except (ReproError, TimeoutError) as error:
                outcomes.append((item, error))
        seconds = time.perf_counter() - started
    return seconds, outcomes
