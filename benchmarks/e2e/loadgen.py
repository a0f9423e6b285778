"""The load generator: one asyncio process, closed loop, keep-alive connections.

Callers are modelled as application back ends that hold a connection and
wait for each reply before sending the next request.  Every request is
one :class:`Sample`; the generator's own CPU share of the window is
reported (``loadgen.busy_share``) and the run aborts when it is high
enough that the numbers would measure the harness, not the program.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from harness import BenchmarkError, percentile

HOST = "127.0.0.1"

#: above this share of one core the generator is the bottleneck
MAX_BUSY_SHARE = 0.7


@dataclass
class Sample:
    kind: str
    start: float
    end: float
    status: int
    ok: bool


class Recorder:
    """Samples of one window plus the window's bounds and generator CPU."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.start = 0.0
        self.seconds = 0.0
        self.busy_share = 0.0

    def of(self, kind: str) -> List[Sample]:
        """The accepted samples of one kind."""
        return [s for s in self.samples if s.kind == kind and s.ok]

    def latencies_ms(self, kind: str) -> List[float]:
        return [(s.end - s.start) * 1e3 for s in self.of(kind)]

    def rate(self, kind: str, weight: float = 1.0) -> float:
        """Accepted completions inside the window, per second (times ``weight``)."""
        deadline = self.start + self.seconds
        return weight * sum(1 for s in self.of(kind) if s.end <= deadline) / self.seconds

    def tail_ms(self, kind: str, q: float) -> float:
        return percentile(self.latencies_ms(kind), q)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def as_dict(self) -> Dict[str, Any]:
        """Raw per-request samples, times relative to the window start."""
        return {
            "seconds": self.seconds,
            "busy_share": self.busy_share,
            "columns": ["kind", "start_s", "latency_s", "status", "ok"],
            "samples": [
                [s.kind, s.start - self.start, s.end - s.start, s.status, s.ok]
                for s in self.samples
            ],
        }


def dump_samples(recorders: Sequence[Recorder], path) -> None:
    """One JSON file with the raw samples of every window of a run."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([recorder.as_dict() for recorder in recorders], handle)


Worker = Callable[["Connection"], Awaitable[None]]


class Connection:
    """One keep-alive connection of the generator, recording what it sends."""

    def __init__(self, client, recorder: Recorder, stop_at: float) -> None:
        self._client = client
        self._recorder = recorder
        self._stop_at = stop_at

    def running(self) -> bool:
        return time.perf_counter() < self._stop_at

    async def post(
        self,
        kind: str,
        path: str,
        body: Any,
        *,
        headers: Optional[Dict[str, str]] = None,
        accept: Callable[[Any], bool] = lambda parsed: True,
    ) -> Optional[Any]:
        """One timed request; returns the parsed body of an accepted 200."""
        started = time.perf_counter()
        try:
            status, _, parsed = await self._client.post(path, body, headers=headers)
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            status, parsed = 0, None
        ended = time.perf_counter()
        ok = status == 200 and accept(parsed)
        self._recorder.samples.append(Sample(kind, started, ended, status, ok))
        return parsed if ok else None


async def _drive(port: int, workers: Sequence[Worker], seconds: float) -> Recorder:
    from repro.net import AsyncHttpClient

    recorder = Recorder()
    clients = [AsyncHttpClient(HOST, port) for _ in workers]
    try:
        cpu_started = time.process_time()
        recorder.start = time.perf_counter()
        recorder.seconds = seconds
        stop_at = recorder.start + seconds
        await asyncio.gather(
            *(
                worker(Connection(client, recorder, stop_at))
                for worker, client in zip(workers, clients)
            )
        )
        wall = time.perf_counter() - recorder.start
        recorder.busy_share = (time.process_time() - cpu_started) / wall
    finally:
        for client in clients:
            await client.close()
    return recorder


def closed_loop(port: int, workers: Sequence[Worker], seconds: float) -> Recorder:
    """Run one connection per worker for ``seconds``; abort if the generator saturates."""
    recorder = asyncio.run(_drive(port, workers, seconds))
    if recorder.busy_share > MAX_BUSY_SHARE:
        raise BenchmarkError(
            f"load generator used {recorder.busy_share:.0%} of a core "
            f"(limit {MAX_BUSY_SHARE:.0%}): the numbers would measure the "
            "harness, not the program"
        )
    return recorder


def warm_up(port: int, path: str, bodies: Sequence[Any], headers=None) -> None:
    """Send every body once, split over two connections (cache fill, lazy set-up)."""

    def worker(offset: int) -> Worker:
        async def run(conn: Connection) -> None:
            for body in bodies[offset::2]:
                await conn.post("warm", path, body, headers=headers)

        return run

    closed_loop(port, [worker(0), worker(1)], float("inf"))


def one_by_one(
    port: int, path: str, bodies: Sequence[Any], *, headers=None, spans=None
) -> List[Optional[Any]]:
    """POST ``bodies`` in order on one connection; parsed 200 bodies, else ``None``.

    With ``spans`` each round trip is recorded as a ``net`` span whose
    query id is the body's position (the top rung of a ladder).
    """
    from repro.net import AsyncHttpClient

    async def run() -> List[Optional[Any]]:
        answers = []
        async with AsyncHttpClient(HOST, port) as client:
            for item, body in enumerate(bodies):
                started = time.perf_counter()
                status, _, parsed = await client.post(path, body, headers=headers)
                if spans is not None:
                    spans.record("net", started, time.perf_counter(), None, item)
                answers.append(parsed if status == 200 else None)
        return answers

    return asyncio.run(run())


def get_json(port: int, path: str) -> Tuple[int, Any]:
    """One blocking GET against the server under test (``/stats`` and friends)."""
    from repro.net import request_json

    return request_json(f"http://{HOST}:{port}{path}")


def well_formed_answer(k: int) -> Callable[[Any], bool]:
    """A ``/query`` body is acceptable when it carries ``k`` ids and distances."""

    def accept(parsed: Any) -> bool:
        return (
            isinstance(parsed, dict)
            and len(parsed.get("ids", ())) == k
            and len(parsed.get("distances", ())) == k
        )

    return accept
