"""Admission control: bounded queueing, deadlines, and drain coordination.

The server admits a request through :class:`AdmissionController` before
any work happens.  The model is *S executing slots + a bounded waiting
room*: up to ``max_concurrency`` requests execute at once (on the thread
pool, or a cheap ``/query`` on the event loop itself), up to
``queue_limit`` more wait for a slot, and anything beyond that is shed
immediately with a typed 429 carrying a ``Retry-After`` estimate — load
the server cannot serve promptly is refused at the door, not buffered
into unbounded latency.

The controller also keeps an exponentially-weighted average of each
endpoint's execution time (weight 0.2, starting at 0.05 s).  It feeds
the ``Retry-After`` estimate, and it tells the server when a ``/query``
is cheap enough to run on the event loop instead of the thread pool.

Deadlines ride along as :class:`Deadline` objects: a request whose
deadline passes while it is *queued* never starts (504,
``stage="queued"``), and the execution path re-checks the deadline
between micro-batches so an expired request stops computing instead of
orphaning a thread (504, ``stage="execution"``).

All controller state is touched only from the server's event loop, so no
locks are needed; :meth:`drain` is the shutdown half — new admissions
are refused while already-admitted requests run to completion.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from ..utils.exceptions import ValidationError
from .errors import DeadlineExpired, Draining, ShedLoad


class Deadline:
    """A monotonic-clock budget a request must be answered within."""

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: Optional[float]) -> None:
        if seconds is not None and float(seconds) <= 0:
            raise ValidationError("deadline must be positive (or None for none)")
        self.seconds = None if seconds is None else float(seconds)
        self._expires_at = (
            None if self.seconds is None else time.monotonic() + self.seconds
        )

    @property
    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative); ``None`` for no deadline."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExpired` tagged with ``stage`` if overdue."""
        if self.expired:
            raise DeadlineExpired(
                f"deadline of {self.seconds:.3f}s expired during {stage}",
                stage=stage,
            )


#: weight of the newest sample in the per-endpoint execution-time EWMA
EXEC_EWMA_WEIGHT = 0.2
#: execution-time estimate of an endpoint that has not run yet (seconds)
EXEC_SECONDS_START = 0.05


class AdmissionController:
    """Bounded request admission in front of the executor.

    Parameters
    ----------
    max_concurrency:
        Execution slots (matches the serving thread pool's width).
    queue_limit:
        Requests allowed to *wait* for a slot beyond the executing ones;
        arrival number ``max_concurrency + queue_limit + 1`` is shed.
    """

    def __init__(self, max_concurrency: int, queue_limit: int) -> None:
        if int(max_concurrency) < 1:
            raise ValidationError("max_concurrency must be positive")
        if int(queue_limit) < 0:
            raise ValidationError("queue_limit must be >= 0")
        self.max_concurrency = int(max_concurrency)
        self.queue_limit = int(queue_limit)
        self.waiting = 0
        self.active = 0
        self.admitted_total = 0
        self.shed_total = 0
        self.draining = False
        # Exponentially-weighted execution-time average, per endpoint.
        self._exec_seconds: Dict[str, float] = {}
        self._slots: Optional[asyncio.Semaphore] = None
        self._idle: Optional[asyncio.Event] = None

    def _ensure_loop_state(self) -> None:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_concurrency)
            self._idle = asyncio.Event()
            self._idle.set()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Requests currently held by the controller (waiting + active)."""
        return self.waiting + self.active

    def exec_seconds(self, endpoint: str) -> float:
        """Recent execution time of ``endpoint`` (EWMA, seconds)."""
        return self._exec_seconds.get(endpoint, EXEC_SECONDS_START)

    def retry_after_estimate(self, endpoint: str) -> float:
        """When a shed client should retry: queue drain time at recent speed."""
        backlog = self.waiting + self.active
        estimate = self.exec_seconds(endpoint) * (backlog + 1) / self.max_concurrency
        return min(max(estimate, 0.05), 30.0)

    async def admit(self, deadline: Deadline, endpoint: str) -> None:
        """Wait for an execution slot (or shed / expire trying).

        Raises :class:`Draining` when the server is shutting down,
        :class:`ShedLoad` when the waiting room is full, and
        :class:`DeadlineExpired` (``stage="queued"``) when the deadline
        passes before a slot frees up — in which case the request is
        removed from the queue, not left to run after its client gave up.
        """
        self._ensure_loop_state()
        if self.draining:
            raise Draining(
                "server is draining; no new requests are admitted",
                retry_after=self.retry_after_estimate(endpoint),
            )
        # Shed only when the request would actually have to wait: a free
        # execution slot admits immediately even with queue_limit=0.
        if self._slots.locked() and self.waiting >= self.queue_limit:
            self.shed_total += 1
            raise ShedLoad(
                f"admission queue full ({self.active} executing, "
                f"{self.waiting} queued, limit {self.queue_limit})",
                retry_after=self.retry_after_estimate(endpoint),
            )
        self.waiting += 1
        self._idle.clear()
        try:
            timeout = deadline.remaining
            if timeout is None:
                await self._slots.acquire()
            else:
                try:
                    await asyncio.wait_for(self._slots.acquire(), timeout=max(timeout, 0.0))
                except asyncio.TimeoutError:
                    raise DeadlineExpired(
                        f"deadline of {deadline.seconds:.3f}s expired after "
                        f"waiting {deadline.seconds - max(timeout, 0.0):.3f}s "
                        "in the admission queue",
                        stage="queued",
                    ) from None
            # mark the slot active *before* leaving the waiting room, so
            # depth never dips to 0 mid-handoff (drain would fire early)
            self.active += 1
            self.admitted_total += 1
        finally:
            self.waiting -= 1
            self._maybe_idle()

    def release(self, endpoint: str, exec_seconds: Optional[float] = None) -> None:
        """Return ``endpoint``'s execution slot; feeds its execution-time EWMA."""
        self.active -= 1
        self._slots.release()
        if exec_seconds is not None:
            average = self.exec_seconds(endpoint)
            self._exec_seconds[endpoint] = average + EXEC_EWMA_WEIGHT * (
                float(exec_seconds) - average
            )
        self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self.depth == 0 and self._idle is not None:
            self._idle.set()

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #
    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new admissions, then wait for in-flight work to finish.

        Already-queued requests still get slots and complete normally —
        drain bounds *new* work, it never abandons accepted work.
        Returns ``True`` once the controller is empty, ``False`` if
        ``timeout`` elapsed first.
        """
        self._ensure_loop_state()
        self.draining = True
        if self.depth == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False
