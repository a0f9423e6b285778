"""Rate quotas: a monotonic-clock token bucket with an injectable clock.

Each tenant holds one bucket per rate-limited resource (queries,
write ops).  The bucket refills continuously at ``rate`` tokens per
second up to ``burst``; acquiring ``n`` tokens succeeds when the balance
covers them — and, so that a single batch larger than the burst is not
un-servable forever, a *full* bucket also grants an oversized acquire by
dipping the balance negative (the debt refills at ``rate``, so sustained
throughput stays bounded by the configured rate either way).

A denied acquire reports the exact refill-derived wait until it would
succeed; the serving layer forwards it as the 429 ``Retry-After``.  The
clock is injected (``clock=time.monotonic`` by default) so tests drive
refill deterministically — no ``time.sleep`` anywhere in the suite.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..utils.exceptions import QuotaExceededError, ValidationError


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second up to ``burst``."""

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if float(rate) <= 0:
            raise ValidationError("TokenBucket rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValidationError("TokenBucket burst must be positive")
        self._clock = clock
        self._tokens = self.burst
        self._updated = float(clock())
        self._lock = threading.Lock()
        self.granted = 0
        self.denied = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    @property
    def tokens(self) -> float:
        """Current balance (refilled to now; may be negative after debt)."""
        with self._lock:
            self._refill(float(self._clock()))
            return self._tokens

    def try_acquire(self, n: float = 1.0) -> Optional[float]:
        """Take ``n`` tokens; ``None`` on success, retry-after seconds on denial.

        An acquire larger than ``burst`` is granted only from a full
        bucket (balance goes negative — debt); otherwise the denial's
        retry-after is exactly the refill time until the acquire would
        succeed, so a client honouring it never retries early.
        """
        n = float(n)
        if n <= 0:
            return None
        with self._lock:
            self._refill(float(self._clock()))
            needed = min(n, self.burst)  # oversize acquires need a full bucket
            if self._tokens >= needed:
                self._tokens -= n
                self.granted += 1
                return None
            self.denied += 1
            return (needed - self._tokens) / self.rate

    def acquire_or_raise(self, n: float = 1.0, *, resource: str = "qps") -> None:
        """:meth:`try_acquire` that raises a typed :class:`QuotaExceededError`."""
        retry_after = self.try_acquire(n)
        if retry_after is not None:
            raise QuotaExceededError(
                f"{resource} quota exceeded: {n:g} token(s) requested, "
                f"refill in {retry_after:.3f}s (rate {self.rate:g}/s, "
                f"burst {self.burst:g})",
                resource=resource,
                retry_after_seconds=retry_after,
            )

    def stats(self) -> dict:
        with self._lock:
            self._refill(float(self._clock()))
            return {
                "rate": self.rate,
                "burst": self.burst,
                "tokens": self._tokens,
                "granted": self.granted,
                "denied": self.denied,
            }
