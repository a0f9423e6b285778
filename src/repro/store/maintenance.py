"""Background maintenance for durable collections.

Auto-checkpoint and auto-compaction are policy, not mechanism: the
mechanism lives in :meth:`Collection.checkpoint` / :meth:`Collection.compact`,
and this module decides *when* to invoke it by reading the
mutation-pressure gauges the stack already exposes — the collection's
``wal_ops`` / ``wal_bytes`` (recovery-time pressure) and the mutable
index's ``n_pending`` / ``n_tombstones`` counters (query-cost pressure,
surfaced through ``SearchService.stats()`` for operators reading the
same numbers).

:class:`MaintenanceLoop` runs the policy either on a daemon thread
(:meth:`start` / :meth:`stop`) or one decision at a time through
:meth:`run_once`, which tests and benchmarks call directly for
deterministic schedules.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..utils.exceptions import ValidationError


class MaintenanceLoop:
    """Drive checkpoints and compaction from mutation-pressure gauges.

    Parameters
    ----------
    collection:
        The :class:`~repro.store.Collection` to maintain.
    checkpoint_ops:
        Checkpoint once the WAL holds at least this many operations
        (bounds replay length, hence recovery time).  ``None`` disables
        the op trigger.
    checkpoint_bytes:
        Checkpoint once the WAL file reaches this size.  ``None``
        disables the byte trigger.
    compact_pressure:
        Compact the index once ``(pending + tombstoned) / live`` exceeds
        this fraction — the same gauge :class:`~repro.shard.ShardedIndex`
        uses for its own opt-in auto-compaction; collections typically
        disable the index-level trigger (``compact_threshold=None``) and
        let this loop decide, so compaction cost lands on the maintenance
        thread instead of a caller's mutation.  ``None`` disables it.
    interval_seconds:
        Sleep between decisions on the background thread.
    """

    def __init__(
        self,
        collection,
        *,
        checkpoint_ops: Optional[int] = 1024,
        checkpoint_bytes: Optional[int] = 64 * 1024 * 1024,
        compact_pressure: Optional[float] = 0.25,
        interval_seconds: float = 5.0,
    ) -> None:
        if checkpoint_ops is not None and int(checkpoint_ops) < 1:
            raise ValidationError("checkpoint_ops must be positive (or None)")
        if checkpoint_bytes is not None and int(checkpoint_bytes) < 1:
            raise ValidationError("checkpoint_bytes must be positive (or None)")
        if compact_pressure is not None and float(compact_pressure) <= 0:
            raise ValidationError("compact_pressure must be positive (or None)")
        if float(interval_seconds) <= 0:
            raise ValidationError("interval_seconds must be positive")
        self.collection = collection
        self.checkpoint_ops = None if checkpoint_ops is None else int(checkpoint_ops)
        self.checkpoint_bytes = (
            None if checkpoint_bytes is None else int(checkpoint_bytes)
        )
        self.compact_pressure = (
            None if compact_pressure is None else float(compact_pressure)
        )
        self.interval_seconds = float(interval_seconds)
        self.runs = 0
        self.checkpoints = 0
        self.compactions = 0
        self.last_error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # the policy
    # ------------------------------------------------------------------ #
    def gauges(self) -> Dict[str, Any]:
        """The pressure readings one decision is based on."""
        index = self.collection.index
        return {
            "wal_ops": int(self.collection.wal_ops),
            "wal_bytes": int(self.collection.wal_bytes),
            "n_pending": int(index.n_pending),
            "n_tombstones": int(index.n_tombstones),
            "mutation_pressure": float(index.mutation_pressure),
        }

    def run_once(self) -> Dict[str, Any]:
        """Take one maintenance decision; returns what was done and why.

        Compaction runs before the checkpoint check so a triggered
        checkpoint materialises the compacted structure rather than
        snapshotting churn it is about to fold away.
        """
        gauges = self.gauges()
        actions: Dict[str, Any] = {
            "compacted": False,
            "checkpointed": False,
            "gauges": gauges,
        }
        if (
            self.compact_pressure is not None
            and gauges["mutation_pressure"] > self.compact_pressure
        ):
            self.collection.compact()
            self.compactions += 1
            actions["compacted"] = True
        if (
            self.checkpoint_ops is not None
            and gauges["wal_ops"] >= self.checkpoint_ops
        ) or (
            self.checkpoint_bytes is not None
            and gauges["wal_bytes"] >= self.checkpoint_bytes
        ):
            actions["generation"] = self.collection.checkpoint()
            self.checkpoints += 1
            actions["checkpointed"] = True
        self.runs += 1
        return actions

    # ------------------------------------------------------------------ #
    # the background thread
    # ------------------------------------------------------------------ #
    def start(self) -> "MaintenanceLoop":
        """Run the policy every ``interval_seconds`` on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"maintenance-{self.collection.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.run_once()
            except Exception as exc:  # pragma: no cover - timing dependent
                # A poisoned/closed collection would fail every tick;
                # record the reason and stand down instead of spinning.
                self.last_error = f"{type(exc).__name__}: {exc}"
                return

    def stop(self) -> None:
        """Signal the thread and wait for it to exit (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
