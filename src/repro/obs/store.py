"""Where finished traces land: a bounded ring buffer and a worst-N log.

:class:`TraceStore` keeps the most recent N finished traces (JSON-able
payloads, newest last) and counts what the ring evicted, so operators
can tell when ``/debug/traces`` is lossy.  :class:`SlowQueryLog` keeps
the worst-N traces by root duration regardless of recency — the p99
outlier from ten minutes ago survives even after the ring has cycled.

Both are thread-safe: the event loop finishes most traces, but follower
replication loops and executor threads finish theirs from other threads.
"""

from __future__ import annotations

import heapq
import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional


class TraceStore:
    """Bounded ring buffer of finished trace payloads."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._traces: deque = deque()
        self._lock = threading.Lock()
        self.dropped = 0

    def put(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._traces) >= self.capacity:
                self._traces.popleft()
                self.dropped += 1
            self._traces.append(payload)

    def get(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every stored trace with this id, oldest first.

        A propagated trace id can legitimately appear more than once —
        one client trace fanning out into several server requests — so
        this returns a list rather than guessing which one was meant.
        """
        with self._lock:
            return [t for t in self._traces if t.get("trace_id") == trace_id]

    def list(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first one-line summaries (id, name, duration, status)."""
        with self._lock:
            recent = list(self._traces)[-max(int(limit), 0):]
        summaries = []
        for payload in reversed(recent):
            summaries.append(
                {
                    "trace_id": payload.get("trace_id"),
                    "name": payload.get("name"),
                    "duration_seconds": payload.get("duration_seconds"),
                    "status": payload.get("status"),
                    "origin": payload.get("origin"),
                    "n_spans": len(payload.get("spans", ())),
                }
            )
        return summaries

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._traces)

    def to_jsonl(self) -> str:
        """The whole ring as JSON Lines (one trace per line, oldest first)."""
        return "".join(
            json.dumps(payload, sort_keys=True) + "\n" for payload in self.snapshot()
        )

    def export_jsonl(self, path) -> int:
        """Write the ring to ``path`` as JSONL; returns traces written."""
        payloads = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for payload in payloads:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
        return len(payloads)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._traces),
                "capacity": self.capacity,
                "dropped": self.dropped,
            }


class SlowQueryLog:
    """Worst-N finished traces by root duration (full span trees kept)."""

    def __init__(self, size: int = 32) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = int(size)
        self._heap: List[Any] = []  # (duration, tiebreak, payload) min-heap
        self._seq = 0
        self._lock = threading.Lock()

    def offer(self, payload: Dict[str, Any]) -> bool:
        """Consider a finished trace; returns True if it was kept."""
        duration = float(payload.get("duration_seconds") or 0.0)
        with self._lock:
            self._seq += 1
            entry = (duration, self._seq, payload)
            if len(self._heap) < self.size:
                heapq.heappush(self._heap, entry)
                return True
            if duration > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)
                return True
            return False

    def worst(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Slowest-first payloads (all of them, or the top ``n``)."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        if n is not None:
            ordered = ordered[: max(int(n), 0)]
        return [payload for _, _, payload in ordered]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
