"""Per-service counters: latency, throughput, cache hit rate, recall.

The counters are updated under a lock because :class:`SearchService` may
be called from several threads at once (the HTTP server's executor does).
Latencies are kept in a bounded window so ``stats()`` can report
percentiles without unbounded memory growth on a long-lived service.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict

import numpy as np


class ServiceMetrics:
    """Thread-safe accumulator behind ``SearchService.stats()``."""

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))
        self.queries = 0
        self.batches = 0
        self.cache_hits = 0
        self.query_seconds = 0.0
        self.recall_sum = 0.0
        self.recall_queries = 0

    def observe_batch(self, n_queries: int, seconds: float, cache_hits: int = 0) -> None:
        if n_queries < 1:
            return
        with self._lock:
            self.queries += int(n_queries)
            self.batches += 1
            self.cache_hits += int(cache_hits)
            self.query_seconds += float(seconds)
            self._latencies.append(float(seconds) / n_queries)

    def observe_recall(self, recall: float, n_queries: int) -> None:
        with self._lock:
            self.recall_sum += float(recall) * int(n_queries)
            self.recall_queries += int(n_queries)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            snapshot: Dict[str, Any] = {
                "queries": int(self.queries),
                "batches": int(self.batches),
                "cache_hits": int(self.cache_hits),
                "query_seconds": float(self.query_seconds),
                "queries_per_second": (
                    self.queries / self.query_seconds if self.query_seconds > 0 else 0.0
                ),
                "cache_hit_ratio": (
                    self.cache_hits / self.queries if self.queries else 0.0
                ),
            }
            if latencies.size:
                snapshot["mean_latency_ms"] = float(latencies.mean() * 1e3)
                snapshot["p50_latency_ms"] = float(np.percentile(latencies, 50) * 1e3)
                snapshot["p95_latency_ms"] = float(np.percentile(latencies, 95) * 1e3)
            if self.recall_queries:
                snapshot["mean_recall"] = self.recall_sum / self.recall_queries
        return snapshot
