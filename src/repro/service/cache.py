"""A small thread-safe LRU cache for query results.

Keys combine the raw query bytes with the request's :meth:`cache_key`, so
two requests hit the same entry only when they would provably produce the
same answer (same vector, same ``k``, same probe setting, same extra
knobs).  Values are read-only copies of the ``(ids, distances)`` the
index returned; :func:`read_through` copies hits into its answer.

Capacity is bounded two ways: ``max_entries`` (the original knob) and an
optional ``max_bytes`` budget metered by per-entry byte accounting — the
result arrays' ``nbytes`` plus the key's query bytes.  The byte gauge is
what the tenant layer's global cache budget weighs partitions by, and it
is exposed as ``cache_bytes`` in :meth:`stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from ..obs.trace import NOOP_SPAN, span
from ..utils.exceptions import ValidationError

CacheValue = Tuple[np.ndarray, np.ndarray]


def _entry_bytes(key: tuple, ids: np.ndarray, distances: np.ndarray) -> int:
    """Approximate resident cost of one entry (arrays + query key bytes)."""
    cost = int(ids.nbytes) + int(distances.nbytes)
    if key and isinstance(key[0], (bytes, bytearray)):
        cost += len(key[0])
    return cost


class QueryCache:
    """Bounded LRU mapping of (query bytes, request key) -> (ids, distances)."""

    def __init__(self, max_entries: int, *, max_bytes: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ValidationError("QueryCache needs max_entries >= 1")
        if max_bytes is not None and int(max_bytes) < 1:
            raise ValidationError("QueryCache max_bytes must be positive (or None)")
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[tuple, CacheValue]" = OrderedDict()
        self._entry_cost: dict = {}
        self._lock = threading.Lock()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(query: np.ndarray, request_key: tuple) -> tuple:
        query = np.ascontiguousarray(query, dtype=np.float64)
        return (query.tobytes(), request_key)

    def get(self, key: tuple) -> Optional[CacheValue]:
        """The stored (read-only) ``(ids, distances)``, or ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: tuple, ids: np.ndarray, distances: np.ndarray) -> None:
        ids = np.array(ids, copy=True)
        distances = np.array(distances, copy=True)
        ids.setflags(write=False)
        distances.setflags(write=False)
        cost = _entry_bytes(key, ids, distances)
        with self._lock:
            previous = self._entry_cost.pop(key, None)
            if previous is not None:
                self.bytes -= previous
            self._entries[key] = (ids, distances)
            self._entry_cost[key] = cost
            self.bytes += cost
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self.bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                self._pop_lru()

    def _pop_lru(self) -> int:
        """Drop the least-recently-used entry; returns bytes freed.

        Callers must hold ``_lock``.
        """
        key, _ = self._entries.popitem(last=False)
        freed = self._entry_cost.pop(key, 0)
        self.bytes -= freed
        self.evictions += 1
        return freed

    def evict_one(self) -> int:
        """Evict the LRU entry (budget-driven); returns bytes freed (0 if empty)."""
        with self._lock:
            if not self._entries:
                return 0
            return self._pop_lru()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._entry_cost.clear()
            self.bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "cache_bytes": self.bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def read_through(
    cache: QueryCache,
    queries: np.ndarray,
    request_key: tuple,
    compute: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    *,
    lookup_span: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Answer ``queries`` from ``cache``, computing and storing only the misses.

    ``compute`` maps the missing query rows (in query order, one bulk
    call) to their ``(ids, distances)``.  Returns the answer in query
    order plus the number of rows that were cache hits; when every row
    missed that is ``compute``'s own arrays (the cache keeps copies).
    ``lookup_span`` names a span around the lookup only.  One row (every
    single query) skips the per-row lists; nothing observable differs.
    """
    if len(queries) == 1:
        with span(lookup_span) if lookup_span else NOOP_SPAN as lookup:
            key = QueryCache.key_for(queries[0], request_key)
            hit = cache.get(key)
            lookup.set(hits=int(hit is not None))
        if hit is not None:
            return hit[0][None].copy(), hit[1][None].copy(), 1
        ids, distances = compute(queries)
        cache.put(key, ids[0], distances[0])
        return ids, distances, 0
    with span(lookup_span) if lookup_span else NOOP_SPAN as lookup:
        keys = [QueryCache.key_for(row, request_key) for row in queries]
        hits = [cache.get(key) for key in keys]
        missing = [row for row, hit in enumerate(hits) if hit is None]
        lookup.set(hits=len(hits) - len(missing))
    if len(missing) == len(hits):
        ids, distances = compute(queries)
        for row, key in enumerate(keys):
            cache.put(key, ids[row], distances[row])
        return ids, distances, 0
    if missing:
        fresh_ids, fresh_distances = compute(queries[missing])
        for position, row in enumerate(missing):
            hits[row] = fresh_ids[position], fresh_distances[position]
            cache.put(keys[row], *hits[row])
    ids, distances = zip(*hits)
    return np.array(ids), np.array(distances), len(hits) - len(missing)
