"""Shared two-stage (quantized scan → exact re-rank) index machinery.

Every quantized backend follows the same online shape:

1. **scan** — score every row the query may return against each query
   using only the compressed codes, one tile at a time (subclass hook
   :meth:`_tile_scores`); the raw vectors are never touched.  A tile is
   a query range x a run of rows whose float32 score matrix holds at
   most :data:`SCAN_TILE` elements, so no full ``(queries, n)`` matrix
   is ever materialised;
2. **over-fetch** — keep the best ``rerank`` candidates per query
   (default ``rerank_factor * k``, the recall/cost knob surfaced as the
   registry's ``probe_parameter``) as a running top-``rerank`` set: the
   first tile seeds it by partition, every later tile only contributes
   the rows strictly below the current ``rerank``-th score, merged in
   with one stable sort.  Ties always keep the smallest row id, so the
   candidates are exactly the first ``rerank`` columns of a stable
   argsort of the scores the tiles computed;
3. **re-rank** — compute exact distances for just those candidates
   against the stored full-precision vectors and return the top ``k``.

The re-rank source is either the resident ``float32`` copy kept from
``build`` or, after ``save``/``load``, a read-only memmap over the saved
:class:`~repro.quant.VectorStore` — fetching ``rerank`` rows per query
faults in only their pages, so a loaded index serves collections whose
full-precision footprint exceeds resident memory.

Filtering **selects before it scores**: a resolved boolean mask becomes
the ascending list of allowed row ids, and the tiles walk that list, so
a disallowed row is never scored and can never reach the re-rank.  When
the allowed subset fits inside the re-rank budget entirely, the scan is
skipped and the subset is re-ranked exactly — brute-force-over-subset by
construction.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..api.protocol import RegisteredIndex
from ..core.base import rerank_candidates
from ..obs.trace import span
from ..utils.distances import iter_blocks
from ..utils.exceptions import (
    ConfigurationError,
    NotFittedError,
    SerializationError,
    ValidationError,
)
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .memmap_store import VectorStore

#: sub-directory (next to ``index.json``) holding the re-rank vectors
VECTORS_DIR = "vectors"

#: float32 elements one scan tile may hold (8 MB): the cap on its
#: (queries, rows) score matrix.  A kernel whose rows also cost decoded
#: codes or gather buffers takes fewer rows (see ``_tile_rows``)
SCAN_TILE = 1 << 21


def tile_rows(row_cost: int) -> int:
    """Rows per scan tile when one row costs ``row_cost`` float32 elements."""
    return max(1, SCAN_TILE // max(1, row_cost))


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalise rows (zero rows pass through unscaled)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def _query_score_keys(owner: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """int64 keys that order (owner, float32 score) pairs lexicographically.

    A float32's bits, with the magnitude bits flipped when negative, order
    like the float itself as a signed int32; adding ``+0.0`` first folds
    ``-0.0`` onto ``+0.0`` so the two stay equal.
    """
    bits = (scores + np.float32(0.0)).view(np.int32).astype(np.int64)
    bits ^= (bits >> 31) & 0x7FFFFFFF
    return (owner << 32) + bits


def _merge_top(
    best: Optional[Tuple[np.ndarray, np.ndarray]],
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    rows: int,
    budget: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``budget`` smallest (score, id) pairs per query of a pool.

    The pool is ``best`` — ``None`` or ``(scores, ids)`` of shape ``(rows,
    budget)`` in (score, id) order — followed by ``parts``, survivor
    ``(owner, score, id)`` arrays in (owner, id) order, each from rows
    after every earlier part's.  Ids therefore ascend within every equal
    (owner, score) run, so a stable sort on (owner, score) orders the pool
    by (owner, score, id).  Every query must own at least ``budget``
    entries.
    """
    if best is not None:
        held_owner = np.repeat(np.arange(rows), budget)
        parts = [(held_owner, best[0].ravel(), best[1].ravel()), *parts]
    owner, scores, ids = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(_query_score_keys(owner, scores), kind="stable")
    counts = np.bincount(owner, minlength=rows)
    firsts = np.cumsum(counts) - counts
    pick = order[firsts[:, None] + np.arange(budget)]
    return scores[pick], ids[pick]


class QuantizedIndexBase(RegisteredIndex):
    """Base class for code-scanning backends with an exact re-rank stage.

    Subclasses implement six hooks:

    * :meth:`_fit_codec` — train the codec and encode the (metric-adjusted)
      base matrix into compressed codes;
    * :meth:`_encode_queries` — turn (metric-adjusted) queries into the
      operand the tile kernel consumes, one leading row per query;
    * :meth:`_tile_scores` — approximate float32 scores of a tile's
      ``rows`` (a ``slice`` of consecutive rows, or an ascending int64
      id array) for encoded queries, monotone in distance (smaller =
      closer) up to a per-query constant, computed from the codes alone;
    * :meth:`_tile_rows` — rows per tile for a query count, from the
      float32 elements one row of a tile costs the kernel;
    * :meth:`_codec_state` / :meth:`_restore_codec` — persistence of the
      codec arrays (the re-rank vectors are handled here, through the
      :class:`VectorStore`).
    """

    def __init__(
        self,
        *,
        metric: str = "euclidean",
        rerank_factor: int = 4,
    ) -> None:
        if metric not in type(self).capabilities.metrics:
            raise ConfigurationError(
                f"{type(self).__name__} does not support metric {metric!r} "
                f"(supported: {type(self).capabilities.metrics})"
            )
        self.metric = str(metric)
        self.rerank_factor = check_positive_int(rerank_factor, "rerank_factor")
        self._vectors: Optional[np.ndarray] = None
        self._store: Optional[VectorStore] = None
        self._dim: Optional[int] = None
        self._n_points: Optional[int] = None

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _fit_codec(self, encoded_base: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def _encode_queries(self, queries: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _tile_scores(
        self, encoded_queries: np.ndarray, rows: Union[slice, np.ndarray]
    ) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _tile_rows(self, n_queries: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def _codec_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        raise NotImplementedError  # pragma: no cover

    def _restore_codec(
        self, config: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        raise NotImplementedError  # pragma: no cover

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "QuantizedIndexBase":
        """Encode ``base`` into codes and keep a ``float32`` re-rank copy."""
        base = as_float_matrix(base, name="base")
        self._dim = int(base.shape[1])
        self._n_points = int(base.shape[0])
        # float32 is the stored precision: the memmapped VectorStore holds
        # exactly these values, so resident and loaded indexes re-rank
        # bitwise-identically.
        self._vectors = np.ascontiguousarray(base, dtype=np.float32)
        self._store = None
        self._fit_codec(self._encode_input(base))
        return self

    def _encode_input(self, points: np.ndarray) -> np.ndarray:
        """What the codec sees, base or queries: normalised rows under cosine.

        Euclidean distance on L2-normalised vectors ranks exactly like
        cosine distance, so the cosine scan quantizes the normalised base
        and the exact re-rank applies the true cosine metric to the raw
        stored vectors.
        """
        if self.metric == "cosine":
            return _normalize_rows(points)
        return points

    # ------------------------------------------------------------------ #
    # protocol properties
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._n_points is not None

    def _require_built(self) -> None:
        if self._n_points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._n_points)

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._dim)

    @property
    def vector_store(self) -> Optional[VectorStore]:
        """The memmapped re-rank store (``None`` while vectors are resident)."""
        return self._store

    def resident_bytes(self) -> int:
        """Bytes of numpy state held in RAM by the serving path.

        Memory-mapped arrays (the re-rank vectors of a loaded index)
        count zero: their pages are file-backed and evictable, which is
        the whole point of the two-stage design.
        """
        total = 0
        for value in self.__dict__.values():
            if isinstance(value, np.memmap):
                continue
            if isinstance(value, np.ndarray):
                total += int(value.nbytes)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, np.ndarray) and not isinstance(item, np.memmap):
                        total += int(item.nbytes)
        total += self._codec_resident_bytes()
        return total

    def _codec_resident_bytes(self) -> int:
        """Resident bytes held behind codec objects (subclass hook)."""
        return 0

    # ------------------------------------------------------------------ #
    # two-stage online phase
    # ------------------------------------------------------------------ #
    def _rerank_budget(self, k: int, rerank: Optional[int]) -> int:
        """Resolve the over-fetch knob: at least ``k``, at most ``n``."""
        if rerank is None:
            budget = self.rerank_factor * k
        else:
            budget = check_positive_int(rerank, "rerank")
        return int(min(max(budget, k), self.n_points))

    def batch_query(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        rerank: Optional[int] = None,
        filter=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Quantized scan, over-fetch, exact re-rank.

        ``rerank`` is the over-fetch budget (stage-1 survivors per
        query); it defaults to ``rerank_factor * k`` and is clamped to
        ``[k, n_points]``.  Returned distances are always *exact*
        full-precision distances under ``self.metric`` — approximation
        only affects which candidates survive the scan.

        ``filter=`` (predicate / boolean mask / id allowlist) is applied
        before the scan: only the allowed rows are scored.  When the
        allowed subset fits inside the budget the scan is skipped
        entirely and the subset is re-ranked exactly.
        """
        self._require_built()
        queries = as_query_matrix(np.atleast_2d(queries), self.dim)
        # k > n: the budget clips to n and the re-rank pads to k columns
        k = check_positive_int(k, "k")
        budget = self._rerank_budget(k, rerank)
        n_queries = queries.shape[0]
        allowed = None
        if filter is not None:
            from ..filter.planner import filter_row_count, resolve_filter

            mask = resolve_filter(filter, self, filter_row_count(self))
            if mask is not None:
                allowed = np.flatnonzero(mask)
        if allowed is not None:
            if allowed.size == 0:
                return (
                    np.full((n_queries, k), -1, dtype=np.int64),
                    np.full((n_queries, k), np.inf),
                )
            if allowed.size <= budget:
                # The whole surviving subset fits in the re-rank budget:
                # skip stage 1 — exact brute force over the subset.
                with span(
                    "quant.rerank",
                    candidates=int(allowed.size),
                    subset_shortcut=True,
                    source="memmap" if self._store is not None else "resident",
                ):
                    return rerank_candidates(
                        self._vectors,
                        queries,
                        [allowed] * n_queries,
                        k,
                        metric=self.metric,
                    )
        with span(
            "quant.scan",
            budget=int(budget),
            kernel=getattr(type(self), "_registry_name", type(self).__name__),
        ) as scan_span:
            candidates, tiles, survivors = self._scan(queries, budget, allowed)
            scanned = self.n_points if allowed is None else allowed.size
            scan_span.set(rows=int(scanned) if tiles else 0, tiles=tiles, survivors=survivors)
        with span(
            "quant.rerank",
            candidates=int(budget),
            source="memmap" if self._store is not None else "resident",
        ):
            return rerank_candidates(
                self._vectors, queries, list(candidates), k, metric=self.metric
            )

    def _scan(
        self, queries: np.ndarray, budget: int, allowed: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, int, int]:
        """Stage 1: top-``budget`` candidate rows per query, by code scores.

        ``allowed`` is ``None`` (every row) or the ascending ids of the rows
        a filter allows; only those rows are scored, ``row_step`` of them
        per tile.  Returns ``(ids, tiles, survivors)``: ``ids`` is
        ``(queries, budget)`` in (score, row id) order — the first
        ``budget`` columns of a stable argsort of the scored rows — ``tiles``
        counts the tiles scored and ``survivors`` the rows that passed a
        tile's selection threshold.
        """
        n = self.n_points if allowed is None else allowed.size
        n_queries = queries.shape[0]
        if budget >= n:
            ids = np.arange(n, dtype=np.int64) if allowed is None else allowed
            return np.broadcast_to(ids, (n_queries, n)), 0, 0
        adjusted = self._encode_input(queries)
        # Query ranges stop at sqrt(SCAN_TILE) so a tile is never much
        # narrower than it is tall.
        query_step = min(n_queries, math.isqrt(SCAN_TILE))
        row_step = self._tile_rows(query_step)
        # Selection runs on positions in the scanned row list; allowed ids
        # ascend, so position order is id order and the tie rule holds.
        out = np.empty((n_queries, budget), dtype=np.int64)
        tiles = survivors = 0
        for q_start, q_stop in iter_blocks(n_queries, query_step):
            encoded = self._encode_queries(adjusted[q_start:q_stop])
            rows = q_stop - q_start
            # Top-budget per query as of the last merge, (scores, positions)
            # in (score, position) order, and the survivors found since.
            # Merging only once the survivors could refill every query keeps
            # the merge count logarithmic in the tiles; the stale bound just
            # lets a few more rows through.
            best = None
            pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            pending_size = 0
            for start, stop in iter_blocks(n, row_step):
                tile = slice(start, stop) if allowed is None else allowed[start:stop]
                scores = self._tile_scores(encoded, tile)
                tiles += 1
                width = stop - start
                if best is None and width >= budget:
                    # Seed: each query's budget-th score in this tile bounds
                    # its top-budget; every row tying it is kept.
                    kth = np.partition(scores, budget - 1, axis=1)[:, budget - 1 : budget]
                    keep = np.flatnonzero(scores <= kth)
                    survivors += int(keep.size)
                    kept = scores.ravel()[keep]
                    if keep.size == rows * budget:
                        # No tie at any threshold: the survivors form a
                        # (rows, budget) grid in id order, so a stable sort
                        # of each row orders it by (score, id).
                        order = np.argsort(kept.reshape(rows, budget), axis=1, kind="stable")
                        order += np.arange(0, keep.size, budget)[:, None]
                        best = (kept[order], keep[order] % width + start)
                    else:
                        owner, column = np.divmod(keep, width)
                        best = _merge_top(None, [(owner, kept, column + start)], rows, budget)
                    continue
                if best is None:
                    # A tile narrower than the budget: pad with (+inf, n).
                    best = (
                        np.full((rows, budget), np.inf, dtype=np.float32),
                        np.full((rows, budget), n, dtype=np.int64),
                    )
                # Strict: a later row tying the budget-th score loses to the
                # smaller id already held.
                keep = np.flatnonzero(scores < best[0][:, -1:])
                survivors += int(keep.size)
                if keep.size == 0:
                    continue
                owner, column = np.divmod(keep, width)
                pending.append((owner, scores.ravel()[keep], column + start))
                pending_size += keep.size
                if pending_size >= rows * budget:
                    best = _merge_top(best, pending, rows, budget)
                    pending, pending_size = [], 0
            if pending:
                best = _merge_top(best, pending, rows, budget)
            out[q_start:q_stop] = best[1]
        if allowed is not None:
            out = allowed[out]
        return out, tiles, survivors

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        if not self.is_built:
            return stats
        stats.update(
            {
                "metric": self.metric,
                "rerank_factor": int(self.rerank_factor),
                "resident_bytes": self.resident_bytes(),
                "float32_bytes": int(self.n_points) * int(self.dim) * 4,
                "rerank_source": "memmap" if self._store is not None else "resident",
            }
        )
        if self._store is not None:
            stats["mapped_bytes"] = self._store.file_bytes
        return stats

    # ------------------------------------------------------------------ #
    # persistence: arrays.npz for the codec, VectorStore for the vectors
    # ------------------------------------------------------------------ #
    def _state(self):
        self._require_built()
        config, arrays = self._codec_state()
        config = dict(config)
        arrays = dict(arrays)
        config["__metric__"] = self.metric
        config["__rerank_factor__"] = int(self.rerank_factor)
        config["__n_points__"] = int(self.n_points)
        config["__dim__"] = int(self.dim)
        return config, arrays, {}

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        # Manifests written before the tiled scan also carry a
        # ``__query_block__`` key; it no longer configures anything.
        index = cls(
            metric=str(config["__metric__"]),
            rerank_factor=int(config["__rerank_factor__"]),
        )
        index._n_points = int(config["__n_points__"])
        index._dim = int(config["__dim__"])
        index._restore_codec(config, arrays)
        return index

    def save(
        self,
        path: str | os.PathLike,
        *,
        manifest_extra: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Save codec state via the shared format plus a ``vectors/`` store.

        The full-precision matrix deliberately stays out of ``arrays.npz``
        (which loads eagerly): it goes into a row-major
        :class:`VectorStore` that :meth:`load` re-opens as a memmap.
        """
        path = super().save(path, manifest_extra=manifest_extra)
        VectorStore.create(Path(path) / VECTORS_DIR, self._vectors)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike):
        """Reload the codec and attach the re-rank vectors as a memmap."""
        index = super().load(path)
        store = VectorStore.open(Path(path) / VECTORS_DIR)
        if store.shape != (index.n_points, index.dim):
            raise SerializationError(
                f"vector store at {path} holds {store.shape} vectors but the "
                f"index expects ({index.n_points}, {index.dim}); the store "
                "and the codes do not belong together"
            )
        index._store = store
        index._vectors = store.vectors
        return index

    def _validate_codes_shape(self, codes: np.ndarray) -> None:
        """Guard a restored code matrix against a mismatched manifest."""
        if codes.shape[0] != self._n_points:
            raise ValidationError(
                f"code matrix has {codes.shape[0]} rows, manifest says "
                f"{self._n_points}"
            )
