"""Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018).

HNSW is the graph-based ANN baseline of Figure 7.  The implementation
follows the paper's Algorithms 1–5: points are inserted into a multi-layer
proximity graph; search descends greedily from the top layer and runs a
best-first beam (``ef``) search on the bottom layer.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities, RegisteredIndex
from ..api.registry import register_index
from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int


@register_index(
    "hnsw",
    capabilities=IndexCapabilities(
        metrics=("euclidean",),
        probe_parameter="ef",
        trainable=False,
        shardable=True,
        filterable=True,
    ),
    description="Hierarchical navigable small-world graph (Malkov & Yashunin 2018)",
)
class HnswIndex(RegisteredIndex):
    """Hierarchical navigable small-world graph index.

    Parameters
    ----------
    m:
        Maximum number of neighbours per node on the upper layers (the
        bottom layer allows ``2 * m``).
    ef_construction:
        Beam width used while inserting points.
    ef_search:
        Default beam width used while querying (can be overridden per call).
    seed:
        Seed for the level sampling.
    """

    _fitted = ("_base", "_levels", "_graphs", "_entry_point", "build_seconds")

    def __init__(
        self,
        m: int = 16,
        *,
        ef_construction: int = 100,
        ef_search: int = 50,
        seed: SeedLike = None,
    ) -> None:
        self.m = check_positive_int(m, "m")
        self.ef_construction = check_positive_int(ef_construction, "ef_construction")
        self.ef_search = check_positive_int(ef_search, "ef_search")
        self._rng = resolve_rng(seed)
        self._base: Optional[np.ndarray] = None
        self._levels: Optional[np.ndarray] = None
        self._graphs: List[Dict[int, List[int]]] = []
        self._entry_point: Optional[int] = None
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._base is not None

    def _require_built(self) -> None:
        if self._base is None:
            raise NotFittedError("HnswIndex has not been built yet")

    def vectors(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        self._require_built()
        return self._base if ids is None else self._base[ids]

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._base.shape[1])

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._base.shape[0])

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "HnswIndex":
        """Insert every point of ``base`` into the layered graph."""
        import time

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        self._base = base
        n = base.shape[0]
        level_mult = 1.0 / np.log(self.m)
        self._levels = np.floor(
            -np.log(np.clip(self._rng.random(n), 1e-12, 1.0)) * level_mult
        ).astype(np.int64)
        max_level = int(self._levels.max())
        self._graphs = [dict() for _ in range(max_level + 1)]
        self._entry_point = None
        for point_id in range(n):
            self._insert(point_id)
        self.build_seconds = time.perf_counter() - start
        return self

    def _distance(self, query: np.ndarray, ids) -> np.ndarray:
        vectors = self._base[np.asarray(ids, dtype=np.int64)]
        diff = vectors - query
        return np.einsum("ij,ij->i", diff, diff)

    def _insert(self, point_id: int) -> None:
        point = self._base[point_id]
        level = int(self._levels[point_id])
        for layer in range(level + 1):
            self._graphs[layer].setdefault(point_id, [])
        if self._entry_point is None:
            self._entry_point = point_id
            return
        entry = self._entry_point
        top_level = int(self._levels[self._entry_point])
        # Greedy descent through layers above the node's level.
        for layer in range(top_level, level, -1):
            entry = self._greedy_search(point, entry, layer)
        # Beam search + connect on the node's layers.
        for layer in range(min(level, top_level), -1, -1):
            candidates = self._search_layer(point, [entry], layer, self.ef_construction)
            max_degree = self.m if layer > 0 else 2 * self.m
            neighbors = self._select_neighbors(point, candidates, max_degree)
            graph = self._graphs[layer]
            graph[point_id] = list(neighbors)
            for neighbor in neighbors:
                links = graph.setdefault(neighbor, [])
                links.append(point_id)
                if len(links) > max_degree:
                    pruned = self._select_neighbors(
                        self._base[neighbor], links, max_degree
                    )
                    graph[neighbor] = list(pruned)
            if candidates:
                entry = candidates[0][1]
        if level > top_level:
            self._entry_point = point_id

    def _greedy_search(self, query: np.ndarray, entry: int, layer: int) -> int:
        current = entry
        current_dist = float(self._distance(query, [current])[0])
        improved = True
        graph = self._graphs[layer]
        while improved:
            improved = False
            neighbors = graph.get(current, [])
            if not neighbors:
                break
            dists = self._distance(query, neighbors)
            best = int(dists.argmin())
            if dists[best] < current_dist:
                current = neighbors[best]
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entries: List[int], layer: int, ef: int
    ) -> List[Tuple[float, int]]:
        """Best-first search on one layer; returns (distance, id) sorted ascending."""
        graph = self._graphs[layer]
        visited = set(entries)
        entry_dists = self._distance(query, entries)
        candidates = [(float(d), int(e)) for d, e in zip(entry_dists, entries)]
        heapq.heapify(candidates)  # min-heap by distance
        results = [(-float(d), int(e)) for d, e in zip(entry_dists, entries)]
        heapq.heapify(results)  # max-heap (negated) of the best ef
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if dist > worst and len(results) >= ef:
                break
            neighbors = [n for n in graph.get(node, []) if n not in visited]
            if not neighbors:
                continue
            visited.update(neighbors)
            dists = self._distance(query, neighbors)
            for d, n in zip(dists, neighbors):
                d = float(d)
                if len(results) < ef or d < -results[0][0]:
                    heapq.heappush(candidates, (d, int(n)))
                    heapq.heappush(results, (-d, int(n)))
                    if len(results) > ef:
                        heapq.heappop(results)
        ordered = sorted((-d, n) for d, n in results)
        return [(d, n) for d, n in ordered]

    def _select_neighbors(
        self, point: np.ndarray, candidates, max_degree: int
    ) -> List[int]:
        """Heuristic neighbour selection (HNSW Algorithm 4).

        Candidates are considered closest-first; a candidate is kept only if
        it is closer to ``point`` than to every already-selected neighbour.
        This keeps links pointing in diverse directions, which is what makes
        greedy search able to hop between clusters.  If the diversity filter
        leaves spare degree, the nearest rejected candidates fill it up.
        """
        if candidates and isinstance(candidates[0], tuple):
            ids = [c[1] for c in candidates]
        else:
            ids = list(candidates)
        if not ids:
            return []
        ids = list(dict.fromkeys(int(i) for i in ids))
        id_array = np.asarray(ids, dtype=np.int64)
        dists = self._distance(point, id_array)
        order = np.argsort(dists)
        # Pairwise distances among candidates, computed once so the
        # diversity filter below is O(c^2) array lookups, not repeated
        # distance evaluations.
        vectors = self._base[id_array]
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        pairwise = sq_norms[:, None] - 2.0 * (vectors @ vectors.T) + sq_norms[None, :]
        selected_ranks: List[int] = []
        rejected_ranks: List[int] = []
        for rank in order:
            rank = int(rank)
            if len(selected_ranks) >= max_degree:
                break
            if not selected_ranks:
                selected_ranks.append(rank)
                continue
            dist_to_point = float(dists[rank])
            dist_to_selected = pairwise[rank, selected_ranks].min()
            if dist_to_selected < dist_to_point:
                rejected_ranks.append(rank)
            else:
                selected_ranks.append(rank)
        for rank in rejected_ranks:
            if len(selected_ranks) >= max_degree:
                break
            selected_ranks.append(rank)
        return [ids[rank] for rank in selected_ranks]

    # ------------------------------------------------------------------ #
    def query(
        self,
        query: np.ndarray,
        k: int = 10,
        *,
        ef: Optional[int] = None,
        filter=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``k`` nearest neighbours of one query."""
        self._require_built()
        if filter is not None:
            ids, dists = self.batch_query(
                np.atleast_2d(np.asarray(query, dtype=np.float64)),
                k,
                ef=ef,
                filter=filter,
            )
            return ids[0], dists[0]
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValidationError("query dimensionality mismatch")
        ef = max(k, ef or self.ef_search)
        entry = self._entry_point
        for layer in range(len(self._graphs) - 1, 0, -1):
            entry = self._greedy_search(query, entry, layer)
        results = self._search_layer(query, [entry], 0, ef)[:k]
        indices = np.full(k, -1, dtype=np.int64)
        distances = np.full(k, np.inf)
        for i, (dist, node) in enumerate(results):
            indices[i] = node
            distances[i] = np.sqrt(dist)
        return indices, distances

    def batch_query(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        ef: Optional[int] = None,
        filter=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        if filter is not None:
            # Graph traversal cannot skip nodes without breaking
            # reachability, so the planner post-filters with adaptive
            # over-fetch (ef widens with the fetch size) or, for highly
            # selective predicates, brute-forces the surviving subset.
            kwargs = {} if ef is None else {"ef": int(ef)}
            return self._filtered_batch_query(queries, k, filter, **kwargs)
        indices = np.full((queries.shape[0], k), -1, dtype=np.int64)
        distances = np.full((queries.shape[0], k), np.inf)
        for i, query in enumerate(queries):
            indices[i], distances[i] = self.query(query, k, ef=ef)
        return indices, distances
