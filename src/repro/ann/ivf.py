"""IVF and IVF-PQ indexes (the FAISS baseline of Figure 7).

An inverted-file (IVF) index clusters the dataset with a coarse K-means
quantizer; each query probes the ``n_probes`` nearest cells and scans only
their points.  ``IVFFlat`` is :class:`~repro.baselines.kmeans.KMeansIndex`
under IVF's knob names (``n_lists`` cells, ``kmeans_iterations`` Lloyd
iterations, four probes by default), so it answers through the shared
partition scan with exact distances within the probed cells.  ``IVFPQ``
scans product-quantized residual codes of the same cells with ADC lookup
tables and then re-ranks a shortlist exactly, matching the structure of
``faiss.IndexIVFPQ``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..baselines.kmeans import KMeansIndex, KMeansResult
from ..utils.distances import squared_euclidean
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .pq import ProductQuantizer

_IVF_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean",),
    probe_parameter="n_probes",
    trainable=True,
    shardable=True,
    filterable=True,
)


@register_index(
    "ivf-flat",
    capabilities=_IVF_CAPABILITIES,
    description="Inverted-file index with exact in-cell distances",
)
class IVFFlatIndex(KMeansIndex):
    """Inverted file index with exact in-cell distances."""

    def __init__(
        self,
        n_lists: int = 64,
        *,
        kmeans_iterations: int = 25,
        seed: SeedLike = None,
    ) -> None:
        self.n_lists = check_positive_int(n_lists, "n_lists")
        super().__init__(n_lists, max_iterations=kmeans_iterations, seed=seed)
        self.kmeans_iterations = self._kmeans.max_iterations

    def build(self, base: np.ndarray) -> "IVFFlatIndex":
        """Cluster ``base`` into ``min(n_lists, n_points)`` cells."""
        base = as_float_matrix(base, name="base")
        self._kmeans.n_clusters = min(self.n_lists, base.shape[0])
        return super().build(base)

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 4, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        return super().batch_query(queries, k, n_probes=n_probes, filter=filter)

    # ------------------------------------------------------------------ #
    # persistence: the cells are saved as ``centroids`` + ``labels``
    # ------------------------------------------------------------------ #
    def _state(self):
        config = {
            "n_lists": int(self.n_lists),
            "kmeans_iterations": int(self.kmeans_iterations),
            "build_seconds": self.build_seconds,
        }
        arrays = {
            "__base__": self._base,
            "centroids": self.centroids,
            "labels": self._assignments,
        }
        return config, arrays, {}

    def _restore_cells(self, arrays) -> None:
        """Adopt saved cells (the format keeps no K-means fit statistics)."""
        centroids, labels = arrays["centroids"], arrays["labels"]
        self._kmeans.result = KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=float("nan"),
            n_iterations=0,
            converged=False,
        )
        self._finalize_build(arrays["__base__"], labels, centroids.shape[0])

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        index = cls(
            int(config["n_lists"]),
            kmeans_iterations=int(config["kmeans_iterations"]),
        )
        index._restore_cells(arrays)
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index


@register_index(
    "ivf-pq",
    capabilities=_IVF_CAPABILITIES,
    description="IVF with product-quantized residuals (the FAISS baseline)",
)
class IVFPQIndex(IVFFlatIndex):
    """IVF with product-quantized residuals and exact re-ranking.

    ``rerank_factor * k`` ADC candidates are re-ranked with exact distances,
    as FAISS does when refinement is enabled.
    """

    def __init__(
        self,
        n_lists: int = 64,
        *,
        n_subspaces: int = 8,
        n_codewords: int = 256,
        rerank_factor: int = 4,
        kmeans_iterations: int = 25,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(n_lists, kmeans_iterations=kmeans_iterations, seed=seed)
        self.seed = seed
        self.n_subspaces = check_positive_int(n_subspaces, "n_subspaces")
        self.n_codewords = check_positive_int(n_codewords, "n_codewords")
        self.rerank_factor = check_positive_int(rerank_factor, "rerank_factor")
        self._pq: Optional[ProductQuantizer] = None
        self._codes: Optional[np.ndarray] = None

    def build(self, base: np.ndarray) -> "IVFPQIndex":
        super().build(base)
        start = time.perf_counter()
        residuals = self._base - self.centroids[self._assignments]
        self._pq = ProductQuantizer(
            self.n_subspaces,
            self.n_codewords,
            kmeans_iterations=self.kmeans_iterations,
            seed=self.seed,
        ).fit(residuals)
        self._codes = self._pq.encode(residuals)
        self.build_seconds += time.perf_counter() - start
        return self

    def query(
        self, query: np.ndarray, k: int = 10, *, n_probes: int = 4, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """ADC scan of the ``n_probes`` nearest cells, then an exact re-rank."""
        self._require_built()
        if filter is not None:
            ids, dists = self.batch_query(
                np.atleast_2d(np.asarray(query, dtype=np.float64)),
                k,
                n_probes=n_probes,
                filter=filter,
            )
            return ids[0], dists[0]
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        n_probes = min(check_positive_int(n_probes, "n_probes"), self.n_bins)
        cell_distances = squared_euclidean(query[None, :], self.centroids)[0]
        probe_order = np.argsort(cell_distances)[:n_probes]

        candidate_ids: List[np.ndarray] = []
        candidate_scores: List[np.ndarray] = []
        for cell in probe_order:
            members = self._lookup[cell]
            if len(members) == 0:
                continue
            residual_query = query - self.centroids[cell]
            scores = self._pq.adc_distances(residual_query, self._codes[members])
            candidate_ids.append(members)
            candidate_scores.append(scores)
        if not candidate_ids:
            return np.full(k, -1, dtype=np.int64), np.full(k, np.inf)
        ids = np.concatenate(candidate_ids)
        scores = np.concatenate(candidate_scores)

        shortlist_size = min(len(ids), max(k, self.rerank_factor * k))
        part = np.argpartition(scores, kth=shortlist_size - 1)[:shortlist_size]
        shortlist = ids[part]
        exact = squared_euclidean(query[None, :], self._base[shortlist])[0]
        top = min(k, shortlist.size)
        best = np.argpartition(exact, kth=top - 1)[:top]
        order = best[np.argsort(exact[best], kind="stable")]
        indices = np.full(k, -1, dtype=np.int64)
        dists = np.full(k, np.inf)
        indices[:top] = shortlist[order]
        dists[:top] = np.sqrt(exact[order])
        return indices, dists

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 4, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        indices = np.full((queries.shape[0], k), -1, dtype=np.int64)
        distances = np.full((queries.shape[0], k), np.inf)
        for i, query in enumerate(queries):
            indices[i], distances[i] = self.query(query, k, n_probes=n_probes)
        return indices, distances

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _state(self):
        config, arrays, children = super()._state()
        config.update(
            {
                "n_subspaces": int(self.n_subspaces),
                "n_codewords": int(self.n_codewords),
                "rerank_factor": int(self.rerank_factor),
            }
        )
        arrays["pq.codebooks"] = self._pq.codebooks
        arrays["pq.codes"] = self._codes
        return config, arrays, children

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        index = cls(
            int(config["n_lists"]),
            n_subspaces=int(config["n_subspaces"]),
            n_codewords=int(config["n_codewords"]),
            rerank_factor=int(config["rerank_factor"]),
            kmeans_iterations=int(config["kmeans_iterations"]),
        )
        index._restore_cells(arrays)
        codebooks = arrays["pq.codebooks"]
        pq = ProductQuantizer(codebooks.shape[0], codebooks.shape[1])
        pq.codebooks = codebooks
        pq._sub_dim = int(codebooks.shape[2])
        index._pq = pq
        index._codes = arrays["pq.codes"]
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index
