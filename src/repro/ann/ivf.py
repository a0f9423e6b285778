"""IVF and IVF-PQ indexes (the FAISS baseline of Figure 7).

An inverted-file (IVF) index clusters the dataset with a coarse K-means
quantizer; each query probes the ``n_probes`` nearest cells and scans only
their points.  ``IVFFlat`` is :class:`~repro.baselines.kmeans.KMeansIndex`
under IVF's knob names (``n_lists`` cells, ``kmeans_iterations`` Lloyd
iterations, four probes by default), so it answers through the shared
partition scan with exact distances within the probed cells.  ``IVFPQ``
puts an ``IVFFlat`` in front of the partitioned ADC scan of
:mod:`repro.quant.partitioned`: it product-quantizes each row's residual
to its cell's centroid, scores the probed cells' codes with LUTs built
for ``query - centroid`` and re-ranks a shortlist exactly, matching the
structure of ``faiss.IndexIVFPQ``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Tuple

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..baselines.kmeans import KMeansIndex, KMeansResult
from ..quant.partitioned import PartitionedAdcIndex
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, check_positive_int
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
    capabilities=replace(_IVF_CAPABILITIES, routed=True),
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
class IVFPQIndex(PartitionedAdcIndex):
    """IVF with product-quantized residuals and exact re-ranking.

    An :class:`IVFFlatIndex` holds the cells; each row is encoded as its
    residual to its cell's centroid, and ``rerank_factor * k`` ADC
    candidates are re-ranked with exact distances, as FAISS does when
    refinement is enabled.
    """

    residual = True
    default_probes = 4

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
        super().__init__(
            IVFFlatIndex(n_lists, kmeans_iterations=kmeans_iterations, seed=seed),
            n_subspaces=n_subspaces,
            n_codewords=n_codewords,
            kmeans_iterations=kmeans_iterations,
            rerank_factor=rerank_factor,
            seed=seed,
        )

    def build(self, base: np.ndarray) -> "IVFPQIndex":
        """Cluster ``base`` into cells (afresh on every build), then encode the residuals."""
        start = time.perf_counter()
        self.partitioner.build(base)
        super().build(base)
        self.build_seconds = time.perf_counter() - start
        return self

    def _train_codes(self, base: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        residuals = base - self.centroids[self.assignments]
        pq = ProductQuantizer(
            self.n_subspaces, self.n_codewords, kmeans_iterations=self.kmeans_iterations, seed=self.seed
        ).fit(residuals)
        return pq.codebooks, pq.encode(residuals)

    @property
    def centroids(self) -> np.ndarray:
        """Cell centroids."""
        return self.partitioner.centroids

    @property
    def assignments(self) -> np.ndarray:
        """Cell id of every base point."""
        return self.partitioner.assignments

    @property
    def n_bins(self) -> int:
        """Number of cells (what ``probes`` and candidate budgets count in)."""
        return self.partitioner.n_bins

    @property
    def n_lists(self) -> int:
        """Requested cell count (``n_bins`` is the built one, at most ``n_points``)."""
        return self.partitioner.n_lists

    # ------------------------------------------------------------------ #
    # persistence: IVF's cells plus the residual codec
    # ------------------------------------------------------------------ #
    def _state(self):
        self._require_built()
        config, arrays, children = self.partitioner._state()
        config.update(
            {
                "n_subspaces": int(self.n_subspaces),
                "n_codewords": int(self.n_codewords),
                "rerank_factor": int(self.rerank_factor),
                "build_seconds": self.build_seconds,
            }
        )
        arrays["pq.codebooks"] = self._pq.codebooks
        arrays["pq.codes"] = self._saved_codes()
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
        index.partitioner._restore_cells(arrays)
        index._restore(arrays["__base__"], arrays["pq.codebooks"], arrays["pq.codes"])
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index
