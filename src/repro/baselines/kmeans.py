"""K-means clustering and the K-means partition index.

K-means is the ubiquitous partitioning baseline in the paper (it is also the
coarse quantizer inside ScaNN and FAISS-IVF).  The implementation provides
k-means++ seeding, Lloyd iterations with empty-cluster repair, and an ANN
index whose bins are the Voronoi cells of the centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..core.base import PartitionIndexBase
from ..utils.distances import squared_euclidean
from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import as_float_matrix, check_positive_int


@dataclass
class KMeansResult:
    """Outcome of a K-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool


def kmeans_plus_plus_init(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance."""
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = squared_euclidean(points, centroids[0:1]).reshape(-1)
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centroids; pick uniformly.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids[i] = points[idx]
        new_dist = squared_euclidean(points, centroids[i : i + 1]).reshape(-1)
        np.minimum(closest, new_dist, out=closest)
    return centroids


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation.

    Parameters
    ----------
    n_clusters:
        Number of centroids.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Relative centroid-shift threshold for convergence.
    n_init:
        Number of independent restarts; the run with the lowest inertia wins.
    seed:
        Random seed.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        n_init: int = 1,
        seed: SeedLike = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.tolerance = float(tolerance)
        self.n_init = check_positive_int(n_init, "n_init")
        self._rng = resolve_rng(seed)
        self.result: Optional[KMeansResult] = None

    # ------------------------------------------------------------------ #
    def fit(self, points) -> "KMeans":
        """Cluster ``points``; keeps the best of ``n_init`` restarts."""
        points = as_float_matrix(points)
        if self.n_clusters > points.shape[0]:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds number of points {points.shape[0]}"
            )
        best: Optional[KMeansResult] = None
        for _ in range(self.n_init):
            result = self._single_run(points)
            if best is None or result.inertia < best.inertia:
                best = result
        self.result = best
        return self

    def _single_run(self, points: np.ndarray) -> KMeansResult:
        centroids = kmeans_plus_plus_init(points, self.n_clusters, self._rng)
        labels = np.zeros(points.shape[0], dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            distances = squared_euclidean(points, centroids)
            labels = distances.argmin(axis=1)
            new_centroids = centroids.copy()
            for cluster in range(self.n_clusters):
                mask = labels == cluster
                if mask.any():
                    new_centroids[cluster] = points[mask].mean(axis=0)
                else:
                    # Empty cluster: re-seed at the point farthest from its centroid.
                    farthest = distances.min(axis=1).argmax()
                    new_centroids[cluster] = points[farthest]
            shift = float(np.linalg.norm(new_centroids - centroids))
            scale = float(np.linalg.norm(centroids)) + 1e-12
            centroids = new_centroids
            if shift / scale < self.tolerance:
                converged = True
                break
        distances = squared_euclidean(points, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(points.shape[0]), labels].sum())
        return KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=inertia,
            n_iterations=iteration,
            converged=converged,
        )

    # ------------------------------------------------------------------ #
    @property
    def centroids(self) -> np.ndarray:
        if self.result is None:
            raise NotFittedError("KMeans has not been fitted yet")
        return self.result.centroids

    @property
    def labels(self) -> np.ndarray:
        if self.result is None:
            raise NotFittedError("KMeans has not been fitted yet")
        return self.result.labels


@register_index(
    "kmeans",
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter="n_probes",
        routed=True,
        trainable=True,
        reports_parameter_count=True,
        shardable=True,
        filterable=True,
    ),
    description="K-means Voronoi partition (the ubiquitous baseline)",
)
class KMeansIndex(PartitionIndexBase):
    """Partition index whose bins are K-means Voronoi cells.

    This is the "K-means" baseline of Figure 5 and the partitioner inside
    the "K-means + ScaNN" pipeline of Figure 7.
    """

    _fitted = PartitionIndexBase._fitted + ("centroids", "build_seconds")

    def __init__(
        self,
        n_bins: int = 16,
        *,
        max_iterations: int = 50,
        n_init: int = 1,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.n_bins_requested = check_positive_int(n_bins, "n_bins")
        self._kmeans = KMeans(
            n_bins, max_iterations=max_iterations, n_init=n_init, seed=seed
        )
        self.centroids: Optional[np.ndarray] = None
        self.build_seconds: float = 0.0

    def build(self, base: np.ndarray) -> "KMeansIndex":
        import time

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        # Keep the centroids only: the layout's ids and bounds give every point's cell.
        result, self._kmeans.result = self._kmeans.fit(base).result, None
        self.centroids = result.centroids
        self._finalize_build(base, result.labels, self._kmeans.n_clusters)
        self.build_seconds = time.perf_counter() - start
        return self

    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Negative squared distance to each centroid (closer = higher)."""
        self._require_built()
        return -squared_euclidean(np.atleast_2d(queries), self.centroids)

    def num_parameters(self) -> int:
        """Stored parameters = centroid table (Table 2: m * d)."""
        self._require_built()
        return int(self.centroids.size)
