"""ANN benchmark datasets (real loaders + structural synthetic stand-ins).

The paper evaluates on SIFT-1M (128-d, 1M points) and MNIST (784-d, 60k
points) from the ann-benchmarks suite.  Those files are not available in
this offline environment, so this module provides deterministic generators
that reproduce the *structural* properties the paper's claims depend on:

* ``sift_like``  — 128-d non-negative descriptor-style vectors drawn from a
  heavy-tailed Gaussian mixture (real SIFT descriptors are strongly
  clustered with uneven cluster populations).
* ``mnist_like`` — 784-d vectors generated from a low intrinsic-dimension
  nonlinear manifold (like raster images of digits, where ~10 modes live on
  a manifold of much lower dimension than 784) with values in [0, 255].
* ``glove_like`` — unit-norm word-embedding-style vectors (used by the
  extension experiments / angular metric paths).

Each generator returns an :class:`AnnDataset` with a held-out query set and
exact ground truth, exactly as the ann-benchmarks HDF5 bundles do.  Real
``.fvecs``/``.ivecs`` files on disk load through :func:`from_fvecs` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..utils.exceptions import DatasetError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import check_positive_int
from .ground_truth import compute_ground_truth
from .io import read_fvecs, read_ivecs
from .synthetic import make_gaussian_mixture


@dataclass
class AnnDataset:
    """A nearest-neighbour benchmark: base points, queries, and ground truth."""

    name: str
    base: np.ndarray
    queries: np.ndarray
    ground_truth: np.ndarray
    metric: str = "euclidean"
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.base = np.asarray(self.base, dtype=np.float64)
        self.queries = np.asarray(self.queries, dtype=np.float64)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.int64)
        #: memoized exact k-NN per (k, metric); see :meth:`ground_truth_for`
        self._gt_cache: Dict[tuple, np.ndarray] = {}
        if self.base.ndim != 2 or self.queries.ndim != 2:
            raise DatasetError("base and queries must be 2-dimensional")
        if self.base.shape[1] != self.queries.shape[1]:
            raise DatasetError("base and queries must share dimensionality")
        if self.ground_truth.shape[0] != self.queries.shape[0]:
            raise DatasetError("ground truth must have one row per query")

    @property
    def n_points(self) -> int:
        return int(self.base.shape[0])

    @property
    def n_queries(self) -> int:
        return int(self.queries.shape[0])

    @property
    def dim(self) -> int:
        return int(self.base.shape[1])

    @property
    def gt_k(self) -> int:
        """Number of ground-truth neighbours stored per query."""
        return int(self.ground_truth.shape[1])

    def ground_truth_for(self, k: int, *, metric: Optional[str] = None) -> np.ndarray:
        """Exact top-``k`` neighbours per query, memoized per ``(k, metric)``.

        The stored :attr:`ground_truth` answers any request with
        ``k <= gt_k`` under the dataset's own metric for free; anything
        else (a deeper ``k``, a different metric) is brute-forced once and
        cached, so repeated sweeps and benchmark runs over the same
        dataset stop recomputing exact k-NN from scratch.
        """
        metric = metric or self.metric
        k = min(check_positive_int(k, "k"), self.n_points)
        if metric == self.metric and k <= self.gt_k:
            return self.ground_truth[:, :k]
        for (cached_k, cached_metric), cached in self._gt_cache.items():
            if cached_metric == metric and cached_k >= k:
                return cached[:, :k]
        gt = compute_ground_truth(self.base, self.queries, k, metric=metric)
        self._gt_cache[(k, metric)] = gt
        return gt


def _manifold_embedding(
    latent: np.ndarray,
    out_dim: int,
    rng: np.random.Generator,
    *,
    n_harmonics: int = 3,
) -> np.ndarray:
    """Lift low-dimensional latent codes into ``out_dim`` via random harmonics.

    Produces smooth, highly correlated coordinates (like neighbouring pixels
    in an image), i.e. high ambient dimension but low intrinsic dimension.
    """
    n, latent_dim = latent.shape
    out = np.zeros((n, out_dim), dtype=np.float64)
    for _ in range(n_harmonics):
        mixing = rng.normal(size=(latent_dim, out_dim)) / np.sqrt(latent_dim)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=out_dim)
        out += np.sin(latent @ mixing + phase)
    return out / n_harmonics


def sift_like(
    n_points: int = 10_000,
    n_queries: int = 500,
    dim: int = 128,
    *,
    n_clusters: int = 64,
    gt_k: int = 100,
    seed: SeedLike = 7,
) -> AnnDataset:
    """SIFT-1M structural stand-in: clustered, non-negative descriptor vectors."""
    check_positive_int(n_points, "n_points")
    check_positive_int(n_queries, "n_queries")
    rng = resolve_rng(seed)
    total = n_points + n_queries
    mixture = make_gaussian_mixture(
        total,
        n_components=n_clusters,
        dim=dim,
        cluster_std_range=(0.6, 2.0),
        center_scale=6.0,
        seed=rng,
    )
    # SIFT descriptors are non-negative and roughly gamma-distributed per
    # coordinate; shift/clip the mixture to reproduce that marginal shape.
    points = mixture.points
    points = points - points.min(axis=0, keepdims=True)
    points *= 255.0 / max(points.max(), 1e-9)
    order = rng.permutation(total)
    base = points[order[:n_points]]
    queries = points[order[n_points:]]
    gt = compute_ground_truth(base, queries, min(gt_k, n_points))
    return AnnDataset(
        name="sift-like",
        base=base,
        queries=queries,
        ground_truth=gt,
        extra={"source": "synthetic", "n_clusters": n_clusters},
    )


def mnist_like(
    n_points: int = 6_000,
    n_queries: int = 300,
    dim: int = 784,
    *,
    n_classes: int = 10,
    latent_dim: int = 12,
    gt_k: int = 100,
    seed: SeedLike = 11,
) -> AnnDataset:
    """MNIST structural stand-in: high-dimensional points on a low-d manifold."""
    check_positive_int(n_points, "n_points")
    check_positive_int(n_queries, "n_queries")
    rng = resolve_rng(seed)
    total = n_points + n_queries
    # Latent class structure: each "digit" is a cluster in latent space.
    class_centers = rng.normal(scale=3.0, size=(n_classes, latent_dim))
    labels = rng.integers(0, n_classes, size=total)
    latent = class_centers[labels] + rng.normal(scale=0.8, size=(total, latent_dim))
    embedded = _manifold_embedding(latent, dim, rng)
    # Scale into pixel-intensity range with a sparse-ish activation profile.
    points = np.clip((embedded + 1.0) * 0.5, 0.0, 1.0) * 255.0
    mask = rng.random(dim) < 0.25
    points[:, mask] *= 0.1  # many near-zero "border pixel" coordinates
    order = rng.permutation(total)
    base = points[order[:n_points]]
    queries = points[order[n_points:]]
    gt = compute_ground_truth(base, queries, min(gt_k, n_points))
    return AnnDataset(
        name="mnist-like",
        base=base,
        queries=queries,
        ground_truth=gt,
        extra={"source": "synthetic", "n_classes": n_classes, "latent_dim": latent_dim},
    )


def glove_like(
    n_points: int = 8_000,
    n_queries: int = 400,
    dim: int = 100,
    *,
    n_clusters: int = 80,
    gt_k: int = 100,
    seed: SeedLike = 13,
) -> AnnDataset:
    """GloVe structural stand-in: unit-norm embedding vectors (angular metric)."""
    check_positive_int(n_points, "n_points")
    check_positive_int(n_queries, "n_queries")
    rng = resolve_rng(seed)
    total = n_points + n_queries
    mixture = make_gaussian_mixture(
        total,
        n_components=n_clusters,
        dim=dim,
        cluster_std_range=(0.3, 1.0),
        center_scale=3.0,
        seed=rng,
    )
    points = mixture.points
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    points = points / np.maximum(norms, 1e-12)
    order = rng.permutation(total)
    base = points[order[:n_points]]
    queries = points[order[n_points:]]
    gt = compute_ground_truth(base, queries, min(gt_k, n_points))
    return AnnDataset(
        name="glove-like",
        base=base,
        queries=queries,
        ground_truth=gt,
        extra={"source": "synthetic", "n_clusters": n_clusters},
    )


def from_fvecs(
    name: str,
    base_path: str,
    query_path: str,
    groundtruth_path: Optional[str] = None,
    *,
    max_points: Optional[int] = None,
    max_queries: Optional[int] = None,
    gt_k: int = 100,
) -> AnnDataset:
    """Load a real dataset distributed in the SIFT ``.fvecs``/``.ivecs`` format."""
    base = read_fvecs(base_path, max_rows=max_points)
    queries = read_fvecs(query_path, max_rows=max_queries)
    if groundtruth_path is not None and max_points is None:
        gt = read_ivecs(groundtruth_path, max_rows=max_queries)
    else:
        gt = compute_ground_truth(base, queries, min(gt_k, base.shape[0]))
    return AnnDataset(name=name, base=base, queries=queries, ground_truth=gt)


_REGISTRY: Dict[str, Callable[..., AnnDataset]] = {
    "sift-like": sift_like,
    "mnist-like": mnist_like,
    "glove-like": glove_like,
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_REGISTRY)


def load_dataset(name: str, **kwargs) -> AnnDataset:
    """Generate the benchmark dataset ``name``, one of :func:`available_datasets`."""
    if name in _REGISTRY:
        return _REGISTRY[name](**kwargs)
    raise DatasetError(f"unknown dataset {name!r}; expected one of {available_datasets()}")
