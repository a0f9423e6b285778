"""Synthetic 2-D and low-dimensional datasets.

These mirror the scikit-learn toy generators the paper uses in its
clustering comparison (Table 5): ``make_moons``, ``make_circles``,
``make_blobs``, and ``make_classification``, plus a general Gaussian
mixture sampler that the ANN benchmark emulation builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..utils.exceptions import DatasetError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import check_positive_int


@dataclass
class LabeledDataset:
    """Points plus ground-truth cluster/class labels."""

    points: np.ndarray
    labels: np.ndarray
    name: str = "labeled"

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.points) != len(self.labels):
            raise DatasetError("points and labels must have the same length")

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_clusters(self) -> int:
        return int(np.unique(self.labels).shape[0])


def make_blobs(
    n_points: int = 500,
    n_clusters: int = 3,
    dim: int = 2,
    *,
    cluster_std: float = 1.0,
    center_box: Tuple[float, float] = (-10.0, 10.0),
    seed: SeedLike = None,
) -> LabeledDataset:
    """Isotropic Gaussian blobs (the classic clustering sanity check)."""
    check_positive_int(n_points, "n_points")
    check_positive_int(n_clusters, "n_clusters")
    rng = resolve_rng(seed)
    centers = rng.uniform(center_box[0], center_box[1], size=(n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=n_points)
    points = centers[labels] + rng.normal(scale=cluster_std, size=(n_points, dim))
    return LabeledDataset(points, labels, name="blobs")


def make_moons(
    n_points: int = 500,
    *,
    noise: float = 0.05,
    seed: SeedLike = None,
) -> LabeledDataset:
    """Two interleaving half circles (non-convex clusters)."""
    check_positive_int(n_points, "n_points")
    rng = resolve_rng(seed)
    n_outer = n_points // 2
    n_inner = n_points - n_outer
    outer_angles = np.linspace(0.0, np.pi, n_outer)
    inner_angles = np.linspace(0.0, np.pi, n_inner)
    outer = np.column_stack([np.cos(outer_angles), np.sin(outer_angles)])
    inner = np.column_stack([1.0 - np.cos(inner_angles), 0.5 - np.sin(inner_angles)])
    points = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    if noise > 0:
        points = points + rng.normal(scale=noise, size=points.shape)
    return LabeledDataset(points, labels, name="moons")


def make_circles(
    n_points: int = 500,
    *,
    noise: float = 0.05,
    factor: float = 0.5,
    seed: SeedLike = None,
) -> LabeledDataset:
    """A large circle containing a smaller circle (non-convex clusters)."""
    check_positive_int(n_points, "n_points")
    if not 0.0 < factor < 1.0:
        raise DatasetError(f"factor must lie in (0, 1), got {factor}")
    rng = resolve_rng(seed)
    n_outer = n_points // 2
    n_inner = n_points - n_outer
    outer_angles = np.linspace(0.0, 2.0 * np.pi, n_outer, endpoint=False)
    inner_angles = np.linspace(0.0, 2.0 * np.pi, n_inner, endpoint=False)
    outer = np.column_stack([np.cos(outer_angles), np.sin(outer_angles)])
    inner = factor * np.column_stack([np.cos(inner_angles), np.sin(inner_angles)])
    points = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    if noise > 0:
        points = points + rng.normal(scale=noise, size=points.shape)
    return LabeledDataset(points, labels, name="circles")


def make_classification(
    n_points: int = 500,
    n_clusters: int = 4,
    dim: int = 2,
    *,
    class_sep: float = 2.0,
    anisotropy: float = 0.6,
    seed: SeedLike = None,
) -> LabeledDataset:
    """Anisotropic, partially overlapping Gaussian classes.

    This emulates the ``make_classification`` dataset with four clusters that
    the paper calls "challenging for many clustering algorithms": each class
    is an elongated (anisotropically transformed) Gaussian, so K-means style
    spherical clusters fit it poorly.
    """
    check_positive_int(n_points, "n_points")
    check_positive_int(n_clusters, "n_clusters")
    rng = resolve_rng(seed)
    centers = rng.normal(scale=class_sep, size=(n_clusters, dim)) * np.sqrt(dim)
    labels = rng.integers(0, n_clusters, size=n_points)
    points = np.empty((n_points, dim), dtype=np.float64)
    for cluster in range(n_clusters):
        mask = labels == cluster
        count = int(mask.sum())
        if count == 0:
            continue
        # Random anisotropic covariance per class.
        basis = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(basis)
        scales = rng.uniform(anisotropy, 1.0, size=dim)
        transform = q @ np.diag(scales)
        noise = rng.normal(size=(count, dim)) @ transform.T
        points[mask] = centers[cluster] + noise
    return LabeledDataset(points, labels, name="classification")


def make_gaussian_mixture(
    n_points: int,
    n_components: int,
    dim: int,
    *,
    cluster_std_range: Tuple[float, float] = (0.5, 1.5),
    center_scale: float = 10.0,
    weights: Optional[Sequence[float]] = None,
    seed: SeedLike = None,
) -> LabeledDataset:
    """Sample from a Gaussian mixture with per-component scales and weights.

    This is the workhorse behind :func:`repro.datasets.ann.sift_like`: real
    descriptor datasets are strongly clustered with uneven cluster sizes, so
    heavy-tailed component weights reproduce the structure that makes learned
    partitions beat data-oblivious ones.
    """
    check_positive_int(n_points, "n_points")
    check_positive_int(n_components, "n_components")
    check_positive_int(dim, "dim")
    rng = resolve_rng(seed)
    if weights is None:
        raw = rng.pareto(1.5, size=n_components) + 1.0
        weights_arr = raw / raw.sum()
    else:
        weights_arr = np.asarray(weights, dtype=np.float64)
        if weights_arr.shape[0] != n_components or weights_arr.min() < 0:
            raise DatasetError("weights must be non-negative with one entry per component")
        weights_arr = weights_arr / weights_arr.sum()
    centers = rng.normal(scale=center_scale, size=(n_components, dim))
    stds = rng.uniform(*cluster_std_range, size=n_components)
    labels = rng.choice(n_components, size=n_points, p=weights_arr)
    points = centers[labels] + rng.normal(size=(n_points, dim)) * stds[labels, None]
    return LabeledDataset(points, labels, name="gaussian_mixture")
