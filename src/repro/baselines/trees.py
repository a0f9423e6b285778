"""Hyperplane partitioning trees (the Figure 6 baselines).

All of these methods recursively split the dataset with a hyperplane until
a target depth is reached, producing ``2 ** depth`` leaf bins.  They differ
only in how a node picks its hyperplane:

* **PCA tree** — top principal component of the node's points, median split.
* **Random-projection tree** — random direction, median split.
* **2-means tree** — direction between the two 2-means centroids, split at
  the midpoint of the projected centroids.
* **Learned KD-tree** — the single coordinate axis with the largest
  variance, median split (the axis-aligned "learned" variant of Cayton &
  Dasgupta's framework).

Queries are routed with a soft margin (sigmoid of the signed distance to
each node's hyperplane); the leaf score is the product of the per-node
probabilities, which yields a natural multi-probe ordering over leaves —
the same mechanism every other index in this repository uses.

Each tree is a :class:`~repro.core.hierarchical.PartitionTreeIndex` with
``levels=(2,) * depth`` — the tree hierarchical USP and Regression LSH are
too — whose nodes are hyperplanes: the points beyond a node's hyperplane
take branch 1, and a query takes branch 0 with the sigmoid's probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..api.registry import register_index
from ..core.hierarchical import TREE_CAPABILITIES, PartitionTreeIndex
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import check_positive_int


@dataclass
class _SplitNode:
    normal: Optional[np.ndarray]
    offset: float

    def num_parameters(self) -> int:
        """One hyperplane: the normal and the offset."""
        return self.normal.size + 1


class HyperplaneTreeIndex(PartitionTreeIndex):
    """Generic binary hyperplane partitioning tree."""

    #: Temperature for the soft routing probability at query time; the scale
    #: is relative to the node's margin spread, so it is data-independent.
    routing_temperature: float = 0.5
    _fitted = PartitionTreeIndex._fitted + ("_margin_scales",)

    def __init__(self, depth: int = 4, *, seed: SeedLike = None) -> None:
        self.depth = check_positive_int(depth, "depth")
        super().__init__((2,) * self.depth)
        self._rng = resolve_rng(seed)
        self._margin_scales: List[float] = []

    # ------------------------------------------------------------------ #
    # split rules (overridden by subclasses)
    # ------------------------------------------------------------------ #
    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        """The node's hyperplane ``(normal, offset)``: points with ``x @ normal <= offset`` go left."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "HyperplaneTreeIndex":
        self._margin_scales = [1.0] * (2**self.depth - 1)
        return super().build(base)

    def _fit_node(self, node_id: int, points: np.ndarray) -> np.ndarray:
        normal, offset = self.split_rule(points, self._rng)
        margins = points @ normal - offset
        self._nodes[node_id] = _SplitNode(normal=normal, offset=offset)
        self._margin_scales[node_id] = float(np.std(margins) + 1e-12)
        left = margins <= 0
        # Guard against degenerate splits sending everything one way.
        if left.all() or not left.any():
            left = margins <= np.median(margins)
        return ~left

    def _branch_probabilities(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        """Branch 0 with the sigmoid of the query's margin to the node's hyperplane."""
        node = self._nodes[node_id]
        if node is None or node.normal is None:
            return None
        margins = queries @ node.normal - node.offset
        scale = self._margin_scales[node_id] * self.routing_temperature
        left = 1.0 / (1.0 + np.exp(np.clip(margins / max(scale, 1e-12), -30, 30)))
        return np.column_stack([left, 1.0 - left])


@register_index(
    "pca-tree",
    capabilities=TREE_CAPABILITIES,
    description="PCA tree: median split along the top principal component",
)
class PcaTreeIndex(HyperplaneTreeIndex):
    """PCA tree: split along the top principal component at the median."""

    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        centered = points - points.mean(axis=0)
        # Power iteration on the covariance: cheap and sufficient for the
        # leading component.
        direction = rng.normal(size=points.shape[1])
        direction /= np.linalg.norm(direction) + 1e-12
        for _ in range(15):
            direction = centered.T @ (centered @ direction)
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                direction = rng.normal(size=points.shape[1])
                norm = np.linalg.norm(direction)
            direction /= norm
        projections = points @ direction
        return direction, float(np.median(projections))


@register_index(
    "rp-tree",
    capabilities=TREE_CAPABILITIES,
    description="Random-projection tree: random direction, median split",
)
class RandomProjectionTreeIndex(HyperplaneTreeIndex):
    """Random projection tree: random direction, median split."""

    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        direction = rng.normal(size=points.shape[1])
        direction /= np.linalg.norm(direction) + 1e-12
        projections = points @ direction
        return direction, float(np.median(projections))


@register_index(
    "kd-tree",
    capabilities=TREE_CAPABILITIES,
    description="Learned KD-tree: axis of maximum variance, median split",
)
class KdTreeIndex(HyperplaneTreeIndex):
    """Learned KD-tree: axis of maximum variance, median split."""

    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        variances = points.var(axis=0)
        axis = int(variances.argmax())
        direction = np.zeros(points.shape[1])
        direction[axis] = 1.0
        return direction, float(np.median(points[:, axis]))


@register_index(
    "two-means-tree",
    capabilities=TREE_CAPABILITIES,
    description="2-means tree: hyperplane bisecting the two 2-means centroids",
)
class TwoMeansTreeIndex(HyperplaneTreeIndex):
    """2-means tree: hyperplane bisecting the two 2-means centroids."""

    kmeans_iterations: int = 20

    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        from .kmeans import KMeans

        model = KMeans(2, max_iterations=self.kmeans_iterations, seed=rng)
        model.fit(points)
        c0, c1 = model.centroids
        direction = c1 - c0
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            direction = rng.normal(size=points.shape[1])
            norm = np.linalg.norm(direction)
        direction /= norm
        midpoint = 0.5 * (c0 + c1)
        return direction, float(midpoint @ direction)
