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

The tree itself — heap-indexed nodes, the depth-first build and the
product-of-probabilities leaf scores — is :class:`BinaryTreeIndex`, which
Regression LSH (:mod:`repro.baselines.neural_lsh`) shares; a tree only
says how a node splits its points and how it routes a query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..core.base import PartitionIndexBase
from ..utils.exceptions import ValidationError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int

#: A split rule maps (points, rng) to a hyperplane (normal, offset):
#: points with ``x @ normal <= offset`` go left.
SplitRule = Callable[[np.ndarray, np.random.Generator], Tuple[np.ndarray, float]]

_TREE_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean", "sqeuclidean", "cosine"),
    probe_parameter="n_probes",
    supports_candidate_sets=True,
    trainable=True,
    reports_parameter_count=True,
    filterable=True,
)


@dataclass
class _SplitNode:
    normal: Optional[np.ndarray]
    offset: float


def pack_tree_nodes(
    nodes: List[Optional[_SplitNode]], margin_scales: List[float], dim: int
) -> dict:
    """Flatten a hyperplane tree's node list into dense numpy arrays.

    Shared by the tree indexes and the boosted forest so both serialise
    through the same npz layout.
    """
    n_internal = len(nodes)
    mask = np.zeros(n_internal, dtype=bool)
    normals = np.zeros((n_internal, dim), dtype=np.float64)
    offsets = np.zeros(n_internal, dtype=np.float64)
    for i, node in enumerate(nodes):
        if node is not None and node.normal is not None:
            mask[i] = True
            normals[i] = node.normal
            offsets[i] = node.offset
    return {
        "node_mask": mask,
        "node_normals": normals,
        "node_offsets": offsets,
        "margin_scales": np.asarray(margin_scales, dtype=np.float64),
    }


def unpack_tree_nodes(arrays: dict, prefix: str = "") -> Tuple[List[Optional[_SplitNode]], List[float]]:
    """Inverse of :func:`pack_tree_nodes` (``prefix`` selects npz keys)."""
    mask = arrays[f"{prefix}node_mask"]
    normals = arrays[f"{prefix}node_normals"]
    offsets = arrays[f"{prefix}node_offsets"]
    nodes: List[Optional[_SplitNode]] = [
        _SplitNode(normal=normals[i].copy(), offset=float(offsets[i])) if mask[i] else None
        for i in range(mask.shape[0])
    ]
    margin_scales = [float(v) for v in arrays[f"{prefix}margin_scales"]]
    return nodes, margin_scales


class BinaryTreeIndex(PartitionIndexBase):
    """A binary partition tree of ``depth`` levels with ``2 ** depth`` leaf bins.

    Nodes live in an implicit heap (node ``i`` has children ``2i + 1`` and
    ``2i + 2``; ``_nodes[i]`` is ``None`` for a node that was never fitted).
    The left subtree of a node owns the lower half of its leaf ids.  A
    subclass supplies the two hooks :meth:`_fit_node` and
    :meth:`_left_probability`.
    """

    #: nodes with fewer points than this send them all left, unfitted
    min_split_size: int = 4

    def __init__(self, depth: int) -> None:
        super().__init__()
        self.depth = check_positive_int(depth, "depth")
        self._nodes: List[Optional[Any]] = []
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _fit_node(self, node_id: int, points: np.ndarray) -> np.ndarray:
        """Fit node ``node_id`` on its ``points``; return the mask of those going left."""
        raise NotImplementedError

    def _left_probability(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        """Probability that each query goes left at node ``node_id`` (``None``: 0.5)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "BinaryTreeIndex":
        """Fit the nodes depth-first, left subtree before right."""
        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        n_leaves = 2**self.depth
        self._nodes = [None] * (n_leaves - 1)
        assignments = np.zeros(base.shape[0], dtype=np.int64)
        stack = [(0, np.arange(base.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            level = (node_id + 1).bit_length() - 1
            if level == self.depth or rows.size == 0:
                continue
            if rows.size < self.min_split_size:
                left = np.ones(rows.size, dtype=bool)
            else:
                left = self._fit_node(node_id, base[rows])
            assignments[rows[~left]] += n_leaves >> (level + 1)
            stack.append((2 * node_id + 2, rows[~left]))
            stack.append((2 * node_id + 1, rows[left]))
        self._finalize_build(base, assignments, n_leaves)
        self.build_seconds = time.perf_counter() - start
        return self

    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Leaf probabilities: the product of the routing probabilities on each root-leaf path."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        n_leaves = 2**self.depth
        scores = np.ones((queries.shape[0], n_leaves), dtype=np.float64)
        for node_id in range(n_leaves - 1):
            level = (node_id + 1).bit_length() - 1
            width = n_leaves >> level
            start = (node_id + 1 - (1 << level)) * width
            left = self._left_probability(node_id, queries)
            if left is None:
                left = np.full(queries.shape[0], 0.5)
            scores[:, start : start + width // 2] *= left[:, None]
            scores[:, start + width // 2 : start + width] *= (1.0 - left)[:, None]
        return scores


class HyperplaneTreeIndex(BinaryTreeIndex):
    """Generic binary hyperplane partitioning tree."""

    #: Temperature for the soft routing probability at query time; the scale
    #: is relative to the node's margin spread, so it is data-independent.
    routing_temperature: float = 0.5

    def __init__(self, depth: int = 4, *, seed: SeedLike = None) -> None:
        super().__init__(depth)
        if self.depth > 16:
            raise ValidationError("depth > 16 would create too many leaves")
        self._rng = resolve_rng(seed)
        self._margin_scales: List[float] = []

    # ------------------------------------------------------------------ #
    # split rules (overridden by subclasses)
    # ------------------------------------------------------------------ #
    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
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
        return left

    def _left_probability(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        """Sigmoid of the query's margin to the node's hyperplane."""
        node = self._nodes[node_id]
        if node is None or node.normal is None:
            return None
        margins = queries @ node.normal - node.offset
        scale = self._margin_scales[node_id] * self.routing_temperature
        return 1.0 / (1.0 + np.exp(np.clip(margins / max(scale, 1e-12), -30, 30)))

    def num_parameters(self) -> int:
        """Stored parameters: one hyperplane (normal + offset) per internal node."""
        self._require_built()
        return int(
            sum(node.normal.size + 1 for node in self._nodes if node is not None)
        )

    # ------------------------------------------------------------------ #
    def _extra_state(self):
        config = {"depth": int(self.depth), "build_seconds": self.build_seconds}
        return config, pack_tree_nodes(self._nodes, self._margin_scales, self.dim)

    @classmethod
    def _restore(cls, config, arrays, load_child):
        index = cls(int(config["depth"]))
        index._nodes, index._margin_scales = unpack_tree_nodes(arrays)
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index


@register_index(
    "pca-tree",
    capabilities=_TREE_CAPABILITIES,
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
    capabilities=_TREE_CAPABILITIES,
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
    capabilities=_TREE_CAPABILITIES,
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
    capabilities=_TREE_CAPABILITIES,
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
