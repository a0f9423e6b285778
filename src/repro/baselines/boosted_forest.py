"""Boosted Search Forest baseline (Li et al., NeurIPS 2011).

Boosted Search Forest learns an ensemble of hyperplane partition trees with
a boosting-style objective: each tree is grown on re-weighted data so that
it focuses on the query/neighbour pairs earlier trees separated.  The
original formulation optimises a pairwise similarity-preservation loss per
hyperplane; this implementation captures the same structure with a
tractable surrogate:

* a node's hyperplane is the top *weighted* principal component of its
  points (weighted by the current boosting weights), split at the weighted
  median — i.e. the hyperplane that best explains the "difficult" points;
* after each tree, a point's weight is multiplied by the number of its k'
  nearest neighbours that ended up in a different leaf (the paper's own
  ensembling update, :func:`repro.core.ensemble.boosting_weights`), so the
  next tree concentrates on them;
* at query time, like the paper's Algorithm 4, each query searches the
  bins of the tree most confident about it
  (:class:`~repro.core.ensemble.BestMemberIndex`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..core.ensemble import BestMemberIndex, boosting_weights
from ..core.knn_matrix import KnnMatrix, build_knn_matrix
from ..utils.rng import SeedLike, spawn_rngs
from ..utils.validation import as_float_matrix, check_positive_int
from .trees import HyperplaneTreeIndex, pack_tree_nodes, unpack_tree_nodes


class _WeightedPcaTree(HyperplaneTreeIndex):
    """A hyperplane tree whose splits maximise weighted variance."""

    def __init__(self, depth: int, weights: np.ndarray, base: np.ndarray, *, seed=None) -> None:
        super().__init__(depth, seed=seed)
        self._all_weights = np.asarray(weights, dtype=np.float64)
        self._all_points = base

    def split_rule(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float]:
        # Weighted PCA via power iteration on the weighted covariance.  The
        # exact per-point weights of this node are approximated by uniform
        # weights when the subset cannot be identified; in practice the
        # boosting signal mostly matters at the root levels where the subset
        # is (nearly) the full dataset.
        weights = self._match_weights(points)
        total = weights.sum()
        if total <= 0:
            weights = np.ones(points.shape[0])
            total = float(points.shape[0])
        mean = (weights[:, None] * points).sum(axis=0) / total
        centered = points - mean
        direction = rng.normal(size=points.shape[1])
        direction /= np.linalg.norm(direction) + 1e-12
        for _ in range(15):
            direction = centered.T @ (weights * (centered @ direction))
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                direction = rng.normal(size=points.shape[1])
                norm = np.linalg.norm(direction)
            direction /= norm
        projections = points @ direction
        order = np.argsort(projections)
        cumulative = np.cumsum(weights[order])
        split_at = np.searchsorted(cumulative, 0.5 * cumulative[-1])
        split_at = min(max(split_at, 0), points.shape[0] - 1)
        return direction, float(projections[order][split_at])

    def _match_weights(self, points: np.ndarray) -> np.ndarray:
        if points.shape[0] == self._all_points.shape[0]:
            return self._all_weights
        # Subset nodes: fall back to uniform weights (see class docstring).
        return np.ones(points.shape[0], dtype=np.float64)


@register_index(
    "boosted-forest",
    capabilities=IndexCapabilities(
        metrics=("euclidean",),
        probe_parameter="n_probes",
        routed=True,
        trainable=True,
        reports_parameter_count=True,
        filterable=True,
    ),
    description="Boosted Search Forest: re-weighted hyperplane trees (Li et al. 2011)",
)
class BoostedSearchForestIndex(BestMemberIndex):
    """Boosted hyperplane trees; each query searches its most confident tree's bins."""

    def __init__(
        self,
        n_trees: int = 3,
        depth: int = 4,
        *,
        k_prime: int = 10,
        seed: SeedLike = None,
    ) -> None:
        self.n_trees = check_positive_int(n_trees, "n_trees")
        self.depth = check_positive_int(depth, "depth")
        self.k_prime = check_positive_int(k_prime, "k_prime")
        self.seed = seed
        self.metric = "euclidean"
        self.members: List[HyperplaneTreeIndex] = []
        self._base: Optional[np.ndarray] = None
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray, *, knn: Optional[KnnMatrix] = None) -> "BoostedSearchForestIndex":
        import time

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        if knn is None:
            knn = build_knn_matrix(base, min(self.k_prime, base.shape[0] - 1))
        rngs = spawn_rngs(self.seed, self.n_trees)
        weights = np.ones(base.shape[0], dtype=np.float64)
        self.members = []
        for t in range(self.n_trees):
            tree = _WeightedPcaTree(self.depth, weights, base, seed=rngs[t])
            tree.build(base)
            self.members.append(tree)
            weights = boosting_weights(tree.assignments, knn, weights)
            if weights.sum() <= 0:
                weights = np.ones(base.shape[0], dtype=np.float64)
        self._base = base
        self.build_seconds = time.perf_counter() - start
        return self

    # ------------------------------------------------------------------ #
    # persistence: each tree's hyperplanes + assignments are stored flat;
    # restored trees are plain HyperplaneTreeIndex routers (split rules are
    # only needed during build)
    # ------------------------------------------------------------------ #
    def _state(self):
        config = {
            "n_trees": int(len(self.members)),
            "depth": int(self.depth),
            "k_prime": int(self.k_prime),
            "metric": self.metric,
            "build_seconds": self.build_seconds,
        }
        arrays = {"__base__": self._base}
        for t, tree in enumerate(self.members):
            arrays[f"tree{t}.assignments"] = tree.assignments
            for key, value in pack_tree_nodes(
                tree._nodes, tree._margin_scales, self.dim
            ).items():
                arrays[f"tree{t}.{key}"] = value
        return config, arrays, {}

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        index = cls(
            int(config["n_trees"]),
            int(config["depth"]),
            k_prime=int(config["k_prime"]),
        )
        index.metric = str(config["metric"])
        base = arrays["__base__"]
        index.members = []
        for t in range(int(config["n_trees"])):
            tree = HyperplaneTreeIndex(int(config["depth"]))
            tree._nodes, tree._margin_scales = unpack_tree_nodes(arrays, f"tree{t}.")
            tree._finalize_build(
                base, arrays[f"tree{t}.assignments"], 2 ** int(config["depth"])
            )
            index.members.append(tree)
        index._base = base
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index
