"""Hierarchical partitioning (Section 4.4.2) and the one partition tree.

For large bin counts the paper trains a tree of small models: the root
splits the dataset into ``m_1`` bins, each bin is split again into ``m_2``
bins, and so on; a query's leaf probability is the product of the branch
probabilities on its path.  :class:`PartitionTreeIndex` is that tree, and
every tree in the repository is one; they differ only in the node.  A
:class:`HierarchicalUspIndex` node is a USP model (``levels=(2,) * depth``
with logistic models is Figure 6's "USP (logistic tree)"), a hyperplane
tree's node (:mod:`repro.baselines.trees`) is a hyperplane, and a
Regression LSH node (:mod:`repro.baselines.neural_lsh`) a two-bin classifier.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import asdict
from typing import Any, List, Optional, Sequence

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..utils.exceptions import ValidationError
from ..utils.rng import resolve_rng, spawn_rngs
from ..utils.validation import as_float_matrix, as_query_matrix
from .base import PartitionIndexBase
from .config import HierarchicalConfig, UspConfig
from .knn_matrix import build_knn_matrix
from .models import build_partition_model
from .trainer import UspTrainer

#: what every tree index can do
TREE_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean", "sqeuclidean", "cosine"),
    probe_parameter="n_probes",
    routed=True,
    trainable=True,
    reports_parameter_count=True,
    filterable=True,
)


class PartitionTreeIndex(PartitionIndexBase):
    """A tree with ``levels[l]`` branches per level-``l`` node and ``prod(levels)`` leaf bins.

    Nodes are numbered in level order: level ``l`` holds node ids
    ``[offsets[l], offsets[l + 1])``, and node ``offsets[l] + p`` has
    children ``offsets[l + 1] + p * levels[l] + b`` (binary trees are heaps).
    Branch ``b`` owns the ``b``-th block of its parent's leaf ids, so a leaf
    id is its path read as a mixed-radix number.  ``_nodes[i]`` is ``None``
    for a node that was never fitted.  A subclass supplies the two hooks
    :meth:`_fit_node` and :meth:`_branch_probabilities`.
    """

    #: nodes with fewer than ``max(2 * m, min_split_size)`` rows are not
    #: fitted and send every row to branch 0
    min_split_size: int = 4

    def __init__(self, levels: Sequence[int]) -> None:
        super().__init__()
        self.levels = tuple(int(m) for m in levels)
        nodes_per_level = [math.prod(self.levels[:l]) for l in range(len(self.levels) + 1)]
        n_leaves = nodes_per_level[-1]
        if n_leaves > 2**16:
            raise ValidationError(f"a tree of {n_leaves} leaves is too large (at most 2**16)")
        # The leaves are level len(levels); a level-l node has widths[l] leaves.
        self._offsets = [0, *itertools.accumulate(nodes_per_level)]
        self._widths = [n_leaves // count for count in nodes_per_level]
        self._nodes: List[Optional[Any]] = []
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _fit_node(self, node_id: int, points: np.ndarray) -> np.ndarray:
        """Fit node ``node_id`` on its ``points``; return each point's branch in ``[0, m)``."""
        raise NotImplementedError

    def _branch_probabilities(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        """``(n_queries, m)`` branch probabilities at node ``node_id`` (``None``: uniform)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # node numbering
    # ------------------------------------------------------------------ #
    def _level(self, node_id: int) -> int:
        return bisect.bisect_right(self._offsets, node_id) - 1

    def _first_child(self, node_id: int) -> int:
        level = self._level(node_id)
        return self._offsets[level + 1] + (node_id - self._offsets[level]) * self.levels[level]

    def _rows_per_node(self) -> np.ndarray:
        """Number of base rows under every node, indexed by node id (leaves last)."""
        per_leaf = np.bincount(self._assignments, minlength=self._n_bins)
        return np.concatenate([per_leaf.reshape(-1, width).sum(axis=1) for width in self._widths])

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "PartitionTreeIndex":
        """Fit the nodes depth-first, branch 0's subtree first."""
        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        depth = len(self.levels)
        self._nodes = [None] * self._offsets[depth]
        assignments = np.zeros(base.shape[0], dtype=np.int64)
        stack = [(0, np.arange(base.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            level = self._level(node_id)
            m = self.levels[level]
            if rows.size < max(2 * m, self.min_split_size):
                labels = np.zeros(rows.size, dtype=np.int64)
            else:
                labels = self._fit_node(node_id, base[rows])
            first_child = self._first_child(node_id)
            for branch in reversed(range(m)):
                child_rows = rows[labels == branch]
                assignments[child_rows] += branch * self._widths[level + 1]
                if child_rows.size and level + 1 < depth:
                    stack.append((first_child + branch, child_rows))
        self._finalize_build(base, assignments, self._widths[0])
        self.build_seconds = time.perf_counter() - start
        return self

    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Leaf probabilities: the product of the branch probabilities on each root-leaf path.

        Multiplied bottom-up, ``p_root * (p_child * (...))``.  A node without
        a model routes uniformly, and a subtree with no rows spreads its
        branch's probability evenly over its leaves.
        """
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        n_queries = queries.shape[0]
        rows = self._rows_per_node()
        scores = np.ones((n_queries, self._n_bins), dtype=np.float64)
        for level in reversed(range(len(self.levels))):
            m, width = self.levels[level], self._widths[level + 1]
            first = self._offsets[level + 1]
            # A subtree with no rows keeps its columns at 1, so its leaves
            # stay at 1 until the ancestor with rows multiplies in p / width.
            probs = np.ones((n_queries, self._offsets[level + 2] - first))
            for node_id in range(self._offsets[level], first):
                if not rows[node_id]:
                    continue
                node_probs = self._branch_probabilities(node_id, queries)
                if node_probs is None:
                    node_probs = np.full((n_queries, m), 1.0 / m)
                column = (node_id - self._offsets[level]) * m
                empty = rows[first + column : first + column + m] == 0
                probs[:, column : column + m] = node_probs / np.where(empty, width, 1)
            blocks = scores.reshape(n_queries, -1, width)
            blocks *= probs[:, :, None]
        return scores

    def num_parameters(self) -> int:
        """Learned parameters over every fitted node."""
        self._require_built()
        return int(sum(node.num_parameters() for node in self._nodes if node is not None))


def _make_hierarchical_usp(
    config: Optional[HierarchicalConfig] = None,
    *,
    levels: Sequence[int] = (16, 16),
    **params,
) -> "HierarchicalUspIndex":
    """Registry factory: ``levels`` plus flat USP params (or ``config=``)."""
    if config is None:
        config = HierarchicalConfig(levels=tuple(levels), base=UspConfig(**params))
    return HierarchicalUspIndex(config)


@register_index(
    "usp-hierarchical",
    factory=_make_hierarchical_usp,
    capabilities=TREE_CAPABILITIES,
    description="Tree of USP partition models (Section 4.4.2)",
)
class HierarchicalUspIndex(PartitionTreeIndex):
    """A tree of USP partition models producing ``prod(levels)`` leaf bins."""

    def __init__(self, config: Optional[HierarchicalConfig] = None) -> None:
        self.config = config or HierarchicalConfig()
        super().__init__(self.config.levels)
        self.metric = self.config.base.metric
        self.training_time: float = 0.0

    def build(self, base: np.ndarray) -> "HierarchicalUspIndex":
        """Train the model tree and assign every point to a leaf."""
        self.training_time = 0.0
        self._rngs = {0: resolve_rng(self.config.base.seed)}
        return super().build(base)

    def _node_rng(self, node_id: int) -> np.random.Generator:
        """Node ``node_id``'s generator.

        A node draws its training seed first, then one seed that spawns its
        children's generators.  The spawn happens when a child first needs
        one, so a node that was never fitted still spawns them.
        """
        if node_id not in self._rngs:
            level = self._level(node_id)
            m = self.levels[level - 1]
            parent = self._offsets[level - 1] + (node_id - self._offsets[level]) // m
            seed = int(self._node_rng(parent).integers(0, 2**31 - 1))
            for branch, rng in enumerate(spawn_rngs(seed, m)):
                self._rngs[self._first_child(parent) + branch] = rng
        return self._rngs[node_id]

    def _fit_node(self, node_id: int, points: np.ndarray) -> np.ndarray:
        """Train a USP model splitting the node's points into its branches."""
        base_config = self.config.base
        config = base_config.with_updates(
            n_bins=self.levels[self._level(node_id)],
            k_prime=min(base_config.k_prime, points.shape[0] - 1),
            seed=int(self._node_rng(node_id).integers(0, 2**31 - 1)),
        )
        knn = build_knn_matrix(points, config.k_prime, metric=config.metric)
        model, history = UspTrainer(config).train(points, knn)
        self.training_time += history.seconds
        self._nodes[node_id] = model
        return model.predict_bins(points)

    def _branch_probabilities(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        model = self._nodes[node_id]
        return None if model is None else model.predict_proba(queries)

    def depth(self) -> int:
        """Number of levels in the hierarchy."""
        return len(self.levels)

    def training_seconds(self) -> float:
        """Total wall-clock seconds spent training tree models."""
        return self.training_time

    # ------------------------------------------------------------------ #
    # persistence: every node with rows is stored under its path ("root",
    # "root-2", "root-2-0", ...) so it fits the npz + JSON format
    # ------------------------------------------------------------------ #
    def _extra_state(self):
        rows = self._rows_per_node()
        nodes: List[dict] = []
        arrays: dict = {}
        stack = [("root", 0)]
        while stack:
            path, node_id = stack.pop()
            level, model = self._level(node_id), self._nodes[node_id]
            nodes.append(
                {
                    "path": path,
                    "n_branches": self.levels[level],
                    "n_parameters": 0 if model is None else model.num_parameters(),
                    "has_model": model is not None,
                }
            )
            if model is not None:
                for key, value in model.state_dict().items():
                    arrays[f"tree.{path}.{key}"] = value
            if level + 1 < len(self.levels):
                first_child = self._first_child(node_id)
                for branch in range(self.levels[level]):
                    if rows[first_child + branch]:
                        stack.append((f"{path}-{branch}", first_child + branch))
        config = {
            "levels": list(self.levels),
            "base": asdict(self.config.base),
            "nodes": nodes,
            "build_seconds": self.build_seconds,
            "training_time": self.training_time,
        }
        return config, arrays

    @classmethod
    def _restore(cls, config, arrays, load_child):
        base_config = UspConfig(**config["base"])
        index = cls(
            HierarchicalConfig(levels=tuple(int(m) for m in config["levels"]), base=base_config)
        )
        dim = int(arrays["__base__"].shape[1])
        index._nodes = [None] * index._offsets[len(index.levels)]
        for meta in config["nodes"]:
            if not meta["has_model"]:
                continue
            node_id = 0
            for branch in meta["path"].split("-")[1:]:
                node_id = index._first_child(node_id) + int(branch)
            model = build_partition_model(
                dim, base_config.with_updates(n_bins=int(meta["n_branches"]))
            )
            prefix = f"tree.{meta['path']}."
            model.load_state_dict(
                {key[len(prefix) :]: value for key, value in arrays.items() if key.startswith(prefix)}
            )
            model.eval()
            index._nodes[node_id] = model
        index.build_seconds = float(config.get("build_seconds", 0.0))
        index.training_time = float(config.get("training_time", 0.0))
        return index
