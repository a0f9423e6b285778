"""Neural LSH and Regression LSH baselines (Dong et al., ICLR 2020).

Neural LSH is the supervised state of the art the paper improves upon.  Its
offline phase is a two-step pipeline:

1. Build the k-NN graph of the dataset and partition it into ``m`` balanced
   parts with a combinatorial graph partitioner (here
   :func:`repro.baselines.graph_partition.partition_knn_graph`).
2. Train a neural network classifier to predict the part of a point, so
   out-of-sample queries can be routed to bins.  The classifier trains with
   USP's own step, :func:`repro.core.trainer.loss_and_gradients`: its
   cross entropy against the graph-partition labels is USP's quality term
   with one-hot targets and no balance term.

Dataset points keep the labels assigned by the graph partitioner; queries
are routed by the classifier's probability output (supporting multi-probe).
``Regression LSH`` is the variant used in the paper's tree experiments: the
same pipeline applied recursively with two parts per level and a logistic
regression classifier: a :class:`~repro.core.hierarchical.PartitionTreeIndex`
whose nodes are two-bin classifiers.  The USP logistic tree is the same tree
trained by the same step; only each node's target differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..core.base import PartitionIndexBase
from ..core.hierarchical import TREE_CAPABILITIES, PartitionTreeIndex
from ..core.knn_matrix import KnnMatrix, build_knn_matrix
from ..core.models import PartitionModel, build_logistic_module, build_mlp_module
from ..core.trainer import loss_and_gradients
from ..nn import Adam, EpochBatchIterator
from ..utils.exceptions import ValidationError
from ..utils.rng import resolve_rng, spawn_rngs
from ..utils.timing import Stopwatch
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int

_NEURAL_LSH_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean", "sqeuclidean", "cosine"),
    probe_parameter="n_probes",
    routed=True,
    trainable=True,
    reports_parameter_count=True,
    filterable=True,
)


def _build_classifier_module(dim: int, config: "NeuralLshConfig", rng=None):
    """The classifier architecture described by ``config`` (mlp or logistic)."""
    if config.model == "mlp":
        return build_mlp_module(
            dim,
            config.n_bins,
            hidden_dim=config.hidden_dim,
            dropout=config.dropout,
            rng=rng,
        )
    if config.model == "logistic":
        return build_logistic_module(dim, config.n_bins, rng=rng)
    raise ValidationError(f"unknown model type {config.model!r}")


@dataclass(frozen=True)
class NeuralLshConfig:
    """Hyper-parameters of the Neural LSH baseline.

    The defaults follow the paper's description of the original
    implementation: a hidden layer of width 512 (versus 128 for USP — this
    is where the Table 2 parameter-count gap comes from), k'=10 graph
    neighbours, and a standard supervised cross-entropy objective.
    """

    n_bins: int = 16
    k_prime: int = 10
    hidden_dim: int = 512
    dropout: float = 0.1
    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 1e-3
    imbalance: float = 0.05
    refinement_passes: int = 5
    model: str = "mlp"  # "mlp" (Neural LSH) or "logistic" (Regression LSH)
    seed: int = 0


@register_index(
    "neural-lsh",
    capabilities=_NEURAL_LSH_CAPABILITIES,
    description="Neural LSH: balanced graph partition + neural router (Dong et al. 2020)",
)
class NeuralLshIndex(PartitionIndexBase):
    """Supervised graph-partition + classifier baseline (Neural LSH)."""

    _fitted = PartitionIndexBase._fitted + (
        "model", "edge_cut", "build_seconds", "partition_seconds", "training_time"
    )

    def __init__(self, config: Optional[NeuralLshConfig] = None, **overrides) -> None:
        super().__init__()
        if config is None:
            config = NeuralLshConfig(**overrides)
        elif overrides:
            config = NeuralLshConfig(**{**config.__dict__, **overrides})
        self.config = config
        self.model: Optional[PartitionModel] = None
        self.partition_seconds: float = 0.0
        self.training_time: float = 0.0
        self.build_seconds: float = 0.0
        self.edge_cut: Optional[int] = None

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray, *, knn: Optional[KnnMatrix] = None) -> "NeuralLshIndex":
        """Run the Neural LSH offline pipeline on ``base``."""
        from .graph_partition import partition_knn_graph

        base = as_float_matrix(base, name="base")
        config = self.config
        stopwatch = Stopwatch()
        with stopwatch.section("build"):
            if knn is None:
                knn = build_knn_matrix(base, config.k_prime)
            with stopwatch.section("partition"):
                partition = partition_knn_graph(
                    knn.indices,
                    config.n_bins,
                    imbalance=config.imbalance,
                    refinement_passes=config.refinement_passes,
                    seed=config.seed,
                )
            self.edge_cut = partition.edge_cut
            labels = partition.labels
            with stopwatch.section("train"):
                self.model = self._train_classifier(base, labels)
            # Dataset points keep the graph-partition labels; the classifier
            # is only used to route queries (as in the original system).
            self._finalize_build(base, labels, config.n_bins)
        totals = stopwatch.totals()
        self.build_seconds = totals["build"]
        self.partition_seconds = totals.get("partition", 0.0)
        self.training_time = totals.get("train", 0.0)
        return self

    def _train_classifier(self, base: np.ndarray, labels: np.ndarray) -> PartitionModel:
        """Supervised training of the bin classifier on the partition labels."""
        config = self.config
        rng = resolve_rng(config.seed)
        module = _build_classifier_module(base.shape[1], config, rng=rng)
        model = PartitionModel(module, dim=base.shape[1], n_bins=config.n_bins)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        iterator = EpochBatchIterator(base, config.batch_size, rng=rng)
        one_hot = np.eye(config.n_bins)
        model.train()
        for _ in range(config.epochs):
            for batch in iterator:
                loss_and_gradients(model, batch.points, one_hot[labels[batch.indices]])
                optimizer.step()
        model.eval()
        return model

    # ------------------------------------------------------------------ #
    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Classifier probabilities for each bin."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        return self.model.predict_proba(queries)

    def num_parameters(self) -> int:
        self._require_built()
        return self.model.num_parameters()

    def training_seconds(self) -> float:
        """Classifier training time (excludes graph partitioning)."""
        return self.training_time

    def preprocessing_seconds(self) -> float:
        """Graph-partitioning time — the expensive step USP eliminates."""
        return self.partition_seconds


@register_index(
    "regression-lsh",
    capabilities=TREE_CAPABILITIES,
    description="Regression LSH: recursive 2-way Neural LSH with logistic routers",
)
class RegressionLshIndex(PartitionTreeIndex):
    """Regression LSH: recursive 2-way Neural LSH with logistic regression.

    Used in the paper's tree-based comparison (Figure 6): a binary tree of
    depth ``depth`` where every node partitions its subset's k-NN graph into
    two balanced halves and fits a logistic regression to route queries.
    Each node keeps only that classifier, a two-bin :class:`PartitionModel`.
    """

    #: smaller nodes are too small to split meaningfully
    min_split_size = 8

    def __init__(
        self,
        depth: int = 4,
        *,
        k_prime: int = 10,
        epochs: int = 20,
        learning_rate: float = 5e-3,
        seed: int = 0,
    ) -> None:
        self.depth = check_positive_int(depth, "depth")
        super().__init__((2,) * self.depth)
        self.k_prime = check_positive_int(k_prime, "k_prime")
        self.epochs = check_positive_int(epochs, "epochs")
        self.learning_rate = float(learning_rate)
        self.seed = int(seed)

    def build(self, base: np.ndarray) -> "RegressionLshIndex":
        self._node_rngs = spawn_rngs(self.seed, 2**self.depth - 1)
        return super().build(base)

    def _fit_node(self, node_id: int, points: np.ndarray) -> np.ndarray:
        """Neural LSH with two bins on the node's points; its bins are the branches."""
        node = NeuralLshIndex(
            NeuralLshConfig(
                n_bins=2,
                k_prime=min(self.k_prime, points.shape[0] - 1),
                model="logistic",
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                seed=int(self._node_rngs[node_id].integers(0, 2**31 - 1)),
            )
        )
        node.build(points)
        self._nodes[node_id] = node.model
        return node.assignments

    def _branch_probabilities(self, node_id: int, queries: np.ndarray) -> Optional[np.ndarray]:
        """The node classifier's probability of bin 0, and its complement."""
        model = self._nodes[node_id]
        if model is None:
            return None
        left = model.predict_proba(queries)[:, 0]
        return np.column_stack([left, 1.0 - left])
