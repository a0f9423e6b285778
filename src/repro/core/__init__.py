"""Core USP library: the paper's primary contribution.

* :class:`UspConfig`, :class:`EnsembleConfig`, :class:`HierarchicalConfig`
  — hyper-parameter dataclasses.
* :func:`build_knn_matrix` / :class:`KnnMatrix` — the only preprocessing.
* :class:`UspTrainer` — trains a partition model on the unsupervised USP
  loss (Algorithm 1) with :func:`repro.core.trainer.loss_and_gradients`,
  the closed-form step Neural LSH trains with too.
* :class:`UspIndex` — single-model index (Algorithms 1 & 2).
* :class:`UspEnsembleIndex` — boosted ensemble (Algorithms 3 & 4).
* :class:`HierarchicalUspIndex` — hierarchical partitioning.
"""

from .base import PartitionIndexBase, rerank_candidates
from .config import EnsembleConfig, HierarchicalConfig, UspConfig
from .ensemble import UspEnsembleIndex, boosting_weights
from .hierarchical import HierarchicalUspIndex
from .index import UspIndex
from .knn_matrix import KnnMatrix, build_knn_matrix
from .loss import LossBreakdown, neighbor_bin_distribution
from .models import (
    PartitionModel,
    build_logistic_module,
    build_mlp_module,
    build_partition_model,
)
from .trainer import TrainingHistory, UspTrainer

__all__ = [
    "PartitionIndexBase",
    "rerank_candidates",
    "EnsembleConfig",
    "HierarchicalConfig",
    "UspConfig",
    "UspEnsembleIndex",
    "boosting_weights",
    "HierarchicalUspIndex",
    "UspIndex",
    "KnnMatrix",
    "build_knn_matrix",
    "LossBreakdown",
    "neighbor_bin_distribution",
    "PartitionModel",
    "build_logistic_module",
    "build_mlp_module",
    "build_partition_model",
    "TrainingHistory",
    "UspTrainer",
]
