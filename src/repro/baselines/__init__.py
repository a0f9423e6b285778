"""Space-partitioning baselines the paper compares against."""

from .kmeans import KMeans, KMeansIndex, KMeansResult, kmeans_plus_plus_init
from .graph_partition import GraphPartitionResult, partition_knn_graph
from .neural_lsh import NeuralLshConfig, NeuralLshIndex, RegressionLshIndex
from .lsh import CrossPolytopeLshIndex
from .trees import (
    HyperplaneTreeIndex,
    KdTreeIndex,
    PcaTreeIndex,
    RandomProjectionTreeIndex,
    TwoMeansTreeIndex,
)
from .boosted_forest import BoostedSearchForestIndex

__all__ = [
    "KMeans",
    "KMeansIndex",
    "KMeansResult",
    "kmeans_plus_plus_init",
    "GraphPartitionResult",
    "partition_knn_graph",
    "NeuralLshConfig",
    "NeuralLshIndex",
    "RegressionLshIndex",
    "CrossPolytopeLshIndex",
    "HyperplaneTreeIndex",
    "KdTreeIndex",
    "PcaTreeIndex",
    "RandomProjectionTreeIndex",
    "TwoMeansTreeIndex",
    "BoostedSearchForestIndex",
]
