"""Clustering algorithms and quality metrics (the paper's Table 5)."""

from .dbscan import DBSCAN, NOISE
from .spectral import SpectralClustering
from .metrics import (
    adjusted_rand_index,
    normalized_mutual_information,
)
from .usp_clustering import UspClustering

__all__ = [
    "DBSCAN",
    "NOISE",
    "SpectralClustering",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "UspClustering",
]
