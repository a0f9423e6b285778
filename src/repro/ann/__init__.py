"""ANNS back-ends: brute force, quantization codecs, IVF, HNSW, ScaNN."""

from .bruteforce import BruteForceIndex
from .pq import ProductQuantizer
from .anisotropic import AnisotropicQuantizer
from .ivf import IVFFlatIndex, IVFPQIndex
from .hnsw import HnswIndex
from .scann import ScannSearcher, kmeans_scann, usp_scann, vanilla_scann

__all__ = [
    "BruteForceIndex",
    "ProductQuantizer",
    "AnisotropicQuantizer",
    "IVFFlatIndex",
    "IVFPQIndex",
    "HnswIndex",
    "ScannSearcher",
    "kmeans_scann",
    "usp_scann",
    "vanilla_scann",
]
