"""ScaNN-style searcher and the USP + ScaNN pipeline (Figure 7).

ScaNN's online pipeline is: (optional) partition pruning -> scan of
anisotropically quantized codes -> exact re-ranking of a shortlist.  The
paper plugs its unsupervised partitioner in front of that pipeline
("USP + ScaNN") and compares against vanilla ScaNN (no partitioner),
K-means + ScaNN, HNSW, and FAISS IVF-PQ.

:class:`ScannSearcher` is the partitioned ADC scan of
:mod:`repro.quant.partitioned` with the anisotropic codec: any
:class:`~repro.core.PartitionIndexBase` (USP, K-means, ...) can sit in
front of it, so the exact pipelines of the figure are one-liners (see
:func:`vanilla_scann`, :func:`kmeans_scann`, :func:`usp_scann`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..baselines.kmeans import KMeansIndex
from ..core.base import PartitionIndexBase
from ..core.config import UspConfig
from ..core.index import UspIndex
from ..quant.partitioned import PartitionedAdcIndex
from ..utils.rng import SeedLike
from .anisotropic import AnisotropicQuantizer


class ScannSearcher(PartitionedAdcIndex):
    """Partition -> anisotropic-quantized scan -> exact re-rank pipeline.

    Parameters
    ----------
    partitioner:
        Optional partition index (USP, K-means, ...) used to prune the
        dataset before the quantized scan.  ``None`` reproduces "vanilla
        ScaNN": every query scans all quantized codes.
    n_subspaces, n_codewords, anisotropic_eta:
        Codec geometry (see :class:`~repro.ann.anisotropic.AnisotropicQuantizer`).
        When ``n_subspaces`` does not divide the dimensionality, the
        largest divisor below it is used.
    rerank_factor:
        The ``rerank_factor * k`` best quantized candidates are re-ranked
        with exact distances.
    """

    def __init__(
        self,
        partitioner: Optional[PartitionIndexBase] = None,
        *,
        n_subspaces: int = 8,
        n_codewords: int = 16,
        anisotropic_eta: float = 4.0,
        rerank_factor: int = 8,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            partitioner, n_subspaces=n_subspaces, n_codewords=n_codewords, rerank_factor=rerank_factor, seed=seed
        )
        self.anisotropic_eta = float(anisotropic_eta)

    def _train_codes(self, base: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        dim = base.shape[1]
        n_subspaces = max(d for d in range(1, self.n_subspaces + 1) if dim % d == 0)
        codec = AnisotropicQuantizer(n_subspaces, self.n_codewords, eta=self.anisotropic_eta, seed=self.seed)
        codec.fit(base)
        return codec.codebooks, codec.encode(base)


# ---------------------------------------------------------------------- #
# The three pipelines compared in Figure 7
# ---------------------------------------------------------------------- #
def vanilla_scann(**codec) -> ScannSearcher:
    """ScaNN without any partitioning: full quantized scan + re-rank.

    ``codec`` is :class:`ScannSearcher`'s keywords (``n_subspaces``,
    ``n_codewords``, ``anisotropic_eta``, ``rerank_factor``, ``seed``),
    with its defaults; the two pipelines below take the same.
    """
    return ScannSearcher(None, **codec)


def kmeans_scann(n_bins: int = 16, **codec) -> ScannSearcher:
    """K-means partitioning in front of the ScaNN codec ("K-means + ScaNN")."""
    return ScannSearcher(KMeansIndex(n_bins, seed=codec.get("seed")), **codec)


def usp_scann(config: Optional[UspConfig] = None, **codec) -> ScannSearcher:
    """The paper's USP + ScaNN pipeline: a single USP model in front of the codec."""
    return ScannSearcher(UspIndex(config or UspConfig()), **codec)


# ---------------------------------------------------------------------- #
# Registry entries: the Figure 7 pipelines are registered *configurations*
# of ScannSearcher rather than ad-hoc helper functions, so harnesses can
# construct them by name like any other index.
# ---------------------------------------------------------------------- #
_SCANN_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean",),
    probe_parameter="n_probes",
    trainable=True,
    filterable=True,
)

register_index(
    "scann",
    cls=ScannSearcher,
    capabilities=_SCANN_CAPABILITIES,
    description="Vanilla ScaNN: full anisotropic-quantized scan + re-rank",
)(vanilla_scann)

register_index(
    "kmeans-scann",
    cls=ScannSearcher,
    capabilities=_SCANN_CAPABILITIES,
    description="K-means partitioning in front of the ScaNN codec",
)(kmeans_scann)

register_index(
    "usp-scann",
    cls=ScannSearcher,
    capabilities=_SCANN_CAPABILITIES,
    description="The paper's USP + ScaNN pipeline",
)(usp_scann)
