"""ScaNN-style searcher and the USP + ScaNN pipeline (Figure 7).

ScaNN's online pipeline is: (optional) partition pruning -> scan of
anisotropically quantized codes -> exact re-ranking of a shortlist.  The
paper plugs its unsupervised partitioner in front of that pipeline
("USP + ScaNN") and compares against vanilla ScaNN (no partitioner),
K-means + ScaNN, HNSW, and FAISS IVF-PQ.

:class:`ScannSearcher` accepts any partitioner that follows the
``build`` / ``candidate_sets`` protocol shared by every index in
:mod:`repro.core` and :mod:`repro.baselines`, so the exact pipelines of the
figure are one-liners (see :func:`vanilla_scann`, :func:`kmeans_scann`,
:func:`usp_scann`).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities, RegisteredIndex
from ..api.registry import register_index
from ..baselines.kmeans import KMeansIndex
from ..core.config import EnsembleConfig, UspConfig
from ..core.ensemble import UspEnsembleIndex
from ..core.index import UspIndex
from ..utils.distances import squared_euclidean
from ..utils.exceptions import NotFittedError
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .anisotropic import AnisotropicQuantizer


class PartitionerProtocol(Protocol):
    """Anything that can produce per-query candidate sets over a base set."""

    is_built: bool

    def build(self, base: np.ndarray):  # pragma: no cover - protocol
        ...

    def candidate_sets(self, queries: np.ndarray, n_probes: int) -> List[np.ndarray]:  # pragma: no cover
        ...


class ScannSearcher(RegisteredIndex):
    """Partition -> anisotropic-quantized scan -> exact re-rank pipeline.

    Parameters
    ----------
    partitioner:
        Optional partition index (USP, K-means, ...) used to prune the
        dataset before the quantized scan.  ``None`` reproduces "vanilla
        ScaNN": every query scans all quantized codes.
    n_subspaces, n_codewords, anisotropic_eta:
        Codec geometry (see :class:`~repro.ann.anisotropic.AnisotropicQuantizer`).
    rerank_factor:
        The ``rerank_factor * k`` best quantized candidates are re-ranked
        with exact distances.
    """

    def __init__(
        self,
        partitioner: Optional[PartitionerProtocol] = None,
        *,
        n_subspaces: int = 8,
        n_codewords: int = 16,
        anisotropic_eta: float = 4.0,
        rerank_factor: int = 8,
        seed: SeedLike = None,
    ) -> None:
        self.partitioner = partitioner
        self.n_subspaces = check_positive_int(n_subspaces, "n_subspaces")
        self.n_codewords = check_positive_int(n_codewords, "n_codewords")
        self.anisotropic_eta = float(anisotropic_eta)
        self.rerank_factor = check_positive_int(rerank_factor, "rerank_factor")
        self.seed = seed
        self._base: Optional[np.ndarray] = None
        self._codec: Optional[AnisotropicQuantizer] = None
        self._codes: Optional[np.ndarray] = None
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray) -> "ScannSearcher":
        """Build the partitioner (if any), train the codec, and encode the base."""
        import time

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        if self.partitioner is not None and not getattr(self.partitioner, "is_built", False):
            self.partitioner.build(base)
        dim = base.shape[1]
        n_subspaces = self.n_subspaces
        if dim % n_subspaces != 0:
            # Choose the largest divisor of dim not exceeding the request, so
            # arbitrary dimensionalities work out of the box.
            n_subspaces = max(d for d in range(1, n_subspaces + 1) if dim % d == 0)
        self._codec = AnisotropicQuantizer(
            n_subspaces,
            self.n_codewords,
            eta=self.anisotropic_eta,
            seed=self.seed,
        ).fit(base)
        self._codes = self._codec.encode(base)
        self._base = base
        self.build_seconds = time.perf_counter() - start
        return self

    def _require_built(self) -> None:
        if self._base is None or self._codec is None:
            raise NotFittedError("ScannSearcher has not been built yet")

    @property
    def is_built(self) -> bool:
        return self._base is not None

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._base.shape[1])

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._base.shape[0])

    # ------------------------------------------------------------------ #
    def _candidates(self, queries: np.ndarray, n_probes: int) -> List[np.ndarray]:
        if self.partitioner is None:
            everything = np.arange(self.n_points, dtype=np.int64)
            return [everything for _ in range(queries.shape[0])]
        return self.partitioner.candidate_sets(queries, n_probes)

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 2, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``k``-NN for every query row."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        candidates_per_query = self._candidates(queries, n_probes)
        out_indices = np.full((queries.shape[0], k), -1, dtype=np.int64)
        out_distances = np.full((queries.shape[0], k), np.inf)
        for i, candidates in enumerate(candidates_per_query):
            candidates = np.asarray(candidates, dtype=np.int64)
            if candidates.size == 0:
                continue
            scores = self._codec.adc_distances(queries[i], self._codes[candidates])
            shortlist_size = min(candidates.size, max(k, self.rerank_factor * k))
            part = np.argpartition(scores, kth=shortlist_size - 1)[:shortlist_size]
            shortlist = candidates[part]
            exact = squared_euclidean(queries[i : i + 1], self._base[shortlist])[0]
            top = min(k, shortlist.size)
            best = np.argpartition(exact, kth=top - 1)[:top]
            order = best[np.argsort(exact[best], kind="stable")]
            out_indices[i, :top] = shortlist[order]
            out_distances[i, :top] = np.sqrt(exact[order])
        return out_indices, out_distances

    # ------------------------------------------------------------------ #
    # persistence: the codec arrays live here, the partitioner (if any) is
    # a nested saved index dispatched through its own registry name
    # ------------------------------------------------------------------ #
    def _state(self):
        config = {
            "n_subspaces": int(self.n_subspaces),
            "n_codewords": int(self.n_codewords),
            "anisotropic_eta": float(self.anisotropic_eta),
            "rerank_factor": int(self.rerank_factor),
            "build_seconds": self.build_seconds,
            "has_partitioner": self.partitioner is not None,
        }
        arrays = {
            "__base__": self._base,
            "codes": self._codes,
            "codec.codebooks": self._codec.codebooks,
        }
        children = {}
        if self.partitioner is not None:
            children["partitioner"] = self.partitioner
        return config, arrays, children

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        partitioner = load_child("partitioner") if config.get("has_partitioner") else None
        searcher = cls(
            partitioner,
            n_subspaces=int(config["n_subspaces"]),
            n_codewords=int(config["n_codewords"]),
            anisotropic_eta=float(config["anisotropic_eta"]),
            rerank_factor=int(config["rerank_factor"]),
        )
        codebooks = arrays["codec.codebooks"]
        codec = AnisotropicQuantizer(
            codebooks.shape[0],
            codebooks.shape[1],
            eta=float(config["anisotropic_eta"]),
        )
        codec.codebooks = codebooks
        codec._sub_dim = int(codebooks.shape[2])
        searcher._codec = codec
        searcher._codes = arrays["codes"]
        searcher._base = arrays["__base__"]
        searcher.build_seconds = float(config.get("build_seconds", 0.0))
        return searcher


# ---------------------------------------------------------------------- #
# The three pipelines compared in Figure 7
# ---------------------------------------------------------------------- #
def vanilla_scann(
    *,
    n_subspaces: int = 8,
    n_codewords: int = 16,
    anisotropic_eta: float = 4.0,
    rerank_factor: int = 8,
    seed: SeedLike = None,
) -> ScannSearcher:
    """ScaNN without any partitioning: full quantized scan + re-rank."""
    return ScannSearcher(
        None,
        n_subspaces=n_subspaces,
        n_codewords=n_codewords,
        anisotropic_eta=anisotropic_eta,
        rerank_factor=rerank_factor,
        seed=seed,
    )


def kmeans_scann(
    n_bins: int = 16,
    *,
    n_subspaces: int = 8,
    n_codewords: int = 16,
    anisotropic_eta: float = 4.0,
    rerank_factor: int = 8,
    seed: SeedLike = None,
) -> ScannSearcher:
    """K-means partitioning in front of the ScaNN codec ("K-means + ScaNN")."""
    return ScannSearcher(
        KMeansIndex(n_bins, seed=seed),
        n_subspaces=n_subspaces,
        n_codewords=n_codewords,
        anisotropic_eta=anisotropic_eta,
        rerank_factor=rerank_factor,
        seed=seed,
    )


def usp_scann(
    config: Optional[UspConfig] = None,
    *,
    ensemble: Optional[EnsembleConfig] = None,
    n_subspaces: int = 8,
    n_codewords: int = 16,
    anisotropic_eta: float = 4.0,
    rerank_factor: int = 8,
    seed: SeedLike = None,
) -> ScannSearcher:
    """The paper's USP + ScaNN pipeline.

    Pass either a :class:`UspConfig` (single model) or an
    :class:`EnsembleConfig` (boosted ensemble partitioner).
    """
    if ensemble is not None:
        partitioner: PartitionerProtocol = UspEnsembleIndex(ensemble)
    else:
        partitioner = UspIndex(config or UspConfig())
    return ScannSearcher(
        partitioner,
        n_subspaces=n_subspaces,
        n_codewords=n_codewords,
        anisotropic_eta=anisotropic_eta,
        rerank_factor=rerank_factor,
        seed=seed,
    )


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
    aliases=("vanilla-scann",),
)(vanilla_scann)

register_index(
    "kmeans-scann",
    cls=ScannSearcher,
    capabilities=_SCANN_CAPABILITIES,
    description="K-means partitioning in front of the ScaNN codec",
    aliases=("scann-kmeans",),
)(kmeans_scann)

register_index(
    "usp-scann",
    cls=ScannSearcher,
    capabilities=_SCANN_CAPABILITIES,
    description="The paper's USP + ScaNN pipeline (single model or ensemble)",
    aliases=("scann-usp",),
)(usp_scann)
