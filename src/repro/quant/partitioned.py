"""Partitioned PQ-ADC scan: the one query path of the Figure 7 pipelines.

``scann``, ``kmeans-scann``, ``usp-scann`` and ``ivf-pq`` keep
``pq-adc``'s codes **bin-major** — uint8 columns in the partitioner's
lookup order — so :func:`~repro.core.base.scan_bins` scores each probed
bin's contiguous block once, for every query that probes it, with
:meth:`PqAdcIndex._tile_scores`.  Without a partitioner the scan is
:meth:`QuantizedIndexBase._scan` over every row.  The shortlist goes to
:func:`rerank_candidates`; an ADC tie goes to the earlier gathered
candidate (bins in probe rank order, rows in lookup order).
"""

from __future__ import annotations

import time
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..api.protocol import RegisteredIndex
from ..core.base import PartitionIndexBase, bin_major, rerank_candidates, scan_bins
from ..utils.exceptions import ConfigurationError, ValidationError
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .adc import PqAdcIndex
from .base import QuantizedIndexBase


class PartitionedAdcIndex(PqAdcIndex):
    """A :class:`PqAdcIndex` behind an optional partitioner.

    ``partitioner`` is a :class:`~repro.core.PartitionIndexBase` whose
    ``n_probes`` best bins each query scans; ``build`` builds it unless it
    is prebuilt on the same base.  Subclasses train the codec
    (:meth:`_train_codes`) and keep their own saved layout.
    """

    #: codes encode ``base - centroid`` of the row's bin (IVF-PQ)
    residual: ClassVar[bool] = False
    #: bins probed when ``batch_query`` is not given ``n_probes``
    default_probes: ClassVar[int] = 2

    def __init__(self, partitioner: Optional[PartitionIndexBase] = None, **codec) -> None:
        if partitioner is not None and not isinstance(partitioner, PartitionIndexBase):
            raise ConfigurationError(
                f"{type(self).__name__} needs a PartitionIndexBase partitioner; "
                f"{type(partitioner).__name__} (an ensemble) has no single bin layout"
            )
        super().__init__(**codec)
        self.partitioner = partitioner
        self._base: Optional[np.ndarray] = None
        self._bounds: Optional[np.ndarray] = None  # bin b owns columns [bounds[b], bounds[b+1])
        self._ids: Optional[np.ndarray] = None  # base id of every code column
        self.build_seconds = 0.0

    def _train_codes(self, base: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Subclass hook: train a codec on ``base``; its codebooks and ``base``'s codes."""
        raise NotImplementedError

    def build(self, base: np.ndarray) -> "PartitionedAdcIndex":
        """Build the partitioner (unless prebuilt on ``base``), then train and encode the codec."""
        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        partitioner = self.partitioner
        if partitioner is not None and not partitioner.is_built:
            partitioner.build(base)
        elif partitioner is not None and (partitioner.n_points, partitioner.dim) != base.shape:
            raise ValidationError(
                f"the partitioner holds {partitioner.n_points} x {partitioner.dim} points, "
                f"the base {base.shape[0]} x {base.shape[1]}; build it on the same base"
            )
        self._restore(base, *self._train_codes(base))
        self.build_seconds = time.perf_counter() - start
        return self

    def _restore(self, base: np.ndarray, codebooks: np.ndarray, codes: np.ndarray) -> None:
        """Adopt a base, its id-order ``(n, n_subspaces)`` codes and their codebooks.

        Any ``(n_subspaces, n_codewords, sub_dim)`` codebooks (PQ or
        anisotropic) are scored by ``pq-adc``'s LUT gather-sum.
        """
        self._base = as_float_matrix(base, name="base")  # the float64 re-rank rows
        self._n_points, self._dim = self._base.shape
        p = self.partitioner
        if p is None:
            self._bounds, self._ids = None, np.arange(self._n_points)
        else:
            self._bounds, self._ids = bin_major([p.points_in_bin(b) for b in range(p.n_bins)])
        config = dict(
            n_subspaces=codebooks.shape[0], n_codewords=self.n_codewords, kmeans_iterations=self.kmeans_iterations
        )
        self._restore_codec(config, {"codes_t": np.asarray(codes)[self._ids].T, "codebooks": codebooks})

    def _saved_codes(self) -> np.ndarray:
        """The codes as id-order ``(n, n_subspaces)`` int32 rows."""
        codes = np.empty((self._n_points, self.n_subspaces), dtype=np.int32)
        codes[self._ids] = self._codes_t.T
        return codes

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: Optional[int] = None, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``k``-NN with exact distances, rows padded with ``-1`` / ``inf``."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        n_probes = self.default_probes if n_probes is None else int(n_probes)
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=n_probes)
        budget = self._rerank_budget(k, None)
        partitioner = self.partitioner
        if partitioner is None:
            candidates = self._scan(queries, budget, None)[0]
            return rerank_candidates(self._base, queries, candidates, k, metric=self.metric)
        n_probes = min(check_positive_int(n_probes, "n_probes"), partitioner.n_bins)
        luts = None if self.residual else self._encode_queries(queries)

        def scores(qi: np.ndarray, b: int, block: slice) -> np.ndarray:
            if luts is None:
                return self._tile_scores(self._encode_queries(queries[qi] - partitioner.centroids[b]), block)
            return self._tile_scores(luts[qi], block)

        ranked = partitioner.top_bins(queries, n_probes)
        ids, _ = scan_bins(ranked, self._bounds, self._ids, budget, scores)
        return rerank_candidates(self._base, queries, ids, k, metric=self.metric)

    def stats(self):
        stats = super().stats()
        stats.pop("float32_bytes", None)  # the re-rank rows are the resident float64 ``_base``
        return stats

    # the subclasses' saved layouts keep ``__base__`` in arrays.npz: no vector store
    def save(self, path, *, manifest_extra=None):
        return RegisteredIndex.save(self, path, manifest_extra=manifest_extra)

    @classmethod
    def load(cls, path):
        return super(QuantizedIndexBase, cls).load(path)
