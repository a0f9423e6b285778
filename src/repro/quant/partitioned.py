"""Partitioned PQ-ADC scan: the one query path of the Figure 7 pipelines.

``scann``, ``kmeans-scann``, ``usp-scann`` and ``ivf-pq`` keep
``pq-adc``'s codes **bin-major** — uint8 columns in the order of the
partitioner's :attr:`~repro.core.PartitionIndexBase.layout` — so
:func:`~repro.core.base.scan_bins` scores each probed bin's contiguous
block once, for every query that probes it, with
:meth:`PqAdcIndex._tile_scores`.  :func:`rerank_candidates` re-ranks the
shortlisted layout positions against the layout's own rows.  Without a
partitioner the scan is :meth:`QuantizedIndexBase._scan` over every row,
re-ranked against the pipeline's ``_base``.  An ADC tie goes to the
earlier gathered candidate (bins in probe rank order, rows in layout order).
"""

from __future__ import annotations

import time
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..core.base import PartitionIndexBase, rerank_candidates, scan_bins
from ..utils.exceptions import ConfigurationError, ValidationError
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .adc import PqAdcIndex
from .base import QuantizedIndexBase


class PartitionedAdcIndex(PqAdcIndex):
    """A :class:`PqAdcIndex` behind an optional partitioner.

    ``partitioner`` is a :class:`~repro.core.PartitionIndexBase` whose
    ``n_probes`` best bins each query scans; ``build`` builds it unless it
    is prebuilt on the same base.  Subclasses train the codec
    (:meth:`_train_codes`).
    """

    #: codes encode ``base - centroid`` of the row's bin (IVF-PQ)
    residual: ClassVar[bool] = False
    #: bins probed when ``batch_query`` is not given ``n_probes``
    default_probes: ClassVar[int] = 2
    _fitted = QuantizedIndexBase._fitted + ("n_subspaces", "partitioner", "_base", "_pq", "codes", "build_seconds")
    _vector_store = False

    def __init__(self, partitioner: Optional[PartitionIndexBase] = None, **codec) -> None:
        if partitioner is not None and not isinstance(partitioner, PartitionIndexBase):
            raise ConfigurationError(
                f"{type(self).__name__} needs a PartitionIndexBase partitioner; "
                f"{type(partitioner).__name__} (an ensemble) has no single bin layout"
            )
        super().__init__(**codec)
        self.partitioner = partitioner
        self._base: Optional[np.ndarray] = None  # the re-rank rows when there is no partitioner
        self.build_seconds = 0.0

    def _train_codes(self, base: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Subclass hook: train a codec on ``base``; its codebooks and ``base``'s codes."""
        raise NotImplementedError

    def build(self, base: np.ndarray) -> "PartitionedAdcIndex":
        """Build the partitioner (unless prebuilt on ``base``), then train and encode the codec.

        The codes are scored by ``pq-adc``'s LUT gather-sum, whatever
        ``(n_subspaces, n_codewords, sub_dim)`` codebooks (PQ or
        anisotropic) the subclass trains.
        """
        from ..ann.pq import ProductQuantizer  # local: repro.ann's pipelines subclass this index

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        p = self.partitioner
        if p is not None and not p.is_built:
            p.build(base)
        if p is not None and not np.array_equal(p.vectors(), base):
            raise ValidationError(f"the partitioner was not built on this {base.shape} base; build it on the same base")
        codebooks, codes = self._train_codes(base)
        self._n_points, self._dim = base.shape
        self._base = base if p is None else None
        self.n_subspaces = codebooks.shape[0]
        self._pq = ProductQuantizer(
            self.n_subspaces, self.n_codewords, kmeans_iterations=self.kmeans_iterations, codebooks=codebooks
        )
        self.codes = codes
        self.build_seconds = time.perf_counter() - start
        return self

    def _scan_order(self) -> Optional[np.ndarray]:
        return None if self.partitioner is None else self.partitioner.layout.ids

    def _loaded(self) -> None:
        super()._loaded()
        if self.partitioner is not None:
            self._check_rows(self.partitioner.n_points)

    def vectors(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """The float64 re-rank rows ``ids`` (every row, in id order, for ``None``)."""
        self._require_built()
        if self.partitioner is not None:
            return self.partitioner.vectors(ids)
        return self._base if ids is None else self._base[ids]

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
        layout = partitioner.layout
        positions, _ = scan_bins(ranked, layout.bounds, None, budget, scores)
        positions, distances = rerank_candidates(layout.rows, queries, positions, k, metric=self.metric)
        ids = layout.ids[positions]
        ids[positions < 0] = -1
        return ids, distances

    def resident_bytes(self) -> int:
        """Also counts the partitioner layout's rows, ids and bounds: the re-rank reads them."""
        total = super().resident_bytes()
        if self.partitioner is not None:
            layout = self.partitioner.layout
            total += layout.rows.nbytes + layout.ids.nbytes + layout.bounds.nbytes
        return total

    def stats(self):
        stats = super().stats()
        stats.pop("float32_bytes", None)  # the re-rank rows are float64: the partitioner's or ``_base``
        return stats
