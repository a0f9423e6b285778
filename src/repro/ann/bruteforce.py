"""Exact brute-force nearest neighbour search.

Used (i) as the gold standard when computing ground truth and recall, and
(ii) as the final re-ranking step inside every candidate-set based index.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities, RegisteredIndex
from ..api.registry import register_index
from ..utils.distances import pairwise_topk
from ..utils.exceptions import NotFittedError
from ..utils.topk import pad
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int


@register_index(
    "bruteforce",
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter=None,
        exact=True,
        shardable=True,
        filterable=True,
    ),
    description="Exact k-NN by scanning the entire dataset",
)
class BruteForceIndex(RegisteredIndex):
    """Exact k-NN by scanning the entire dataset."""

    _fitted = ("metric", "_base")

    def __init__(self, *, metric: str = "euclidean", block_size: int = 1024) -> None:
        self.metric = metric
        self.block_size = int(block_size)
        self._base: Optional[np.ndarray] = None

    def build(self, base: np.ndarray) -> "BruteForceIndex":
        """Store the dataset (no preprocessing needed)."""
        self._base = as_float_matrix(base, name="base")
        return self

    @property
    def is_built(self) -> bool:
        return self._base is not None

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._base.shape[0])

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._base.shape[1])

    def _require_built(self) -> None:
        if self._base is None:
            raise NotFittedError("BruteForceIndex has not been built yet")

    def vectors(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        self._require_built()
        return self._base if ids is None else self._base[ids]

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` indices and distances for each query row.

        With ``filter=`` (a :class:`repro.filter.Predicate`, boolean mask,
        or id allowlist) only the allowed rows are scanned — exact over
        the filtered subset at every selectivity; rows with fewer than
        ``k`` allowed points are padded with ``-1`` / ``inf``.
        """
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        k = check_positive_int(k, "k")
        if filter is not None:
            # The planner picks prefilter at every selectivity for exact
            # indexes — the subset scan is this index's scan.
            return self._filtered_batch_query(queries, k, filter)
        ids, distances = pairwise_topk(
            queries, self._base, k, metric=self.metric, block_size=self.block_size
        )
        if k > ids.shape[1]:  # k > n: the clipped answer, padded like every index's
            return pad(ids, distances, k)
        return ids, distances
