"""PQ ADC scan: per-query lookup tables over packed uint8 code columns.

The asymmetric-distance kernel behind ``pq-adc``: a
:class:`~repro.ann.ProductQuantizer` encodes each row as
``n_subspaces`` one-byte codeword ids, and a query's approximate
distance to every row is a **gather + sum** —

* :meth:`~repro.ann.ProductQuantizer.distance_tables` builds one
  ``(n_subspaces, n_codewords)`` LUT per query (squared distance of the
  query's sub-vector to every codeword);
* each scan tile accumulates ``lut[s][codes[rows, s]]`` across
  subspaces into its ``(queries, rows)`` score matrix — pure vectorised
  indexing into ``float32`` tables, never touching a raw vector.

Code columns are stored transposed (``(n_subspaces, n)``, each row
contiguous) so every gather streams sequentially.  A row costs
``n_subspaces`` bytes — for the default 128-dim/16-subspace layout,
64x smaller than the float64 matrix the brute-force scan reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike
from ..utils.validation import check_positive_int
from .base import QuantizedIndexBase, tile_rows

if TYPE_CHECKING:
    from ..ann.pq import ProductQuantizer


@register_index(
    "pq-adc",
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter="rerank",
        trainable=True,
        exact=False,
        shardable=True,
        filterable=True,
        quantized=True,
        rerank=True,
    ),
    description="Product-quantized ADC scan (LUT gather+sum) with exact re-rank",
)
class PqAdcIndex(QuantizedIndexBase):
    """Two-stage index over product-quantized codes with ADC scoring.

    Parameters
    ----------
    n_subspaces:
        Contiguous sub-vectors per row (must divide the dimensionality);
        one byte of code per subspace.
    n_codewords:
        Codebook size per subspace, at most 256 (codes are uint8).
    kmeans_iterations, seed:
        Codebook training knobs, forwarded to the
        :class:`~repro.ann.ProductQuantizer`.
    metric, rerank_factor:
        See :class:`~repro.quant.QuantizedIndexBase`.
    """

    _fitted = QuantizedIndexBase._fitted + ("_pq", "codes")

    def __init__(
        self,
        n_subspaces: int = 8,
        n_codewords: int = 256,
        *,
        kmeans_iterations: int = 25,
        seed: SeedLike = None,
        metric: str = "euclidean",
        rerank_factor: int = 4,
    ) -> None:
        super().__init__(metric=metric, rerank_factor=rerank_factor)
        self.n_subspaces = check_positive_int(n_subspaces, "n_subspaces")
        self.n_codewords = check_positive_int(n_codewords, "n_codewords")
        if self.n_codewords > 256:
            raise ConfigurationError(
                f"pq-adc packs one byte per subspace; n_codewords must be "
                f"<= 256, got {self.n_codewords}"
            )
        self.kmeans_iterations = check_positive_int(
            kmeans_iterations, "kmeans_iterations"
        )
        self.seed = seed
        self._pq: Optional[ProductQuantizer] = None
        self._codes_t: Optional[np.ndarray] = None  # (n_subspaces, n) uint8

    # ------------------------------------------------------------------ #
    # codec hooks
    # ------------------------------------------------------------------ #
    def _fit_codec(self, encoded_base: np.ndarray) -> None:
        from ..ann.pq import ProductQuantizer  # local: repro.ann's pipelines subclass this index

        self._pq = ProductQuantizer(
            self.n_subspaces,
            self.n_codewords,
            kmeans_iterations=self.kmeans_iterations,
            seed=self.seed,
        ).fit(encoded_base)
        self.codes = self._pq.encode(encoded_base)

    def _encode_queries(self, queries: np.ndarray) -> np.ndarray:
        """One float32 ``(n_subspaces, n_codewords)`` LUT per query."""
        return self._pq.distance_tables(queries).astype(np.float32)

    def _tile_rows(self, n_queries: int) -> int:
        """Rows whose ``(queries, rows)`` accumulator fills 1/32 of the tile.

        Every subspace re-reads and re-writes the accumulator and its gather
        buffer, so the tile is held to 256 KB to stay in L2.
        """
        return tile_rows(32 * n_queries)

    def _tile_scores(
        self, encoded_queries: np.ndarray, rows: Union[slice, np.ndarray]
    ) -> np.ndarray:
        """ADC scores of the tile's ``rows``: gather each LUT along the codes."""
        codes = self._codes_t[:, rows]
        shape = (encoded_queries.shape[0], codes.shape[1])
        scores = np.zeros(shape, dtype=np.float32)
        gathered = np.empty(shape, dtype=np.float32)
        for subspace in range(self.n_subspaces):
            np.take(encoded_queries[:, subspace, :], codes[subspace], axis=1, out=gathered)
            scores += gathered
        return scores

    # ------------------------------------------------------------------ #
    # persistence / introspection
    # ------------------------------------------------------------------ #
    def _scan_order(self) -> Optional[np.ndarray]:
        """The id of each column of ``_codes_t`` (``None``: column ``i`` is id ``i``)."""
        return None

    @property
    def codes(self) -> np.ndarray:
        """The codes as id-order ``(n, n_subspaces)`` uint8 rows, whatever order the scan keeps."""
        order = self._scan_order()
        if order is None:
            return self._codes_t.T
        codes = np.empty_like(self._codes_t.T)
        codes[order] = self._codes_t.T
        return codes

    @codes.setter
    def codes(self, codes: np.ndarray) -> None:
        codes = np.asarray(codes).astype(np.uint8, copy=False)
        order = self._scan_order()
        self._codes_t = np.ascontiguousarray((codes if order is None else codes[order]).T)

    def _loaded(self) -> None:
        self._check_rows(self._codes_t.shape[1])

    def _codec_resident_bytes(self) -> int:
        if self._pq is not None and self._pq.codebooks is not None:
            return int(self._pq.codebooks.nbytes)
        return 0

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        if self.is_built and self._codes_t is not None:
            stats["code_bytes"] = int(self._codes_t.nbytes)
            stats["n_subspaces"] = int(self.n_subspaces)
            stats["n_codewords"] = int(self.n_codewords)
        return stats
