"""Int8 scalar quantization: per-dimension affine codes, tiled SGEMM scan.

Each dimension ``d`` gets its own affine grid ``value = code * scale_d +
offset_d`` with 256 levels spanning the base's observed range, so a row
costs one byte per dimension — 8x smaller than the float64 matrices the
brute-force scan streams, 4x smaller than float32.

The scan scores a query ``q`` against every decoded row ``x̂`` through
the expansion::

    ||q - x̂||² = ||q||² - 2 q·x̂ + ||x̂||²
    q·x̂        = (q * scale) · codes + q · offset

``||x̂||²`` is precomputed per row at build time; ``||q||²`` and
``-2 q·offset`` are the same for every row a query scores, so both are
dropped — they never change the ranking.  What is left is one SGEMM per
scan tile (see :data:`~repro.quant.base.SCAN_TILE`): the tile's uint8
code rows are converted to float32 once and multiplied against every
query of the tile pre-scaled by ``-2 * scale``.  ``||x̂||²`` rides in the
same product: the decoded block carries it as a last column and the
encoded queries a ``1.0`` there, so the SGEMM returns the scores with no
pass over them.  The fold keeps the bits of adding ``||x̂||²`` after the
product, and runs where that was checked to hold and pays
(:func:`folds`): a tile of one or a few queries, or any tile under a BLAS
the fold was not checked on, adds it after the product.  Tiles span
hundreds of queries and thousands of rows, so BLAS runs large,
well-shaped products instead of many thin ones.

NumPy ships no integer GEMM, so the serving kernel accumulates in
float32; the test suite pins it against a pure-integer reference, the
same cross term accumulated in ``int32`` on the code grid.
"""

from __future__ import annotations

import ctypes
from glob import glob
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..utils.distances import iter_blocks
from .base import QuantizedIndexBase, tile_rows

#: Queries from which a tile folds ``||x̂||²`` into its SGEMM.  Paired
#: per tile on a 2-core Xeon (2 BLAS threads, full-height tiles at dim 64
#: and 96), the fold reads 0.87-1.07x of the separate add at 8-16 queries
#: and 0.73-0.94x from 32 to 256.
FOLD_MIN_QUERIES = 32

#: Multiply-adds from which the fold's SGEMM is past OpenBLAS's
#: small-matrix kernels (its ``SMALL_MATRIX_OPT`` path, which the
#: SkylakeX kernel set permits for small products).  There, folded scores
#: moved by an ulp in tiles of up to 1.1e5 multiply-adds; the bound
#: leaves 20x of margin.
FOLD_MIN_MACS = 1 << 21

#: Largest dimension the fold runs at: ``dim + 1`` inner terms then fit
#: one K block of the SGEMM (OpenBLAS's ``SGEMM_DEFAULT_Q``), which the
#: kernel sums in order.  From 448 dims on the SkylakeX kernels, a quarter
#: to half of the folded scores moved by an ulp.
FOLD_MAX_DIM = 255

#: The OpenBLAS release and SGEMM kernel sets the fold was checked on, bit
#: for bit against the separate add over 155 tiles (dims 8-255, 32-700
#: queries, slice and id-array tiles) at 1 and 2 threads, each kernel set
#: forced with ``OPENBLAS_CORETYPE`` on one AVX-512 Xeon.  The same check
#: on the Haswell kernels, which OpenBLAS also runs on Zen, moved scores
#: in every tile, so the constants above hold only for these.
FOLD_BLAS_VERSION = "0.3.31"
FOLD_BLAS_CORES = ("SkylakeX", "Sandybridge")


def _openblas() -> Tuple[str, str]:
    """``(version, kernel set)`` of the OpenBLAS bundled in numpy's wheel, as it runs.

    ``("", "")`` where none is found, as when numpy links another BLAS.
    """
    for path in glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        config.restype = core.restype = ctypes.c_char_p
        return config().decode().split()[1], core().decode()
    return "", ""


def _fold_checked() -> bool:
    version, core = _openblas()
    return core in FOLD_BLAS_CORES and (version + ".").startswith(FOLD_BLAS_VERSION + ".")


#: Whether this process's BLAS is one the fold was checked on (see
#: :data:`FOLD_BLAS_CORES`); elsewhere every tile adds ``||x̂||²`` after
#: the product.
FOLD_BLAS = _fold_checked()


def folds(n_queries: int, n_rows: int, dim: int) -> bool:
    """Whether a tile of ``n_queries`` x ``n_rows`` codes of ``dim`` folds ``||x̂||²`` into its SGEMM.

    The fold is bitwise the separate add only where BLAS sums the inner
    dimension in order, ``||x̂||²`` last: in a blocked SGEMM (two or more
    rows on both sides, past OpenBLAS's small-matrix kernels at
    :data:`FOLD_MIN_MACS`) whose inner dimension is one K block
    (:data:`FOLD_MAX_DIM`), on a kernel set that keeps that order
    (:data:`FOLD_BLAS`).  An SGEMV or a small-matrix kernel need not keep
    it when the inner dimension grows by one.
    """
    return (
        FOLD_BLAS
        and n_queries >= FOLD_MIN_QUERIES
        and n_rows >= 2
        and dim <= FOLD_MAX_DIM
        and n_queries * n_rows * dim >= FOLD_MIN_MACS
    )


class Sq8Codec:
    """Per-dimension affine uint8 codec (fit / encode / decode)."""

    def __init__(self) -> None:
        self.scale: np.ndarray | None = None
        self.offset: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "Sq8Codec":
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        scale = (hi - lo) / 255.0
        # Constant dimensions quantize to code 0 exactly; any positive
        # scale works, 1.0 keeps decode finite.
        self.scale = np.where(scale == 0.0, 1.0, scale)
        self.offset = lo
        return self

    def encode(self, points: np.ndarray) -> np.ndarray:
        codes = np.rint((points - self.offset) / self.scale)
        return np.clip(codes, 0, 255).astype(np.uint8)


@register_index(
    "sq8",
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter="rerank",
        exact=False,
        shardable=True,
        filterable=True,
        quantized=True,
        rerank=True,
    ),
    description="Scalar-quantized int8 scan (per-dim affine) with exact re-rank",
)
class Sq8Index(QuantizedIndexBase):
    """Two-stage index over per-dimension affine uint8 codes.

    Parameters
    ----------
    metric:
        ``euclidean`` / ``sqeuclidean`` / ``cosine``.  Cosine quantizes
        the L2-normalised base (ranking-equivalent to cosine) and
        re-ranks with the true cosine metric.
    rerank_factor:
        Default over-fetch: stage 1 keeps ``rerank_factor * k``
        candidates per query (override per call with ``rerank=``).
    """

    _fitted = QuantizedIndexBase._fitted + ("_codes", "_code_norms", "_codec.scale", "_codec.offset")

    def __init__(
        self,
        *,
        metric: str = "euclidean",
        rerank_factor: int = 4,
    ) -> None:
        super().__init__(metric=metric, rerank_factor=rerank_factor)
        self._codes: np.ndarray | None = None
        self._code_norms: np.ndarray | None = None
        self._codec = Sq8Codec()

    # ------------------------------------------------------------------ #
    # codec hooks
    # ------------------------------------------------------------------ #
    def _fit_codec(self, encoded_base: np.ndarray) -> None:
        self._codec.fit(encoded_base)
        self._codes = self._codec.encode(encoded_base)
        # ||x̂||² per row, computed blocked so fit never materialises the
        # full decoded matrix.
        norms = np.empty(self._codes.shape[0], dtype=np.float32)
        for start, stop in iter_blocks(self._codes.shape[0], self._tile_rows(1)):
            decoded = self._decode_block_f32(start, stop)
            norms[start:stop] = np.einsum("ij,ij->i", decoded, decoded)
        self._code_norms = norms

    def _decode_block_f32(self, start: int, stop: int) -> np.ndarray:
        block = self._codes[start:stop].astype(np.float32)
        block *= self._codec.scale.astype(np.float32)
        block += self._codec.offset.astype(np.float32)
        return block

    def _encode_queries(self, queries: np.ndarray) -> np.ndarray:
        """Queries pre-scaled onto the code grid: ``-2 * q * scale``.

        A block of :data:`FOLD_MIN_QUERIES` or more also gets a trailing
        ``1.0`` column, which meets a folded tile's ``||x̂||²`` column (see
        :meth:`_tile_scores`); a shorter one, or any under a BLAS the fold
        was not checked on (:data:`FOLD_BLAS`), never folds.
        """
        scaled = queries * (-2.0 * self._codec.scale)
        if not FOLD_BLAS or queries.shape[0] < FOLD_MIN_QUERIES:
            return scaled.astype(np.float32)
        encoded = np.ones((queries.shape[0], queries.shape[1] + 1), dtype=np.float32)
        encoded[:, :-1] = scaled
        return encoded

    def _tile_rows(self, n_queries: int) -> int:
        """Rows whose scores and decoded codes both fit the tile.

        A row costs ``n_queries`` score elements and ``dim`` decoded ones;
        the decoded block is held to an eighth of the tile (1 MB) so it
        stays cache-resident while SGEMM reads it — what bounds a
        single-query scan, which is memory-bound.
        """
        return tile_rows(max(n_queries, 8 * self.dim))

    def _tile_scores(
        self, encoded_queries: np.ndarray, rows: Union[slice, np.ndarray]
    ) -> np.ndarray:
        """``||x̂||² - 2 q·(x̂ - offset)`` for the tile's ``rows``.

        Where :func:`folds` allows, ``||x̂||²`` is the SGEMM's last
        inner-dimension term — the decoded block gets a ``||x̂||²`` column
        against the queries' ``1.0`` — so the product is the score and no
        pass over the ``(queries, rows)`` matrix adds it.  Elsewhere (one
        query, few queries, a short tile, a BLAS the fold was not checked
        on) it is added after the product, with the same bits.
        """
        codes = self._codes[rows]
        if encoded_queries.shape[1] > codes.shape[1]:  # a block that may fold
            if folds(encoded_queries.shape[0], *codes.shape):
                block = np.empty((codes.shape[0], codes.shape[1] + 1), dtype=np.float32)
                block[:, :-1] = codes
                block[:, -1] = self._code_norms[rows]
                return encoded_queries @ block.T
            encoded_queries = np.ascontiguousarray(encoded_queries[:, :-1])
        scores = encoded_queries @ codes.astype(np.float32).T
        scores += self._code_norms[rows]
        return scores

    # ------------------------------------------------------------------ #
    # persistence / introspection
    # ------------------------------------------------------------------ #
    def _loaded(self) -> None:
        self._check_rows(self._codes.shape[0])
        self._check_rows(self._code_norms.shape[0])

    def _codec_resident_bytes(self) -> int:
        total = 0
        for array in (self._codec.scale, self._codec.offset):
            if isinstance(array, np.ndarray):
                total += int(array.nbytes)
        return total

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        if self.is_built and self._codes is not None:
            stats["code_bytes"] = int(self._codes.nbytes)
        return stats
