"""Product quantization (Jégou et al., 2011).

The sketching substrate for the FAISS-style IVF-PQ baseline: vectors are
split into ``n_subspaces`` contiguous chunks and each chunk is quantized
with its own small K-means codebook.  Approximate distances between a query
and all encoded points are computed with per-subspace lookup tables
(asymmetric distance computation, ADC; :meth:`ProductQuantizer.distance_tables`).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Optional

import numpy as np

from ..baselines.kmeans import KMeans
from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.rng import SeedLike, spawn_rngs
from ..utils.validation import as_float_matrix, check_positive_int


def _squared_distances(chunk: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Squared distances of every sub-vector of ``chunk`` to every codeword."""
    return (
        np.einsum("ij,ij->i", chunk, chunk)[:, None]
        - 2.0 * chunk @ codebook.T
        + np.einsum("ij,ij->i", codebook, codebook)[None, :]
    )


@dataclass(eq=False)
class ProductQuantizer:
    """Split-and-quantize codec with ADC distance estimation.

    Parameters
    ----------
    n_subspaces:
        Number of contiguous sub-vectors (must divide the dimensionality).
    n_codewords:
        Codebook size per subspace (classically 256 = one byte per code).
    kmeans_iterations:
        Lloyd iterations when training each codebook.
    seed:
        Random seed.
    codebooks:
        The ``(n_subspaces, n_codewords, sub_dim)`` codebooks :meth:`fit`
        learns; given, the codec is already fitted.
    """

    n_subspaces: int = 8
    n_codewords: int = 256
    _: KW_ONLY
    kmeans_iterations: int = 25
    seed: SeedLike = None
    codebooks: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.n_subspaces = check_positive_int(self.n_subspaces, "n_subspaces")
        self.n_codewords = check_positive_int(self.n_codewords, "n_codewords")
        self.kmeans_iterations = check_positive_int(self.kmeans_iterations, "kmeans_iterations")
        self._sub_dim = None if self.codebooks is None else int(self.codebooks.shape[2])

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> "ProductQuantizer":
        """Train one K-means codebook per subspace."""
        points = as_float_matrix(points)
        n_codewords = self._set_geometry(points)
        rngs = spawn_rngs(self.seed, self.n_subspaces)
        codebooks = np.empty(
            (self.n_subspaces, n_codewords, self._sub_dim), dtype=np.float64
        )
        for s in range(self.n_subspaces):
            chunk = self._subvector(points, s)
            model = KMeans(
                n_codewords, max_iterations=self.kmeans_iterations, seed=rngs[s]
            )
            model.fit(chunk)
            codebooks[s] = model.centroids
        self.codebooks = codebooks
        return self

    def _set_geometry(self, points: np.ndarray) -> int:
        """Split ``points``' dimensions into the subspaces; the codebook size they allow."""
        dim = points.shape[1]
        if dim % self.n_subspaces != 0:
            raise ValidationError(
                f"dimensionality {dim} is not divisible by n_subspaces={self.n_subspaces}"
            )
        self._sub_dim = dim // self.n_subspaces
        return min(self.n_codewords, points.shape[0])

    def _require_fitted(self) -> None:
        if self.codebooks is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted yet")

    def _subvector(self, points: np.ndarray, subspace: int) -> np.ndarray:
        start = subspace * self._sub_dim
        return points[:, start : start + self._sub_dim]

    # ------------------------------------------------------------------ #
    def encode(self, points: np.ndarray) -> np.ndarray:
        """Quantize points to ``(n, n_subspaces)`` codeword indices."""
        self._require_fitted()
        points = as_float_matrix(points)
        codes = np.empty((points.shape[0], self.n_subspaces), dtype=np.int32)
        for s in range(self.n_subspaces):
            codes[:, s] = _squared_distances(self._subvector(points, s), self.codebooks[s]).argmin(axis=1)
        return codes

    # ------------------------------------------------------------------ #
    def distance_tables(self, queries: np.ndarray) -> np.ndarray:
        """Batched ADC lookup tables, one per query row.

        Shape ``(n_queries, n_subspaces, n_codewords)``: the approximate
        squared distance to an encoded point is the sum over subspaces of
        the entries its codes select.  One reshape
        replaces the per-query python loop that re-sliced every subspace:
        queries become a ``(q, n_subspaces, 1, sub_dim)`` view and a
        single einsum contracts the query-to-codeword differences over
        the sub-dimension — the whole batch in one vectorised pass.
        """
        self._require_fitted()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.n_subspaces * self._sub_dim:
            raise ValidationError("query dimensionality does not match the codec")
        sub_queries = queries.reshape(
            queries.shape[0], self.n_subspaces, 1, self._sub_dim
        )
        diff = self.codebooks[None, :, :, :] - sub_queries
        return np.einsum("qmks,qmks->qmk", diff, diff)
