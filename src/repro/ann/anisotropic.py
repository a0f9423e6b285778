"""Anisotropic (score-aware) vector quantization — the ScaNN codec.

ScaNN (Guo et al., ICML 2020) observes that for maximum-inner-product /
nearest-neighbour *ranking*, quantization error parallel to the datapoint
matters more than error orthogonal to it, because the parallel component is
what perturbs the score of the pairs that are close to the query.  Its
anisotropic loss therefore weights the parallel residual by ``eta > 1``:

    loss(x, c) = eta * ||r_parallel||^2 + ||r_orthogonal||^2

where ``r = x - c`` is decomposed relative to the direction of ``x``.

This module implements a product-quantized codec trained under that loss:
codeword *assignment* uses the anisotropic distortion, and the codebook
*update* solves the corresponding weighted least-squares problem
approximately by averaging (exact for the isotropic part; the anisotropic
correction primarily changes the assignment boundaries, which is where the
ranking benefit comes from).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.exceptions import NotFittedError, ValidationError
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, check_positive_int
from .pq import ProductQuantizer


def anisotropic_distortion(
    points: np.ndarray, reconstructions: np.ndarray, eta: float
) -> np.ndarray:
    """Per-point anisotropic loss between points and their reconstructions."""
    points = np.atleast_2d(points)
    reconstructions = np.atleast_2d(reconstructions)
    residual = points - reconstructions
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    directions = np.divide(points, norms, out=np.zeros_like(points), where=norms > 0)
    parallel_mag = np.einsum("ij,ij->i", residual, directions)
    parallel_sq = parallel_mag**2
    total_sq = np.einsum("ij,ij->i", residual, residual)
    orthogonal_sq = np.maximum(total_sq - parallel_sq, 0.0)
    return eta * parallel_sq + orthogonal_sq


class AnisotropicQuantizer:
    """Product quantizer trained with the anisotropic (score-aware) loss.

    Parameters
    ----------
    n_subspaces, n_codewords:
        Product-quantization geometry (as in :class:`ProductQuantizer`).
    eta:
        Weight of the parallel residual (ScaNN's anisotropic weight);
        ``eta = 1`` reduces to plain PQ.
    iterations:
        Alternating assignment/update iterations.
    """

    def __init__(
        self,
        n_subspaces: int = 8,
        n_codewords: int = 16,
        *,
        eta: float = 4.0,
        iterations: int = 10,
        seed: SeedLike = None,
    ) -> None:
        self.n_subspaces = check_positive_int(n_subspaces, "n_subspaces")
        self.n_codewords = check_positive_int(n_codewords, "n_codewords")
        if eta < 1.0:
            raise ValidationError(f"eta must be >= 1, got {eta}")
        self.eta = float(eta)
        self.iterations = check_positive_int(iterations, "iterations")
        self.seed = seed
        self.codebooks: Optional[np.ndarray] = None
        self._sub_dim: Optional[int] = None

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> "AnisotropicQuantizer":
        """Alternate anisotropic assignment and codebook refitting."""
        points = as_float_matrix(points)
        dim = points.shape[1]
        if dim % self.n_subspaces != 0:
            raise ValidationError(
                f"dimensionality {dim} is not divisible by n_subspaces={self.n_subspaces}"
            )
        self._sub_dim = dim // self.n_subspaces
        n_codewords = min(self.n_codewords, points.shape[0])

        # Warm start from a plain product quantizer.
        warm = ProductQuantizer(
            self.n_subspaces, n_codewords, kmeans_iterations=10, seed=self.seed
        ).fit(points)
        codebooks = warm.codebooks.copy()

        for _ in range(self.iterations):
            codes = self._assign(points, codebooks)
            codebooks = self._update(points, codes, codebooks)
        self.codebooks = codebooks
        return self

    def _require_fitted(self) -> None:
        if self.codebooks is None:
            raise NotFittedError("AnisotropicQuantizer has not been fitted yet")

    def _subvector(self, points: np.ndarray, subspace: int) -> np.ndarray:
        start = subspace * self._sub_dim
        return points[:, start : start + self._sub_dim]

    def _assign(self, points: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
        """Assign each sub-vector to the codeword minimising the anisotropic loss."""
        n = points.shape[0]
        codes = np.empty((n, self.n_subspaces), dtype=np.int32)
        for s in range(self.n_subspaces):
            chunk = self._subvector(points, s)
            cb = codebooks[s]
            residual_sq = (
                np.einsum("ij,ij->i", chunk, chunk)[:, None]
                - 2.0 * chunk @ cb.T
                + np.einsum("ij,ij->i", cb, cb)[None, :]
            )
            # Parallel component of the residual w.r.t. the sub-vector itself.
            norms = np.linalg.norm(chunk, axis=1, keepdims=True)
            directions = np.divide(
                chunk, norms, out=np.zeros_like(chunk), where=norms > 0
            )
            parallel = (
                np.einsum("ij,ij->i", chunk, directions)[:, None]
                - directions @ cb.T
            ) ** 2
            orthogonal = np.maximum(residual_sq - parallel, 0.0)
            loss = self.eta * parallel + orthogonal
            codes[:, s] = loss.argmin(axis=1)
        return codes

    def _update(
        self, points: np.ndarray, codes: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        """Refit every codeword as the mean of its assigned sub-vectors."""
        new_codebooks = codebooks.copy()
        for s in range(self.n_subspaces):
            chunk = self._subvector(points, s)
            assignment = codes[:, s]
            for c in range(codebooks.shape[1]):
                mask = assignment == c
                if mask.any():
                    new_codebooks[s, c] = chunk[mask].mean(axis=0)
        return new_codebooks

    # ------------------------------------------------------------------ #
    def encode(self, points: np.ndarray) -> np.ndarray:
        """Quantize points under the anisotropic assignment rule."""
        self._require_fitted()
        return self._assign(as_float_matrix(points), self.codebooks)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_fitted()
        codes = np.asarray(codes, dtype=np.int64)
        parts = [self.codebooks[s][codes[:, s]] for s in range(self.n_subspaces)]
        return np.concatenate(parts, axis=1)

    def adc_distances(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared Euclidean distances via ADC lookup tables."""
        self._require_fitted()
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        codes = np.asarray(codes, dtype=np.int64)
        total = np.zeros(codes.shape[0], dtype=np.float64)
        for s in range(self.n_subspaces):
            start = s * self._sub_dim
            sub_query = query[start : start + self._sub_dim]
            diff = self.codebooks[s] - sub_query
            table = np.einsum("ij,ij->i", diff, diff)
            total += table[codes[:, s]]
        return total

    def anisotropic_error(self, points: np.ndarray) -> float:
        """Mean anisotropic distortion of ``points`` under this codec."""
        points = as_float_matrix(points)
        reconstructed = self.decode(self.encode(points))
        return float(anisotropic_distortion(points, reconstructed, self.eta).mean())
