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
ranking benefit comes from).  The codebooks have plain PQ's shape, so
the ADC lookup tables are :class:`ProductQuantizer`'s.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, check_positive_int
from .pq import ProductQuantizer, _squared_distances


class AnisotropicQuantizer(ProductQuantizer):
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
        super().__init__(n_subspaces, n_codewords, seed=seed)
        if eta < 1.0:
            raise ValidationError(f"eta must be >= 1, got {eta}")
        self.eta = float(eta)
        self.iterations = check_positive_int(iterations, "iterations")

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> "AnisotropicQuantizer":
        """Alternate anisotropic assignment and codebook refitting."""
        points = as_float_matrix(points)
        n_codewords = self._set_geometry(points)

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

    def _assign(self, points: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
        """Assign each sub-vector to the codeword minimising the anisotropic loss."""
        n = points.shape[0]
        codes = np.empty((n, self.n_subspaces), dtype=np.int32)
        for s in range(self.n_subspaces):
            chunk = self._subvector(points, s)
            cb = codebooks[s]
            residual_sq = _squared_distances(chunk, cb)
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
