"""Data-oblivious LSH baseline: cross-polytope LSH (Andoni et al. 2015).

It represents the classical, distribution-independent space partitions the
paper compares against (and beats): it hashes points with a random
projection and therefore cannot adapt its bin boundaries to the data.

:class:`CrossPolytopeLshIndex` hashes a point to the index (and sign) of its
largest coordinate after a random rotation, giving ``2 * n_projections``
bins.  Multi-probe ranks bins by the signed coordinate values, which is the
natural probing sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..core.base import PartitionIndexBase
from ..utils.exceptions import ValidationError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int

_LSH_CAPABILITIES = IndexCapabilities(
    metrics=("euclidean", "sqeuclidean", "cosine"),
    probe_parameter="n_probes",
    routed=True,
    trainable=False,  # data-oblivious: random projections, no learning
    reports_parameter_count=True,
    filterable=True,
)


def _random_rotation(dim: int, target_dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random matrix with orthonormal columns mapping R^dim -> R^target_dim."""
    gaussian = rng.normal(size=(dim, target_dim))
    q, _ = np.linalg.qr(gaussian)
    return q[:, :target_dim]


@register_index(
    "cross-polytope-lsh",
    capabilities=_LSH_CAPABILITIES,
    description="Cross-polytope LSH partition (Andoni et al. 2015)",
)
class CrossPolytopeLshIndex(PartitionIndexBase):
    """Cross-polytope LSH partition with ``2 * n_projections`` bins.

    ``n_bins`` must be even; the data is centred (queries use the same
    shift) so the sign information is meaningful for unnormalised data.
    """

    _fitted = PartitionIndexBase._fitted + ("_rotation", "_center", "build_seconds")

    def __init__(self, n_bins: int = 16, *, seed: SeedLike = None) -> None:
        super().__init__()
        n_bins = check_positive_int(n_bins, "n_bins")
        if n_bins % 2 != 0:
            raise ValidationError(f"cross-polytope LSH needs an even n_bins, got {n_bins}")
        self.n_bins_requested = n_bins
        self.n_projections = n_bins // 2
        self._rng = resolve_rng(seed)
        self._rotation: Optional[np.ndarray] = None
        self._center: Optional[np.ndarray] = None
        self.build_seconds: float = 0.0

    def build(self, base: np.ndarray) -> "CrossPolytopeLshIndex":
        import time

        start = time.perf_counter()
        base = as_float_matrix(base, name="base")
        if self.n_projections > base.shape[1]:
            raise ValidationError(
                f"n_bins/2={self.n_projections} exceeds data dimension {base.shape[1]}"
            )
        self._center = base.mean(axis=0)
        self._rotation = _random_rotation(base.shape[1], self.n_projections, self._rng)
        assignments = self.bin_scores_raw(base).argmax(axis=1)
        self._finalize_build(base, assignments, self.n_bins_requested)
        self.build_seconds = time.perf_counter() - start
        return self

    def bin_scores_raw(self, points: np.ndarray) -> np.ndarray:
        """Signed projection magnitude for every (projection, sign) bin."""
        if self._rotation is None or self._center is None:
            raise ValidationError("index must be built before scoring")
        projected = (np.atleast_2d(points) - self._center) @ self._rotation
        # Bin 2j   <- +e_j direction, score = +projection_j
        # Bin 2j+1 <- -e_j direction, score = -projection_j
        scores = np.empty((projected.shape[0], 2 * self.n_projections), dtype=np.float64)
        scores[:, 0::2] = projected
        scores[:, 1::2] = -projected
        return scores

    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        return self.bin_scores_raw(queries)

    def num_parameters(self) -> int:
        """Stored parameters: the rotation matrix plus the centring vector."""
        self._require_built()
        return int(self._rotation.size + self._center.size)
