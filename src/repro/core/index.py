"""The end-to-end USP index (Algorithms 1 and 2).

:class:`UspIndex` is the main entry point of the library: ``build`` runs the
offline phase (k'-NN matrix, model training with the unsupervised loss,
lookup table), ``query``/``batch_query`` run the online phase (model
inference, multi-probe candidate retrieval, exact re-ranking).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

import numpy as np

from ..api.protocol import IndexCapabilities
from ..api.registry import register_index
from ..utils.exceptions import NotFittedError
from ..utils.timing import Stopwatch
from ..utils.validation import as_float_matrix, as_query_matrix
from .base import PartitionIndexBase
from .config import UspConfig
from .knn_matrix import KnnMatrix, build_knn_matrix
from .models import PartitionModel, build_partition_model
from .trainer import TrainingHistory, UspTrainer


def _make_usp(config: Optional[UspConfig] = None, **params) -> "UspIndex":
    """Registry factory: ``make_index("usp", n_bins=16, ...)`` or ``config=``."""
    return UspIndex(config or UspConfig(**params))


@register_index(
    "usp",
    factory=_make_usp,
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter="n_probes",
        routed=True,
        trainable=True,
        reports_parameter_count=True,
        filterable=True,
    ),
    description="Unsupervised Space Partitioning index (the paper's contribution)",
)
class UspIndex(PartitionIndexBase):
    """Unsupervised Space Partitioning index (the paper's contribution).

    Example
    -------
    >>> from repro.core import UspIndex, UspConfig
    >>> from repro.datasets import sift_like
    >>> data = sift_like(n_points=2000, n_queries=10, dim=32)
    >>> index = UspIndex(UspConfig(n_bins=8, epochs=5))
    >>> index.build(data.base)                       # doctest: +ELLIPSIS
    <repro.core.index.UspIndex object at ...>
    >>> neighbours, dists = index.query(data.queries[0], k=10, n_probes=2)
    """

    def __init__(self, config: Optional[UspConfig] = None) -> None:
        super().__init__()
        self.config = config or UspConfig()
        self.metric = self.config.metric
        self.model: Optional[PartitionModel] = None
        self.history: Optional[TrainingHistory] = None
        self.knn: Optional[KnnMatrix] = None
        self.build_seconds: float = 0.0
        self._point_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def build(
        self,
        base: np.ndarray,
        *,
        knn: Optional[KnnMatrix] = None,
        point_weights: Optional[np.ndarray] = None,
    ) -> "UspIndex":
        """Run the offline phase on ``base`` (Algorithm 1).

        Parameters
        ----------
        base:
            ``(n, d)`` dataset to index.
        knn:
            Optionally a precomputed k'-NN matrix (it is the only expensive
            preprocessing step, so ensembles share one across members).
        point_weights:
            Optional per-point quality-cost weights (used by the ensemble).
        """
        base = as_float_matrix(base, name="base")
        stopwatch = Stopwatch()
        with stopwatch.section("build"):
            if knn is None:
                knn = build_knn_matrix(
                    base, self.config.k_prime, metric=self.config.metric
                )
            self.knn = knn
            trainer = UspTrainer(self.config)
            self.model, self.history = trainer.train(
                base, knn, point_weights=point_weights
            )
            assignments = self.model.predict_bins(base)
            self._finalize_build(base, assignments, self.config.n_bins)
        self.build_seconds = stopwatch.totals()["build"]
        self._point_weights = point_weights
        return self

    # ------------------------------------------------------------------ #
    # online phase
    # ------------------------------------------------------------------ #
    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        """Model bin probabilities ``M(q)`` for each query."""
        if self.model is None:
            raise NotFittedError("UspIndex has not been built yet")
        queries = as_query_matrix(queries, self.dim)
        return self.model.predict_proba(queries)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        """Learnable parameter count of the partition model (Table 2)."""
        if self.model is None:
            raise NotFittedError("UspIndex has not been built yet")
        return self.model.num_parameters()

    def training_seconds(self) -> float:
        """Wall-clock seconds spent in model training (Table 3)."""
        if self.history is None:
            raise NotFittedError("UspIndex has not been built yet")
        return self.history.seconds

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _extra_state(self):
        config = {"config": asdict(self.config), "build_seconds": self.build_seconds}
        arrays = {
            f"model.{key}": value for key, value in self.model.state_dict().items()
        }
        return config, arrays

    @classmethod
    def _restore(cls, config, arrays, load_child):
        usp_config = UspConfig(**config["config"])
        index = cls(usp_config)
        dim = int(arrays["__base__"].shape[1])
        model = build_partition_model(dim, usp_config)
        model.load_state_dict(
            {
                key[len("model.") :]: value
                for key, value in arrays.items()
                if key.startswith("model.")
            }
        )
        model.eval()
        index.model = model
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index
