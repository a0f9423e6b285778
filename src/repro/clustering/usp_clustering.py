"""USP as a general-purpose clustering algorithm (Section 5.5).

The paper argues that the unsupervised partitioning loss is a viable
alternative to K-means / DBSCAN / spectral clustering: the partition model
trained on a dataset *is* a clustering of it.  This module wraps
:class:`~repro.core.index.UspIndex` behind the familiar
``fit`` / ``fit_predict`` / ``labels`` clustering interface so it can be
compared head-to-head with the baselines in :mod:`repro.clustering`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import UspConfig
from ..core.index import UspIndex
from ..utils.exceptions import NotFittedError
from ..utils.validation import as_float_matrix, check_positive_int


class UspClustering:
    """Cluster a dataset with an unsupervised space partitioning model.

    Parameters
    ----------
    n_clusters:
        Number of clusters (bins) to produce.
    config:
        Optional full :class:`UspConfig`; ``n_clusters`` overrides its
        ``n_bins``.  The defaults use a small MLP, which is what allows
        non-convex cluster boundaries (the advantage over K-means shown in
        the paper's Table 5).
    """

    def __init__(self, n_clusters: int, *, config: Optional[UspConfig] = None) -> None:
        n_clusters = check_positive_int(n_clusters, "n_clusters")
        base = config or UspConfig(
            epochs=60,
            hidden_dim=64,
            eta=10.0,
            k_prime=10,
            max_batch_size=512,
            learning_rate=3e-3,
        )
        self.config = base.with_updates(n_bins=n_clusters)
        self.index_: Optional[UspIndex] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, points) -> "UspClustering":
        """Train the partition model on ``points`` and store cluster labels."""
        points = as_float_matrix(points)
        k_prime = min(self.config.k_prime, points.shape[0] - 1)
        index = UspIndex(self.config.with_updates(k_prime=k_prime))
        index.build(points)
        self.index_ = index
        self.labels_ = index.assignments.copy()
        return self

    def fit_predict(self, points) -> np.ndarray:
        """Train on ``points`` and return their cluster labels."""
        return self.fit(points).labels

    @property
    def labels(self) -> np.ndarray:
        if self.labels_ is None:
            raise NotFittedError("UspClustering has not been fitted yet")
        return self.labels_
