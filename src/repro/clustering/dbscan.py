"""DBSCAN (Ester et al., 1996) — density-based clustering baseline.

Used in the paper's Table 5 comparison of clustering quality on the
moons/circles/classification toy datasets.  Points with at least
``min_samples`` neighbours within ``eps`` are core points; clusters are the
connected components of core points under the eps-neighbourhood relation,
with border points attached to a neighbouring core cluster and everything
else labelled noise (``-1``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..utils.distances import squared_euclidean
from ..utils.exceptions import NotFittedError
from ..utils.validation import as_float_matrix, check_positive_int

NOISE = -1


class DBSCAN:
    """Density-based spatial clustering of applications with noise."""

    def __init__(self, eps: float = 0.5, min_samples: int = 5) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self.min_samples = check_positive_int(min_samples, "min_samples")
        self.labels_: Optional[np.ndarray] = None

    def fit(self, points) -> "DBSCAN":
        """Cluster ``points``; noise points get the label ``-1``."""
        points = as_float_matrix(points)
        n = points.shape[0]
        eps_sq = self.eps**2
        # Neighbourhood lists via a blocked pairwise pass.
        neighborhoods = []
        block = 2048
        for start in range(0, n, block):
            dists = squared_euclidean(points[start : start + block], points)
            for row in dists:
                neighborhoods.append(np.where(row <= eps_sq)[0])
        core = np.array([len(nbrs) >= self.min_samples for nbrs in neighborhoods])

        labels = np.full(n, NOISE, dtype=np.int64)
        cluster_id = 0
        for i in range(n):
            if labels[i] != NOISE or not core[i]:
                continue
            # Breadth-first expansion of a new cluster from core point i.
            labels[i] = cluster_id
            queue = deque(neighborhoods[i])
            while queue:
                j = queue.popleft()
                if labels[j] == NOISE:
                    labels[j] = cluster_id
                    if core[j]:
                        queue.extend(neighborhoods[j])
            cluster_id += 1
        self.labels_ = labels
        return self

    def fit_predict(self, points) -> np.ndarray:
        """Cluster ``points`` and return the labels."""
        return self.fit(points).labels

    @property
    def labels(self) -> np.ndarray:
        if self.labels_ is None:
            raise NotFittedError("DBSCAN has not been fitted yet")
        return self.labels_
