"""Partitioning strategies assigning base vectors to shards.

A :class:`Partitioner` answers two questions for a
:class:`~repro.shard.ShardedIndex`:

* ``partition(base, n_shards)`` — which shard does each vector of the
  offline build belong to?
* ``route(vectors, n_shards, shard_sizes)`` — which shard should a vector
  added *after* the build land in when the deployment next compacts?

``round-robin`` is data-independent (uniform load, zero training cost);
``kmeans`` clusters the base so each shard holds a spatially coherent
region — queries then concentrate their true neighbours in few shards,
which is the locality that distributed designs like SafarDB exploit.
Both are dataclasses of what they learn, so they save inside the
sharded index's manifest like any other value.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Dict, Optional

import numpy as np

from ..baselines.kmeans import KMeans
from ..utils.distances import squared_euclidean
from ..utils.exceptions import ConfigurationError, ValidationError
from ..utils.rng import SeedLike
from ..utils.validation import as_float_matrix, check_positive_int


class Partitioner:
    """Base class: assigns build vectors and routes later additions."""

    #: the name ``make_partitioner`` resolves to this class
    name: str = ""

    def partition(self, base: np.ndarray, n_shards: int) -> np.ndarray:
        """Shard label in ``[0, n_shards)`` for each row of ``base``."""
        raise NotImplementedError

    def route(
        self,
        vectors: np.ndarray,
        n_shards: int,
        shard_sizes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Shard label for vectors added after the build (compact routing)."""
        raise NotImplementedError


@dataclass
class RoundRobinPartitioner(Partitioner):
    """Deal vectors to shards like cards: ``row % n_shards``.

    Perfectly balanced and training-free; routing continues the deal from
    the persistent cursor ``start`` (the shard the next vector is dealt
    to), so repeated ``add`` calls stay balanced too.
    """

    start: int = 0
    name = "round-robin"

    def partition(self, base: np.ndarray, n_shards: int) -> np.ndarray:
        return self.route(as_float_matrix(base, name="base"), n_shards)

    def route(self, vectors, n_shards, shard_sizes=None) -> np.ndarray:
        n = np.atleast_2d(np.asarray(vectors)).shape[0]
        labels = (np.arange(n, dtype=np.int64) + self.start) % n_shards
        self.start = int((self.start + n) % n_shards)
        return labels


@dataclass(eq=False)
class KMeansRoutePartitioner(Partitioner):
    """Cluster the base with K-means; route every vector to its nearest centroid.

    Shards become spatially coherent regions, so a query's true
    neighbours concentrate in few shards and later additions land next to
    the points they are close to.  ``centroids`` are what
    :meth:`partition` learns.
    """

    _: KW_ONLY
    max_iterations: int = 25
    seed: SeedLike = None
    centroids: Optional[np.ndarray] = field(default=None, repr=False)
    name = "kmeans"

    def __post_init__(self) -> None:
        self.max_iterations = check_positive_int(self.max_iterations, "max_iterations")

    def partition(self, base: np.ndarray, n_shards: int) -> np.ndarray:
        base = as_float_matrix(base, name="base")
        clusterer = KMeans(
            min(n_shards, base.shape[0]),
            max_iterations=self.max_iterations,
            seed=self.seed,
        ).fit(base)
        self.centroids = clusterer.centroids
        return np.asarray(clusterer.labels, dtype=np.int64)

    def route(self, vectors, n_shards, shard_sizes=None) -> np.ndarray:
        if self.centroids is None:
            raise ValidationError(
                "KMeansRoutePartitioner cannot route before partition() learned centroids"
            )
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        distances = squared_euclidean(vectors, self.centroids)
        return np.argmin(distances, axis=1).astype(np.int64)


_PARTITIONERS: Dict[str, type] = {
    RoundRobinPartitioner.name: RoundRobinPartitioner,
    KMeansRoutePartitioner.name: KMeansRoutePartitioner,
}


def make_partitioner(spec, **params) -> Partitioner:
    """Resolve a partitioner name (or pass an instance through)."""
    if isinstance(spec, Partitioner):
        if params:
            raise ConfigurationError(
                "partitioner params are only valid with a partitioner name"
            )
        return spec
    try:
        cls = _PARTITIONERS[str(spec)]
    except KeyError:
        known = ", ".join(sorted(_PARTITIONERS))
        raise ConfigurationError(
            f"unknown partitioner {spec!r}; available partitioners: {known}"
        ) from None
    return cls(**params)
