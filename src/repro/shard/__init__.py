"""Sharded, mutable composite indexes behind the unified :class:`~repro.api.AnnIndex` protocol.

One logical index, N child shards (any registered backend, mixed
backends allowed):

* :class:`ShardedIndex` — shard-by-shard builds, scatter-gather queries
  with an exact global top-k merge, post-build ``add`` / ``remove`` /
  ``compact`` mutation, and persistence as a directory of shard
  artifacts plus a manifest;
* :class:`Partitioner` strategies — :class:`RoundRobinPartitioner`,
  :class:`ContiguousPartitioner`, :class:`KMeansRoutePartitioner` —
  assigning base vectors to shards and routing later additions.

Registered under ``sharded`` (plus the ``sharded-bruteforce`` /
``sharded-sq8`` configurations), so the usual surface applies end to
end::

    index = make_index("sharded", n_shards=4, spec="kmeans",
                       shard_params={"n_bins": 16, "seed": 0}).build(base)
    service = SearchService(index)          # serves shards transparently
    index.add(new_vectors); index.remove([3, 7]); index.compact()
"""

from .partitioner import (
    ContiguousPartitioner,
    KMeansRoutePartitioner,
    Partitioner,
    RoundRobinPartitioner,
    available_partitioners,
    make_partitioner,
)
from .sharded import ShardedIndex

__all__ = [
    "ContiguousPartitioner",
    "KMeansRoutePartitioner",
    "Partitioner",
    "RoundRobinPartitioner",
    "available_partitioners",
    "make_partitioner",
    "ShardedIndex",
]
