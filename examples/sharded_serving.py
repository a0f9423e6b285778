"""Sharded serving: build a composite index, mutate it, serve it through a Router.

Run with:  python examples/sharded_serving.py

The end-to-end scaling story of ``repro.shard``:

1. build a ``ShardedIndex`` (a partitioner assigns vectors to shards,
   each shard is its own registered backend);
2. mutate the live deployment — ``add`` new vectors, ``remove`` ids,
   ``compact`` — while every query keeps answering exactly;
3. host it behind a ``Router`` next to an exact single-node tier, save
   the whole deployment (a directory of shard artifacts plus manifests),
   and restore it bitwise-identically.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import make_index
from repro.datasets import sift_like
from repro.eval import knn_accuracy
from repro.service import QueryRequest, Router
from repro.shard import ShardedIndex


def main() -> None:
    data = sift_like(n_points=8000, n_queries=200, dim=64, n_clusters=12, seed=7)
    print(f"dataset: base={data.base.shape} queries={data.queries.shape}")

    # 1. Shard build: four IVF shards, kmeans-routed so each
    #    shard owns a spatially coherent region of the dataset.
    sharded = ShardedIndex(
        4,
        spec="ivf-flat",
        shard_params=dict(n_lists=16, seed=0),
        partitioner="kmeans",
        compact_threshold=0.25,
    ).build(data.base)
    print(f"build {sharded.build_seconds:.2f}s, "
          f"shard sizes {sharded.shard_sizes().tolist()}")

    retrieved, _ = sharded.batch_query(data.queries, k=10, probes=4)
    print(f"scatter-gather accuracy @ probes=4: "
          f"{knn_accuracy(retrieved, data.ground_truth, 10):.3f}")

    # 2. Mutate the live index: new vectors answer immediately (served
    #    exactly from the pending buffer), removed ids vanish at once,
    #    and compact() folds both into freshly rebuilt shards.
    rng = np.random.default_rng(0)
    fresh = data.base[:50] + rng.normal(scale=0.01, size=(50, data.dim))
    added = sharded.add(fresh)
    victims, _ = sharded.query(data.queries[0], k=3)
    sharded.remove(victims)
    print(f"after add/remove: {sharded.n_points} live vectors, "
          f"{sharded.n_pending} pending, {sharded.n_tombstones} tombstones")
    sharded.compact()
    print(f"after compact: pending={sharded.n_pending}, "
          f"tombstones={sharded.n_tombstones}, version={sharded.version}")
    hit, _ = sharded.query(fresh[0], k=1)
    print(f"added vector {added[0]} found as its own nearest neighbour: "
          f"{int(hit[0]) == int(added[0])}")

    # 3. Serve through a Router next to an exact tier; the sharded
    #    service is dispatched transparently (probes is translated per
    #    shard), and capability routing can target the mutable tier.
    router = Router()
    router.add_index(
        "sharded", sharded,
        default_request=QueryRequest(k=10, probes=4), cache_size=1024,
    )
    router.add_index("exact", make_index("bruteforce").build(data.base))
    batch = router.search_batch(data.queries, name="sharded")
    print(f"\nrouter served {batch.n_queries} queries at "
          f"{batch.queries_per_second:,.0f} q/s from "
          f"{router.route(mutable=True).name!r}")
    stats = router.stats()["services"]["sharded"]["index"]
    print(f"per-shard points: "
          f"{[s['n_points'] for s in stats['shards']]}")

    # 4. The whole deployment round-trips through save/load: each shard
    #    is its own PR 1 index artifact under the router directory.
    with tempfile.TemporaryDirectory() as tmp:
        deployment = Path(tmp) / "deployment"
        router.save(deployment)
        artifacts = sorted(
            str(p.relative_to(deployment))
            for p in deployment.rglob("index.json")
        )
        print(f"\nsaved artifacts: {artifacts}")
        restored = Router.load(deployment)
        again = restored.search_batch(data.queries, name="sharded")
        identical = np.array_equal(batch.ids, again.ids)
        print(f"restored deployment serves identical results: {identical}")


if __name__ == "__main__":
    main()
