"""Quickstart: build an unsupervised space partitioning (USP) index and query it.

Run with:  python examples/quickstart.py

This follows the paper's two phases end to end:
  * offline  — build the k'-NN matrix, train the partition model with the
               unsupervised loss, build the bin lookup table;
  * online   — route each query to its most probable bins, search only the
               candidate set, return the approximate k nearest neighbours.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import available_indexes, load_index, make_index
from repro.core import UspConfig, UspIndex
from repro.datasets import available_datasets, from_fvecs, load_dataset, write_fvecs, write_ivecs
from repro.eval import candidate_stats, knn_accuracy
from repro.filter import Eq, Range, random_attribute_store
from repro.service import QueryRequest, SearchService


def main() -> None:
    # 1. A SIFT-like benchmark dataset: a synthetic stand-in with SIFT's
    #    structure (see docs/benchmarks.md), one of available_datasets().
    data = load_dataset("sift-like", n_points=5000, n_queries=200, dim=64, n_clusters=12, seed=7)
    print(f"dataset: {data.name} (of {', '.join(available_datasets())})  "
          f"base={data.base.shape}  queries={data.queries.shape}")

    # The real SIFT1M ships as .fvecs (vectors) and .ivecs (ground truth);
    # from_fvecs reads that format.  Round trip the stand-in through it:
    with tempfile.TemporaryDirectory() as tmp:
        write_fvecs(f"{tmp}/base.fvecs", data.base)
        write_fvecs(f"{tmp}/query.fvecs", data.queries)
        write_ivecs(f"{tmp}/groundtruth.ivecs", data.ground_truth)
        on_disk = from_fvecs("sift-like", f"{tmp}/base.fvecs", f"{tmp}/query.fvecs", f"{tmp}/groundtruth.ivecs")
        assert np.array_equal(on_disk.ground_truth, data.ground_truth)
        print(f".fvecs/.ivecs round trip: base {on_disk.base.shape}, same ground truth: True")

    # 2. Offline phase: train the partition (Algorithm 1).
    config = UspConfig(
        n_bins=16,       # m — number of bins
        k_prime=10,      # k' — neighbours in the k'-NN matrix
        eta=30.0,        # balance weight in the loss U(R) + eta * S(R)
        epochs=25,
        hidden_dim=128,
        seed=0,
    )
    index = UspIndex(config).build(data.base)
    print(f"trained in {index.training_seconds():.1f}s, "
          f"{index.num_parameters()} parameters, bin sizes: {index.bin_sizes().tolist()}")

    # 3. Online phase: answer queries with increasing probe counts (Algorithm 2).
    #    |C| is the rows of the probed bins: bin arithmetic, no id lists.
    print(f"\n{'probes':>6} {'avg |C|':>9} {'10-NN accuracy':>15}")
    for n_probes in (1, 2, 4, 8, 16):
        size, _ = candidate_stats(index, data.queries, data.ground_truth, 10, n_probes)
        retrieved, _ = index.batch_query(data.queries, k=10, n_probes=n_probes)
        accuracy = knn_accuracy(retrieved, data.ground_truth, 10)
        print(f"{n_probes:>6} {size:>9.0f} {accuracy:>15.3f}")

    # 4. A single query, the way an application would issue it.
    query = data.queries[0]
    neighbours, distances = index.query(query, k=5, n_probes=2)
    print("\nnearest neighbours of query 0:", neighbours.tolist())
    print("distances:", np.round(distances, 2).tolist())

    # ------------------------------------------------------------------ #
    # Choosing an index
    # ------------------------------------------------------------------ #
    # Every back-end in the library — USP, the baselines it is compared
    # against, and the full ANN pipelines — is one registry key away:
    #
    #   "usp" / "usp-ensemble" / "usp-hierarchical"   the paper's method
    #   "kmeans", "neural-lsh", "cross-polytope-lsh"  Figure 5 baselines
    #   "pca-tree", "rp-tree", "two-means-tree", ...  Figure 6 trees
    #   "hnsw", "ivf-pq", "scann", "usp-scann", ...   Figure 7 pipelines
    #   "bruteforce"                                  the exact gold standard
    #
    # Pick "usp" for the best accuracy-per-candidate trade-off, "kmeans"
    # for the cheapest decent partition, "hnsw" when query latency matters
    # more than memory, and "usp-scann" for the paper's fastest pipeline.
    print("\navailable indexes:", ", ".join(available_indexes()))

    kmeans = make_index("kmeans", n_bins=16, seed=0).build(data.base)
    retrieved, _ = kmeans.batch_query(data.queries, k=10, n_probes=2)
    print(f"kmeans via registry: accuracy={knn_accuracy(retrieved, data.ground_truth, 10):.3f}")

    # Built indexes survive process restarts: save() writes a directory of
    # JSON config + npz arrays, load_index() restores an identical index,
    # the trained USP model included.
    with tempfile.TemporaryDirectory() as tmp:
        for name, built in (("kmeans", kmeans), ("usp", index)):
            path = Path(tmp) / f"{name}-index"
            built.save(path)
            reloaded = load_index(path)
            before, _ = built.batch_query(data.queries, k=10, n_probes=2)
            again, _ = reloaded.batch_query(data.queries, k=10, n_probes=2)
            assert np.array_equal(before, again)
            print(f"saved to {path.name}, reloaded, identical results: True")

    # ------------------------------------------------------------------ #
    # Serving queries
    # ------------------------------------------------------------------ #
    # Applications do not call batch_query by hand: they wrap the index in
    # a SearchService, which owns micro-batching, an optional LRU result
    # cache, and per-service latency/throughput/recall counters.
    # Requests are QueryRequest objects; `probes` is translated to the
    # right knob for any back-end (n_probes for partition/IVF methods,
    # ef for HNSW).  On a back-end with no probe knob (exact brute force)
    # the setting is not silently dropped: the capabilities layer warns
    # once per index kind so you learn the accuracy/cost dial is a no-op
    # there.
    service = SearchService(index, cache_size=1024)
    request = QueryRequest(k=10, probes=2)
    result = service.search_batch(data.queries, request, ground_truth=data.ground_truth)
    print(f"\nserved {result.n_queries} queries at {result.queries_per_second:,.0f} q/s "
          f"(recall={result.recall:.3f})")

    # A repeated batch is answered from the cache; a single query works too.
    cached = service.search_batch(data.queries, request)
    one = service.search(data.queries[0], request)
    print(f"repeat batch cache hits: {cached.cache_hits}/{cached.n_queries}; "
          f"single query -> {one.ids[:3].tolist()}...")

    # Instead of a probe count, a request may carry a candidate budget and
    # let the service plan the probes that fit it.
    budgeted = service.search_batch(data.queries, QueryRequest(k=10, candidate_budget=1000))
    print(f"budget of 1000 candidates -> planned n_probes={service.plan_probes(1000)}, "
          f"recall {knn_accuracy(budgeted.ids, data.ground_truth, 10):.3f}")

    stats = service.stats()
    print(f"service stats: {stats['queries']} queries, "
          f"{stats['queries_per_second']:,.0f} q/s lifetime, "
          f"p95 latency {stats['p95_latency_ms']:.3f} ms/query")
    # Multi-index deployments (several datasets, several index configs)
    # live behind repro.service.Router — see examples/serving_router.py.

    # ------------------------------------------------------------------ #
    # Scaling out
    # ------------------------------------------------------------------ #
    # One monolithic build stops scaling at some dataset size.  A
    # ShardedIndex spreads the same logical index over N child indexes
    # (any registered backend, mixed backends allowed): a partitioner
    # assigns base vectors to shards, the offline phase builds each
    # shard, and queries scatter-gather with an exact global top-k
    # merge — sharded bruteforce returns exactly what a single
    # bruteforce index would.
    sharded = make_index("sharded", n_shards=4, spec="kmeans",
                         shard_params=dict(n_bins=8, seed=0),
                         partitioner="kmeans").build(data.base)
    retrieved, _ = sharded.batch_query(data.queries, k=10, probes=4)
    print(f"\nsharded kmeans ({sharded.n_shards} shards, built in "
          f"{sharded.build_seconds:.2f}s): accuracy="
          f"{knn_accuracy(retrieved, data.ground_truth, 10):.3f}")

    # Sharded indexes are also *mutable*: add() serves new vectors
    # immediately from an exactly-scanned pending buffer, remove()
    # tombstones ids, and compact() folds both into rebuilt shards.
    new_ids = sharded.add(data.queries[:3])
    sharded.remove(new_ids[:1])
    sharded.compact()
    print(f"after add/remove/compact: {sharded.n_points} live vectors, "
          f"version={sharded.version}")
    # End-to-end sharded serving (Router, persistence) is in
    # examples/sharded_serving.py; tests/test_shard.py pins the exact merge.

    # ------------------------------------------------------------------ #
    # Filtered search
    # ------------------------------------------------------------------ #
    # Real queries carry predicates ("price < 40", "only shop-0").
    # Attach columnar per-id metadata to any index and pass a composable
    # predicate as filter= — every returned id satisfies it, on every
    # back-end, and the FilterPlanner picks the cheapest strategy for
    # the predicate's selectivity (see docs/architecture.md).
    attributes = random_attribute_store(data.base.shape[0], seed=0)
    sharded.set_attributes(attributes)  # rows added above match nothing yet
    predicate = Eq("shop", "shop-0") & Range("price", high=40.0)
    filtered, _ = sharded.batch_query(data.queries, k=10, filter=predicate)
    allowed = predicate.mask(attributes)
    print(f"\nfiltered search: predicate selects {allowed.mean():.0%} of ids; "
          f"all results satisfy it: "
          f"{bool(allowed[filtered[filtered >= 0]].all())}")
    # Through the serving layer the predicate also keys the result cache,
    # so the same vector under a different filter can never hit a stale
    # answer — see examples/filtered_search.py for the full tour.


if __name__ == "__main__":
    main()
