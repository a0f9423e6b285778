"""Filtered vector search, end to end.

Run with:  python examples/filtered_search.py

Per-query predicates over per-id metadata — "price under 40", "only my
shop's documents", "has the sale tag" — threaded through every layer:
attribute store -> predicate -> planner strategy -> (sharded) index ->
serving cache.  See docs/architecture.md for the lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.api import make_index
from repro.datasets import sift_like
from repro.eval import filter_selectivity_curve
from repro.filter import (
    AttributeStore,
    Eq,
    FilterPlanner,
    In,
    Range,
    random_attribute_store,
)
from repro.service import QueryRequest, SearchService


def main() -> None:
    data = sift_like(n_points=4000, n_queries=128, dim=32, n_clusters=8, seed=7)

    # 1. Columnar metadata: one row per vector id.
    rng = np.random.default_rng(0)
    store = AttributeStore()
    store.add_numeric("price", rng.uniform(0.0, 100.0, size=data.n_points))
    store.add_categorical("shop", rng.choice(["acme", "bolt", "crate"], size=data.n_points))
    store.add_tags("labels", [
        (["sale"] if rng.random() < 0.2 else []) + (["new"] if rng.random() < 0.1 else [])
        for _ in range(data.n_points)
    ])

    # 2. Predicates compose with & | ~ and compile to boolean masks.
    cheap_acme = Eq("shop", "acme") & Range("price", high=40.0)
    on_sale = In("labels", ["sale", "new"])
    print(f"cheap acme selects {cheap_acme.selectivity(store):.1%} of ids, "
          f"sale/new selects {on_sale.selectivity(store):.1%}")

    # 3. Any filterable index: attach the store, pass filter=.
    index = make_index("kmeans", n_bins=32, seed=0).build(data.base)
    index.set_attributes(store)
    ids, dists = index.batch_query(data.queries, k=10, n_probes=8, filter=cheap_acme)
    mask = cheap_acme.mask(store)
    assert all(mask[i] for row in ids for i in row if i >= 0)
    print("every returned id satisfies the predicate: True")

    # The planner explains what will run for a given predicate:
    planner = FilterPlanner()
    for label, predicate in [("cheap acme", cheap_acme), ("sale/new", on_sale),
                             ("rare", Range("price", high=1.0))]:
        plan = planner.plan(index, predicate.mask(store), 10)
        print(f"  {label:>10}: strategy={plan.strategy:<10} "
              f"selectivity={plan.selectivity:.3f}")

    # 4. Sharded: the mask is sliced per shard and pushed below the exact
    # global merge, so filtered sharded-bruteforce is bitwise-identical
    # to brute force over the filtered subset.
    sharded = make_index("sharded-bruteforce", n_shards=4).build(data.base)
    sharded.set_attributes(store)
    s_ids, _ = sharded.batch_query(data.queries, k=10, filter=cheap_acme)
    exact = make_index("bruteforce").build(data.base)
    exact.set_attributes(store)
    e_ids, _ = exact.batch_query(data.queries, k=10, filter=cheap_acme)
    print(f"sharded == exact over filtered subset: {np.array_equal(s_ids, e_ids)}")

    # 5. Serving: the predicate fingerprint is part of the cache key.
    service = SearchService(exact, cache_size=4096)
    first = service.search_batch(data.queries, QueryRequest(k=10, filter=cheap_acme))
    repeat = service.search_batch(data.queries, QueryRequest(k=10, filter=cheap_acme))
    other = service.search_batch(data.queries, QueryRequest(k=10, filter=on_sale))
    print(f"cache hits — same predicate: {repeat.cache_hits}/{repeat.n_queries}, "
          f"different predicate: {other.cache_hits}/{other.n_queries}")
    assert first.cache_hits == 0 and other.cache_hits == 0

    # 6. Recall and throughput per selectivity (repro.eval.filter_selectivity_curve).
    points = filter_selectivity_curve(
        "kmeans",
        data,
        random_attribute_store(data.n_points, seed=11),
        [(f"sel={s}", Range("price", high=100.0 * s)) for s in (0.01, 0.1, 0.5, 1.0)],
        k=10,
        probes=8,
        index_params=dict(n_bins=32, seed=0),
    )
    print("\nselectivity sweep (kmeans):")
    for point in points:
        print(f"  {point.label:>9}  strategy={point.strategy:<10} "
              f"recall={point.recall:.3f}  qps={point.queries_per_second:,.0f}")


if __name__ == "__main__":
    main()
