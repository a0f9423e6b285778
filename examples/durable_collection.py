"""Durable collections: a kill-and-reopen walkthrough of ``repro.store``.

Run with:  python examples/durable_collection.py

The end-to-end durability story:

1. wrap a built sharded index (plus its attribute store) in a
   ``Collection`` — mutations are journaled to a checksummed write-ahead
   log and fsynced *before* they are acknowledged;
2. upsert under a ``MaintenanceLoop`` that checkpoints the log into
   atomic snapshot generations and compacts the index by its
   mutation-pressure gauges;
3. "kill" the process — simulated by abandoning the object with the WAL
   mid-stream and appending the torn half-record a real crash leaves —
   then ``Collection.open()`` and verify the recovered answers are
   bitwise-identical for every acknowledged operation;
4. serve the recovered collection through ``SearchService``: queries,
   durable mutations, and one stats surface for the WAL and pressure
   gauges.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.filter import Range, random_attribute_store
from repro.service import QueryRequest, SearchService
from repro.shard import ShardedIndex
from repro.store import Collection, MaintenanceLoop, wal_name


def main() -> None:
    rng = np.random.default_rng(7)
    base = rng.normal(size=(4000, 32))
    queries = rng.normal(size=(8, 32))
    root = Path(tempfile.mkdtemp(prefix="durable-collection-")) / "products"

    # 1. A mutable index + attribute store becomes a durable collection.
    index = ShardedIndex(4, compact_threshold=None).build(base)
    index.set_attributes(random_attribute_store(base.shape[0], seed=11))
    collection = Collection.create(root, index, name="products")
    print(f"created {collection!r}")

    # 2. A mutation stream with maintenance: every add/remove is on the
    #    log before the call returns; the loop folds the log into
    #    snapshot generations and compacts by pressure.
    loop = MaintenanceLoop(collection, checkpoint_ops=8, compact_pressure=0.04)
    for step in range(6):
        vectors = rng.normal(size=(40, 32))
        ids = collection.add(
            vectors,
            attributes={
                "price": rng.uniform(0, 100, size=40),
                "shop": [f"shop-{i % 8}" for i in range(40)],
                "labels": [["new"]] * 40,
            },
        )
        collection.remove(ids[::7])
        actions = loop.run_once()
        print(
            f"step {step}: last_seq={collection.last_seq} "
            f"wal_ops={collection.wal_ops} gen={collection.generation} "
            f"compacted={actions['compacted']} checkpointed={actions['checkpointed']}"
        )

    plain = collection.batch_query(queries, k=10)
    cheap = collection.batch_query(queries, k=10, filter=Range("price", high=30.0))

    # 3. Kill -9, simulated: no close(), and a torn half-record at the
    #    WAL tail exactly as a crash mid-append would leave it.
    with open(root / wal_name(collection.generation), "ab") as handle:
        handle.write(b"\x07\x03")
    del collection, index, loop

    recovered = Collection.open(root)
    print(f"recovered {recovered!r}")
    again_plain = recovered.batch_query(queries, k=10)
    again_cheap = recovered.batch_query(queries, k=10, filter=Range("price", high=30.0))
    assert np.array_equal(plain[0], again_plain[0])
    assert np.array_equal(plain[1], again_plain[1])
    assert np.array_equal(cheap[0], again_cheap[0])
    print("recovered answers are bitwise-identical (filtered and unfiltered)")

    # 4. Serve it: mutations journal through the collection, and stats()
    #    carries the WAL + mutation-pressure gauges operators watch.
    service = SearchService(recovered, cache_size=256)
    service.add(rng.normal(size=(4, 32)))
    # Those 4 vectors came ahead of their metadata; the store catches up, durably.
    recovered.set_attributes({"price": rng.uniform(0, 100, size=4), "shop": ["shop-0"] * 4, "labels": [[]] * 4})
    assert recovered.attributes.n_rows == recovered.index.total_rows
    result = service.search_batch(queries, QueryRequest(k=10, probes=4))
    stats = service.stats()
    print(
        f"served {result.ids.shape[0]} queries; "
        f"collection gauges: {stats['collection']}; "
        f"mutation gauges: {stats['mutation']}"
    )
    recovered.close()


if __name__ == "__main__":
    main()
