"""Replicated serving: a walkthrough of ``repro.replica``.

Run with:  python examples/replicated_serving.py

The end-to-end replication story:

1. wrap a durable ``Collection`` in a ``Primary`` and bootstrap a
   ``Follower`` from its snapshot bundle — the follower owns a
   read-only copy in its *own* directory, governed by the same WAL
   rules as the primary's;
2. ship the write-ahead log over HTTP: a ``SearchServer`` constructed
   with ``replication=primary`` grows a ``/replicate`` endpoint, and a
   ``ReplicationLoop`` tails it on a background thread through an
   ``HttpReplicationSource``;
3. checkpoint the primary past a lagging follower — the next poll gets
   a typed 409 ``bootstrap_required`` and the follower re-clones
   automatically (loud in ``resyncs``, invisible to correctness);
4. serve the pair as one ``ReplicaGroup``: reads round-robin to the
   follower, writes journal through the primary, and a ``SessionToken``
   guarantees read-your-writes within a bounded staleness budget;
5. fail over: kill the primary mid-stream, ``attach`` + ``promote`` the
   follower's directory, and verify the survivor answers at exactly the
   acknowledged sequence — then keeps taking writes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.filter import Range, random_attribute_store
from repro.net import SearchServer, ServerConfig
from repro.replica import (
    Follower,
    HttpReplicationSource,
    Primary,
    ReplicaGroup,
    ReplicationLoop,
    SessionToken,
)
from repro.service import QueryRequest
from repro.shard import ShardedIndex
from repro.store import Collection


def main() -> None:
    rng = np.random.default_rng(7)
    base = rng.normal(size=(2000, 24)).astype(np.float32)
    queries = rng.normal(size=(6, 24)).astype(np.float32)

    def rows(n: int) -> dict:
        return {
            "price": rng.uniform(0, 100, size=n).tolist(),
            "shop": [f"shop-{i % 8}" for i in range(n)],
            "labels": [["shipped"]] * n,
        }

    # 1. A primary collection and a follower bootstrapped from it.
    index = ShardedIndex(4, compact_threshold=None).build(base)
    index.set_attributes(random_attribute_store(base.shape[0], seed=5))
    root = Path(tempfile.mkdtemp(prefix="replicated-serving-"))
    collection = Collection.create(root / "primary", index, name="products")
    primary = Primary(collection)

    # 2. Ship the WAL over HTTP: /replicate appears when the server is
    # given the primary, and a ReplicationLoop tails it continuously.
    config = ServerConfig(port=0)
    with SearchServer(collection, replication=primary, config=config) as server:
        print(f"primary serving at {server.url} (with /replicate)")
        source = HttpReplicationSource.from_url(server.url)
        follower = Follower.bootstrap(root / "replica", source)
        print(f"bootstrapped {follower!r}")

        with ReplicationLoop(follower, interval_seconds=0.002):
            collection.add(rng.normal(size=(64, 24)).astype(np.float32),
                           attributes=rows(64))
            while follower.last_applied_seq < collection.last_seq:
                pass  # the loop is applying records on its own thread
        assert follower.last_applied_seq == collection.last_seq
        print(f"loop caught up: follower at seq {follower.last_applied_seq}")

        # 3. Checkpoint past a lagging follower: records the follower
        # still needs fold into the snapshot, so its next poll raises a
        # typed 409 and sync() re-clones from the bootstrap bundle.
        collection.add(rng.normal(size=(32, 24)).astype(np.float32),
                       attributes=rows(32))
        collection.checkpoint(force=True)
        follower.sync()
        stats = follower.stats()
        assert stats["resyncs"] == 1 and follower.lag == 0
        print(f"checkpoint forced a resync (resyncs={stats['resyncs']})")

    # 4. One service-shaped front over the pair: session reads are
    # answered by a copy at or past the client's own writes.
    follower = Follower.attach(root / "replica", primary)
    group = ReplicaGroup(primary, [follower], name="products")
    session = SessionToken()
    group.add(rng.normal(size=(8, 24)).astype(np.float32),
              attributes=rows(8), session=session)
    request = QueryRequest(k=10, filter=Range("price", high=60.0))
    result = group.search_batch(queries, request, session=session)
    local = primary.collection.batch_query(queries, k=10,
                                           filter=Range("price", high=60.0))
    assert np.array_equal(result.ids, local[0])
    assert group.reads_follower == 1
    print(f"session read served by the follower, bitwise-equal "
          f"(waits={group.session_waits}, redirects={group.session_redirects})")
    # The token is plain data a client carries between requests (as JSON
    # over HTTP); the group's stats hold the primary's and each follower's.
    session = SessionToken.from_dict(session.as_dict())
    group.sync_all()
    stats = group.stats()
    assert group.max_lag() == 0 and stats["replication"]["primary"]["last_seq"] == session.last_seen_seq
    print(f"after sync_all: max lag {group.max_lag()}, primary at seq "
          f"{stats['replication']['primary']['last_seq']}, token at {session.last_seen_seq}")

    # 5. Failover: the primary dies; the follower's directory promotes
    # to a writable collection at exactly the acknowledged sequence.
    acked = follower.last_applied_seq
    collection.close()
    follower.collection.close()
    promoted = Follower.attach(root / "replica", primary).promote()
    assert promoted.last_seq == acked
    assert promoted.batch_query(queries, k=10)[0].shape == (6, 10)
    promoted.add(rng.normal(size=(4, 24)).astype(np.float32),
                 attributes=rows(4))
    assert promoted.last_seq == acked + 1
    print(f"promoted {promoted!r} at acked seq {acked}; survivor takes writes")
    promoted.close()


if __name__ == "__main__":
    main()
