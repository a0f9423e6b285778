"""Serving over HTTP: a walkthrough of ``repro.net``.

Run with:  python examples/http_serving.py

The end-to-end network serving story:

1. wrap a durable ``Collection`` in a ``SearchServer`` — an
   asyncio HTTP/1.1 front-end over the same ``SearchService`` used
   in-process, started on a background thread with an ephemeral port;
2. query it over the wire (plain filters included) and verify the
   answers are bitwise-identical to calling the service directly;
3. mutate over HTTP — the 200 arrives only after the write-ahead log
   fsync, so a ``Collection.open()`` of the same directory sees it;
4. overload it on purpose: a burst beyond the admission queue is shed
   with typed 429s and a ``Retry-After`` estimate, while every accepted
   request still completes — no connection is ever dropped;
5. read the observability surfaces (``/stats``, Prometheus
   ``/metrics``, ``/readyz``) and drain: in-flight work finishes, new work gets 503,
   and the collection is checkpointed on the way down.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.filter import Eq, Range, random_attribute_store
from repro.net import SearchServer, ServerConfig, request_json
from repro.service import BatchResult, QueryRequest, QueryResult, SearchService
from repro.shard import ShardedIndex
from repro.store import Collection


def main() -> None:
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3000, 24)).astype(np.float32)
    queries = rng.normal(size=(6, 24)).astype(np.float32)

    # 1. A durable collection behind an HTTP server on a free port.
    index = ShardedIndex(4, compact_threshold=None).build(base)
    index.set_attributes(random_attribute_store(base.shape[0], seed=5))
    root = Path(tempfile.mkdtemp(prefix="http-serving-")) / "products"
    collection = Collection.create(root, index, name="products")
    service = SearchService(collection, cache_size=256)

    config = ServerConfig(port=0, max_concurrency=2, queue_limit=4)
    with SearchServer(service, config=config) as server:
        print(f"serving {collection.name!r} at {server.url}")

        # 2. The wire answers are the in-process answers, bitwise.
        request = QueryRequest(
            k=10, filter=Eq("shop", "shop-1") & Range("price", high=60.0)
        )
        status, wire = request_json(
            f"{server.url}/batch_query",
            method="POST",
            body={"vectors": queries.tolist(), "request": request.as_dict()},
        )
        local = service.search_batch(queries, request)
        assert status == 200
        remote = BatchResult.from_dict(wire)  # the client-side decoder of the wire shape
        assert np.array_equal(remote.ids, local.ids)
        assert np.array_equal(remote.distances, local.distances)
        print(f"filtered batch over HTTP == in-process ({local.ids.shape})")
        status, wire = request_json(
            f"{server.url}/query", method="POST",
            body={"vector": queries[0].tolist(), "request": request.as_dict()},
        )
        one = QueryResult.from_dict(wire)
        assert status == 200 and np.array_equal(one.ids, local.ids[0])

        # 3. Mutations acknowledge only after the WAL fsync.
        new_vectors = rng.normal(size=(32, 24)).astype(np.float32)
        status, ack = request_json(
            f"{server.url}/add",
            method="POST",
            body={
                "vectors": new_vectors.tolist(),
                "attributes": {
                    "price": rng.uniform(0, 100, size=32).tolist(),
                    "shop": [f"shop-{i % 8}" for i in range(32)],
                    "labels": [["new"]] * 32,
                },
            },
        )
        assert status == 200 and ack["count"] == 32
        print(f"added {ack['count']} vectors over HTTP (ids {ack['ids'][0]}..)")
        # Vectors may arrive ahead of their metadata; the rows follow later.
        status, late = request_json(
            f"{server.url}/add", method="POST", body={"vectors": new_vectors[:2].tolist()}
        )
        status, _ = request_json(
            f"{server.url}/extend_attributes",
            method="POST",
            body={"rows": {"price": [10.0, 20.0], "shop": ["shop-0", "shop-1"], "labels": [[], ["new"]]}},
        )
        assert status == 200 and collection.attributes.n_rows == collection.index.total_rows
        print(f"added {late['count']} more without metadata, then their attribute rows")

        # 4. A burst beyond the waiting room is shed, never dropped.
        results: list[int] = []

        def fire() -> None:
            code, _ = request_json(
                f"{server.url}/batch_query",
                method="POST",
                body={"vectors": queries.tolist(), "request": {"k": 10}},
            )
            results.append(code)

        threads = [threading.Thread(target=fire) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shed = sum(1 for code in results if code == 429)
        assert len(results) == 16 and set(results) <= {200, 429}
        print(f"burst of 16: {results.count(200)} served, {shed} shed with 429")

        # 5. Observability: one stats surface, Prometheus metrics.
        _, stats = request_json(f"{server.url}/stats")
        print(
            f"admitted={stats['server']['admitted_total']} "
            f"shed={stats['server']['shed_total']} "
            f"wal_ops={stats['services']['products']['collection']['wal_ops']}"
        )
        _, metrics = request_json(f"{server.url}/metrics")
        assert "repro_http_requests_total" in metrics
        # Readiness (what a load balancer polls): 200 while serving, 503 once draining.
        status, ready = request_json(f"{server.url}/readyz")
        assert status == 200 and ready["status"] == "ready"
        print(f"/readyz: {ready['status']}")

    # Leaving the context manager drained the server: in-flight work
    # finished, the listener closed, and the collection checkpointed.
    recovered = Collection.open(root)
    after = SearchService(recovered).search_batch(queries, QueryRequest(k=10))
    before = service.search_batch(queries, QueryRequest(k=10))
    assert np.array_equal(after.ids, before.ids)
    print(f"reopened {recovered!r}: answers match the served state")
    recovered.close()
    collection.close()


if __name__ == "__main__":
    main()
