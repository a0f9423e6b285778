"""Multi-tenant serving: a walkthrough of ``repro.tenant``.

Run with:  python examples/multi_tenant_serving.py

One shared namespace, many tenants, none of them able to observe or
starve the others:

1. build a ``TenantRegistry`` over a shared namespace and provision
   tenants with declarative ``TenantConfig``s — ACL predicate, QPS
   token bucket, vector cap, cache weight;
2. show ACL injection: the same query through two tenants' gateways
   returns disjoint, ACL-respecting id sets, and a user filter is
   AND-ed with the ACL rather than replacing it;
3. write through a gateway against the tenant's vector cap, exhaust a
   query quota and read the typed denial, including the refill-derived
   retry hint;
4. run the cross-tenant ``FairScheduler``: a flooding tenant's backlog
   does not delay a neighbour's small burst, and same-shaped queries
   coalesce into single batch calls with bitwise-identical answers;
5. serve it all over HTTP with the ``X-Tenant`` header — typed 404 for
   unknown tenants, 429 ``quota_exceeded`` distinct from admission
   sheds, which a client ``RetryPolicy`` waits out, per-tenant
   ``repro_tenant_*`` series on ``/metrics``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.filter import AttributeStore, Eq, Range
from repro.net import AsyncHttpClient, RetryPolicy, SearchServer, ServerConfig, request_json
from repro.service import SearchService
from repro.shard import ShardedIndex
from repro.tenant import TenantConfig, TenantRegistry
from repro.utils.exceptions import QuotaExceededError


def main() -> None:
    rng = np.random.default_rng(11)
    n, dim = 2000, 24
    base = rng.normal(size=(n, dim)).astype(np.float32)
    queries = rng.normal(size=(8, dim)).astype(np.float32)

    # 1. One shared namespace; tenants only ever see it through gateways.
    index = ShardedIndex(2, compact_threshold=None).build(base)
    store = AttributeStore()
    store.add_categorical("owner", rng.choice(["acme", "globex"], size=n))
    store.add_numeric("score", rng.uniform(size=n))
    index.set_attributes(store)

    registry = TenantRegistry(cache_budget_bytes=1 << 20)
    registry.add_namespace("products", SearchService(index, cache_size=128))
    registry.create_tenant(
        "acme",
        "products",
        TenantConfig(acl=Eq("owner", "acme"), qps=1e6, cache_weight=4.0, max_vectors=16),
    )
    registry.create_tenant(
        "globex",
        "products",
        TenantConfig(acl=Eq("owner", "globex"), qps=2.0, qps_burst=4.0),
    )
    print(f"provisioned {len(registry)} tenants on one namespace")

    # 2. ACL injection: same query, disjoint tenant views.
    acme, globex = registry.gateway("acme"), registry.gateway("globex")
    acme_ids = acme.search(queries[0], k=5).ids
    globex_ids = globex.search(queries[0], k=5).ids
    acme_rows = set(np.flatnonzero(Eq("owner", "acme").mask(store)).tolist())
    assert set(acme_ids.tolist()) <= acme_rows
    assert set(globex_ids.tolist()).isdisjoint(acme_rows)
    print(f"same query, tenant views: acme {acme_ids[:3]}.. globex {globex_ids[:3]}..")

    # A user filter narrows the tenant's view; it can never widen it.
    narrowed = acme.search(queries[0], k=5, filter=Range("score", high=0.3))
    assert set(narrowed.ids[narrowed.ids >= 0].tolist()) <= acme_rows

    # Writes go through the gateway too: adds count against the tenant's
    # vector cap, and removes give the room back.
    def rows(count: int) -> dict:
        return {"owner": ["acme"] * count, "score": rng.uniform(size=count).tolist()}

    added = acme.add(rng.normal(size=(10, dim)).astype(np.float32), attributes=rows(10))
    try:
        acme.add(rng.normal(size=(7, dim)).astype(np.float32), attributes=rows(7))
        raise AssertionError("the vector cap should refuse 10 + 7 > 16")
    except QuotaExceededError as denial:
        print(f"acme added {len(added)} vectors; 7 more refused: resource={denial.resource}")
    assert acme.remove(added) == len(added) and acme.vectors_used == 0

    # 3. Quotas are typed, with a retry hint derived from the refill rate.
    served = 0
    while True:  # burn what is left of globex's burst of 4
        try:
            globex.search(queries[1], k=3)
            served += 1
        except QuotaExceededError as denial:
            print(
                f"globex over quota after {served} more queries: "
                f"resource={denial.resource} "
                f"retry_after={denial.retry_after_seconds:.2f}s"
            )
            break
    assert globex.stats()["quota_denials"] == 1

    # 4. Fair scheduling: a flood from acme cannot delay a neighbour.
    # (globex's bucket is empty — submit-time charging would refuse it —
    # so provision a third tenant to play the victim.)
    registry.create_tenant(
        "initech", "products", TenantConfig(acl=Eq("owner", "globex"))
    )
    scheduler = registry.scheduler
    flood = [registry.submit("acme", queries, k=5) for _ in range(20)]
    victim = registry.submit("initech", queries[:1], k=5)
    scheduler.run_round()  # ONE deficit-round-robin round...
    assert victim.done()  # ...and the small tenant is already served
    scheduler.flush()
    direct = acme.service.search_batch(queries, k=5)  # bypasses gateway: raw view
    stats = scheduler.stats()
    print(
        f"flood of {len(flood)} batches: victim served in round 1; "
        f"coalesced {stats['coalesced_calls']} cross-tenant calls"
    )
    # Coalesced answers are bitwise-identical to per-tenant serial calls.
    assert np.array_equal(flood[0].result().ids, flood[-1].result().ids)
    assert not np.array_equal(flood[0].result().ids, direct.ids[:1])  # ACL'd
    registry.drop_tenant("initech")  # the stand-in victim leaves, its cache partition with it
    print(f"tenants now: {registry.tenants()}")

    # 5. The same registry on the wire: X-Tenant picks the gateway.
    with SearchServer(tenants=registry, config=ServerConfig(port=0)) as server:
        body = {"vector": queries[0].tolist(), "request": {"k": 5}}
        status, wire = request_json(
            f"{server.url}/query", method="POST", body=body,
            headers={"X-Tenant": "acme"},
        )
        assert status == 200 and set(wire["ids"]) <= acme_rows
        print(f"HTTP as acme: 200, ids {wire['ids'][:3]}..")

        status, wire = request_json(
            f"{server.url}/query", method="POST", body=body,
            headers={"X-Tenant": "nobody"},
        )
        assert (status, wire["error"]["code"]) == (404, "unknown_tenant")

        status, wire = request_json(
            f"{server.url}/query", method="POST", body=body,
            headers={"X-Tenant": "globex"},
        )
        assert (status, wire["error"]["code"]) == (429, "quota_exceeded")
        print(
            f"HTTP as globex: 429 quota_exceeded, "
            f"Retry-After {wire['error']['retry_after_seconds']:.2f}s"
        )

        # A client that opts into retries waits out the hint instead.
        async def patient_globex() -> int:
            policy = RetryPolicy(max_retries=3, jitter=0.0)
            async with AsyncHttpClient(server.host, server.port, retry=policy) as client:
                code, _, _ = await client.request("POST", "/query", body=body, headers={"X-Tenant": "globex"})
                print(f"HTTP as globex with a RetryPolicy: {code} after {client.retries_total} retry")
                return code

        assert asyncio.run(patient_globex()) == 200

        _, metrics = request_json(f"{server.url}/metrics")
        assert 'repro_tenant_queries_total{tenant="acme"}' in metrics
        assert 'repro_tenant_quota_denials_total{tenant="globex"}' in metrics
        _, stats = request_json(f"{server.url}/stats")
        acme_stats = stats["tenants"]["tenants"]["acme"]
        print(
            f"per-tenant observability: acme queries={acme_stats['queries']} "
            f"cache_hits={acme_stats['cache_hits']} "
            f"denials={stats['tenants']['tenants']['globex']['quota_denials']}"
        )


if __name__ == "__main__":
    main()
