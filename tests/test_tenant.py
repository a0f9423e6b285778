"""Multi-tenant serving tests: quotas, ACL injection, fairness, metrics.

The central guarantees:

* **token buckets** — driven by an injected fake clock (no sleeping):
  burst consumption, sustained refill, and a denial's ``Retry-After``
  accurate to the refill schedule (retrying at exactly that instant
  succeeds; a hair earlier still fails);
* **ACL correctness** — a tenant's query through its gateway returns
  bitwise-identical ids to brute force over ``And(acl, user_filter)``'s
  subset, across selectivities and back-ends including the sharded path
  (hypothesis property);
* **cache isolation** — two tenants with different ACLs can never share
  a cached answer, on the shared service cache or the per-tenant
  partitions, because the injected predicate is in every cache key;
* **fairness** — the cross-tenant scheduler's coalesced batches are
  bitwise-identical to per-tenant serial execution, and a flooding
  tenant cannot starve a neighbour's round share;
* **wire behaviour** — 429 ``quota_exceeded`` (refill-derived
  ``Retry-After``) distinct from admission sheds, 404 ``unknown_tenant``,
  400 ``missing_tenant``, and ``/metrics`` label values escaped against
  hostile tenant names.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_index
from repro.filter import And, AttributeStore, Eq, Range
from repro.net import SearchServer, ServerConfig, request_json
from repro.net.metrics import ServerMetrics
from repro.obs.metrics import escape_label_value, format_labels
from repro.service import QueryRequest, Router, SearchService
from repro.service.cache import QueryCache
from repro.tenant import (
    CacheBudget,
    FairScheduler,
    TenantConfig,
    TenantGateway,
    TenantRegistry,
    TokenBucket,
)
from repro.utils.distances import pairwise_topk
from repro.utils.exceptions import (
    QuotaExceededError,
    UnknownTenantError,
    ValidationError,
)

DIM = 8


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


def make_service(n=200, *, owners=("acme", "globex"), cache_size=0, metric="euclidean"):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(n, DIM))
    index = make_index("bruteforce", metric=metric)
    index.build(base)
    store = AttributeStore()
    store.add_categorical("owner", [owners[i % len(owners)] for i in range(n)])
    store.add_numeric("score", np.arange(n, dtype=np.float64) / n)
    index.set_attributes(store)
    return SearchService(index, name="ns", cache_size=cache_size), base, store


def make_mutable_service(n=50):
    from repro.shard import ShardedIndex

    rng = np.random.default_rng(7)
    base = rng.normal(size=(n, DIM))
    index = ShardedIndex(2, compact_threshold=None).build(base)
    return SearchService(index, name="ns"), base


# ---------------------------------------------------------------------- #
# token buckets (fake clock; no time.sleep anywhere)
# ---------------------------------------------------------------------- #
class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire() is None
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        assert bucket.granted == 4 and bucket.denied == 1

    def test_sustained_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=8.0, burst=1.0, clock=clock)
        served = 0
        for _ in range(50):
            if bucket.try_acquire() is None:
                served += 1
            clock.advance(0.125)  # exactly the refill period (binary-exact)
        assert served == 50  # 8/s sustained is exactly affordable

    def test_retry_after_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=2.0, clock=clock)
        bucket.try_acquire(2)  # drain
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.25)
        # A hair before the promised instant: still denied.
        clock.advance(retry - 1e-6)
        assert bucket.try_acquire() is not None
        # At the promised instant: granted.
        clock.advance(1e-6)
        assert bucket.try_acquire() is None

    def test_oversize_acquire_needs_full_bucket(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        # Full bucket: a batch larger than burst is granted as debt.
        assert bucket.try_acquire(10) is None
        assert bucket.tokens == pytest.approx(-6.0)
        # In debt: even one token is denied, with the wait to refill to
        # a single token (bucket must climb from -6 to 1 at 1/s).
        retry = bucket.try_acquire()
        assert retry == pytest.approx(7.0)
        # Debt refills at the configured rate — sustained throughput is
        # still bounded by rate regardless of oversize grants.
        clock.advance(7.0)
        assert bucket.try_acquire() is None

    def test_not_full_oversize_is_denied(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        bucket.try_acquire()  # no longer full
        retry = bucket.try_acquire(10)
        assert retry == pytest.approx(1.0)  # time to refill back to burst

    def test_acquire_or_raise_carries_fields(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        bucket.try_acquire()
        with pytest.raises(QuotaExceededError) as excinfo:
            bucket.acquire_or_raise(resource="qps")
        assert excinfo.value.resource == "qps"
        assert excinfo.value.retry_after_seconds == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate=0)
        with pytest.raises(ValidationError):
            TokenBucket(rate=1.0, burst=-1.0)


# ---------------------------------------------------------------------- #
# declarative tenant config
# ---------------------------------------------------------------------- #
class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TenantConfig(acl="owner == acme")
        with pytest.raises(ValidationError):
            TenantConfig(qps=-1.0)
        with pytest.raises(ValidationError):
            TenantConfig(qps_burst=10.0)  # burst without a rate
        with pytest.raises(ValidationError):
            TenantConfig(cache_weight=0.0)


# ---------------------------------------------------------------------- #
# byte-accounted result cache + the shared budget
# ---------------------------------------------------------------------- #
class TestQueryCacheBytes:
    def test_stats_report_resident_bytes(self):
        cache = QueryCache(8)
        key = QueryCache.key_for(np.zeros(DIM), ("r",))
        ids = np.arange(5, dtype=np.int64)
        distances = np.zeros(5)
        cache.put(key, ids, distances)
        expected = ids.nbytes + distances.nbytes + len(key[0])
        stats = cache.stats()
        assert stats["cache_bytes"] == expected
        # Replacing the same key must not double-charge.
        cache.put(key, ids, distances)
        assert cache.stats()["cache_bytes"] == expected
        cache.clear()
        assert cache.stats()["cache_bytes"] == 0

    def test_max_bytes_evicts_lru(self):
        cache = QueryCache(100, max_bytes=600)
        entries = []
        for i in range(5):
            key = QueryCache.key_for(np.full(DIM, float(i)), ("r",))
            entries.append(key)
            cache.put(key, np.arange(10, dtype=np.int64), np.zeros(10))
        stats = cache.stats()
        assert stats["cache_bytes"] <= 600
        assert stats["evictions"] > 0
        assert cache.get(entries[0]) is None  # oldest went first
        assert cache.get(entries[-1]) is not None

    def test_entry_count_knob_still_works(self):
        cache = QueryCache(2)
        for i in range(4):
            cache.put(
                QueryCache.key_for(np.full(DIM, float(i)), ("r",)),
                np.arange(3, dtype=np.int64),
                np.zeros(3),
            )
        assert len(cache) == 2
        assert cache.stats()["max_bytes"] is None

    def test_service_stats_surface_cache_bytes(self):
        service, base, _ = make_service(cache_size=4)
        service.search(base[0], k=3)
        assert service.stats()["cache_bytes"] > 0


class TestCacheBudget:
    @staticmethod
    def fill(cache, n, tag):
        for i in range(n):
            cache.put(
                QueryCache.key_for(np.full(DIM, float(i)), (tag,)),
                np.arange(16, dtype=np.int64),
                np.zeros(16),
            )

    def test_weighted_eviction_prefers_low_weight(self):
        budget = CacheBudget(2000)
        light = budget.create_partition("light", weight=1.0)
        heavy = budget.create_partition("heavy", weight=4.0)
        self.fill(light, 10, "light")
        self.fill(heavy, 10, "heavy")
        assert budget.total_bytes() > 2000
        budget.reconcile()
        assert budget.total_bytes() <= 2000
        # Pressure lands on bytes-per-weight: the weight-1 partition
        # shrinks well below the weight-4 one.
        assert light.bytes < heavy.bytes
        assert budget.evictions > 0

    def test_partition_lifecycle(self):
        budget = CacheBudget(1 << 20)
        budget.create_partition("a")
        with pytest.raises(ValidationError):
            budget.create_partition("a")
        assert "a" in budget.stats()["partitions"]
        budget.drop_partition("a")
        assert "a" not in budget.stats()["partitions"]


# ---------------------------------------------------------------------- #
# the gateway: ACL injection, quotas, per-tenant cache
# ---------------------------------------------------------------------- #
class TestTenantGateway:
    def test_acl_restricts_results(self):
        service, base, store = make_service()
        gateway = TenantGateway("acme", service, TenantConfig(acl=Eq("owner", "acme")))
        allowed = set(np.flatnonzero(Eq("owner", "acme").mask(store)))
        result = gateway.search_batch(base[:10], k=5)
        assert set(result.ids[result.ids >= 0].tolist()) <= allowed

    def test_acl_composes_with_user_predicate(self):
        service, base, store = make_service()
        gateway = TenantGateway("acme", service, TenantConfig(acl=Eq("owner", "acme")))
        user = Range("score", high=0.25)
        request = gateway.effective_request(QueryRequest(k=5, filter=user))
        combined = And(Eq("owner", "acme"), user)
        assert request.filter.fingerprint() == combined.fingerprint()

    def test_acl_refuses_mask_filters(self):
        service, base, _ = make_service()
        gateway = TenantGateway("acme", service, TenantConfig(acl=Eq("owner", "acme")))
        with pytest.raises(ValidationError, match="mask/allowlist"):
            gateway.search(base[0], k=3, filter=np.zeros(200, dtype=bool))

    def test_no_acl_passes_requests_through(self):
        service, base, _ = make_service()
        gateway = TenantGateway("open", service)
        direct = service.search(base[0], k=4)
        via = gateway.search(base[0], k=4)
        np.testing.assert_array_equal(direct.ids, via.ids)

    def test_vector_quota_is_hard(self):
        service, base = make_mutable_service()
        gateway = TenantGateway("acme", service, TenantConfig(max_vectors=3))
        rng = np.random.default_rng(0)
        gateway.add(rng.normal(size=(3, DIM)))
        with pytest.raises(QuotaExceededError) as excinfo:
            gateway.add(rng.normal(size=(1, DIM)))
        assert excinfo.value.resource == "vectors"
        assert excinfo.value.retry_after_seconds is None  # waiting won't help
        assert gateway.vectors_used == 3

    def test_remove_frees_vector_quota(self):
        service, base = make_mutable_service()
        gateway = TenantGateway("acme", service, TenantConfig(max_vectors=2))
        ids = gateway.add(np.random.default_rng(1).normal(size=(2, DIM)))
        gateway.remove(ids[:1])
        assert gateway.vectors_used == 1
        gateway.add(np.random.default_rng(2).normal(size=(1, DIM)))  # fits again

    def test_write_bucket_meters_mutations(self):
        clock = FakeClock()
        service, base = make_mutable_service()
        gateway = TenantGateway(
            "acme", service, TenantConfig(write_ops=1.0, write_burst=1.0), clock=clock
        )
        gateway.add(np.random.default_rng(3).normal(size=(1, DIM)))
        with pytest.raises(QuotaExceededError) as excinfo:
            gateway.remove([0])
        assert excinfo.value.resource == "write_ops"
        clock.advance(1.0)
        gateway.remove([0])  # refilled

    def test_query_bucket_charges_rows(self):
        clock = FakeClock()
        service, base, _ = make_service()
        gateway = TenantGateway(
            "acme", service, TenantConfig(qps=100.0, qps_burst=10.0), clock=clock
        )
        gateway.search_batch(base[:10], k=3)  # exactly the burst
        with pytest.raises(QuotaExceededError):
            gateway.search(base[0], k=3)
        assert gateway.stats()["quota_denials"] == 1

    def test_partition_serves_repeat_queries(self):
        service, base, _ = make_service()
        budget = CacheBudget(1 << 20)
        gateway = TenantGateway(
            "acme",
            service,
            TenantConfig(acl=Eq("owner", "acme")),
            cache=budget.create_partition("acme"),
            budget=budget,
        )
        cold = gateway.search_batch(base[:6], k=4)
        warm = gateway.search_batch(base[:6], k=4)
        np.testing.assert_array_equal(cold.ids, warm.ids)
        assert warm.cache_hits == 6
        assert gateway.cache.stats()["hits"] == 6

    def test_partition_invalidates_on_mutation(self):
        service, base = make_mutable_service()
        budget = CacheBudget(1 << 20)
        gateway = TenantGateway(
            "acme", service, cache=budget.create_partition("acme"), budget=budget
        )
        gateway.search_batch(base[:4], k=3)
        assert len(gateway.cache) == 4
        gateway.add(np.random.default_rng(4).normal(size=(1, DIM)))
        gateway.search(base[0], k=3)  # tag changed: partition was cleared
        assert gateway.cache.stats()["hits"] == 0

    def test_cross_tenant_cache_isolation(self):
        # Both tenants share one namespace *and* its service-level cache;
        # the same vector must still answer per each tenant's ACL.
        service, base, store = make_service(cache_size=64)
        acme = TenantGateway("acme", service, TenantConfig(acl=Eq("owner", "acme")))
        globex = TenantGateway(
            "globex", service, TenantConfig(acl=Eq("owner", "globex"))
        )
        first = acme.search(base[0], k=5)
        second = globex.search(base[0], k=5)
        acme_rows = set(np.flatnonzero(Eq("owner", "acme").mask(store)))
        globex_rows = set(np.flatnonzero(Eq("owner", "globex").mask(store)))
        assert set(first.ids[first.ids >= 0].tolist()) <= acme_rows
        assert set(second.ids[second.ids >= 0].tolist()) <= globex_rows
        assert not second.cached  # different fingerprint, different key

    def test_stats_and_service_config_overlay(self):
        service, base, _ = make_service()
        gateway = TenantGateway(
            "acme", service, TenantConfig(acl=Eq("owner", "acme"), qps=10.0)
        )
        gateway.search(base[0], k=3)
        stats = gateway.stats()
        assert stats["tenant"] == "acme" and stats["queries"] == 1
        assert stats["qps_bucket"]["granted"] == 1
        config = gateway.service_config()
        assert config["tenant"]["name"] == "acme"
        assert config["tenant"]["acl"] is not None


# ---------------------------------------------------------------------- #
# hypothesis property: gateway answers == bruteforce over And(acl, user)
# ---------------------------------------------------------------------- #
def exact_filtered(base, queries, mask, k, metric="euclidean"):
    allowed = np.flatnonzero(mask)
    if allowed.size == 0:
        return (
            np.full((queries.shape[0], k), -1, dtype=np.int64),
            np.full((queries.shape[0], k), np.inf),
        )
    local, distances = pairwise_topk(
        queries, base[allowed], min(k, allowed.size), metric=metric
    )
    ids = allowed[local]
    if ids.shape[1] < k:
        pad = k - ids.shape[1]
        ids = np.pad(ids, ((0, 0), (0, pad)), constant_values=-1)
        distances = np.pad(distances, ((0, 0), (0, pad)), constant_values=np.inf)
    return ids, distances


class TestAclProperty:
    SELECTIVITIES = (0.05, 0.3, 1.0)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        backend=st.sampled_from(["bruteforce", "sharded-bruteforce"]),
        owner=st.sampled_from(["acme", "globex"]),
    )
    def test_gateway_matches_bruteforce_over_acl_subset(self, seed, backend, owner):
        rng = np.random.default_rng(seed)
        n = 240
        base = rng.normal(size=(n, DIM))
        queries = rng.normal(size=(5, DIM))
        store = AttributeStore()
        store.add_categorical(
            "owner", ["acme" if i % 3 else "globex" for i in range(n)]
        )
        store.add_numeric("score", rng.permutation(n).astype(np.float64) / n)
        kwargs = {"n_shards": 3} if backend == "sharded-bruteforce" else {}
        index = make_index(backend, **kwargs).build(base)
        index.set_attributes(store)
        service = SearchService(index, name="ns")
        acl = Eq("owner", owner)
        gateway = TenantGateway(owner, service, TenantConfig(acl=acl))
        try:
            for selectivity in self.SELECTIVITIES:
                user = Range("score", high=selectivity - 0.5 / n)
                mask = And(acl, user).mask(store)
                expected_ids, expected_distances = exact_filtered(
                    base, queries, mask, 10
                )
                got = gateway.search_batch(queries, k=10, filter=user)
                np.testing.assert_array_equal(got.ids, expected_ids)
                np.testing.assert_allclose(
                    got.distances, expected_distances, rtol=1e-12
                )
        finally:
            close = getattr(index, "close", None)
            if close is not None:
                close()


# ---------------------------------------------------------------------- #
# the fair scheduler
# ---------------------------------------------------------------------- #
class TestFairScheduler:
    def make_tenants(self, *, qps=None):
        service, base, _ = make_service(n=300)
        config = TenantConfig(qps=qps) if qps else TenantConfig()
        a = TenantGateway("a", service, config)
        b = TenantGateway("b", service, TenantConfig())
        return service, base, a, b

    def test_coalesced_batches_match_serial_execution(self):
        service, base, a, b = self.make_tenants()
        scheduler = FairScheduler(quantum_rows=64)
        qa, qb = base[:12], base[12:20]
        fa = scheduler.submit(a, qa, k=7)
        fb = scheduler.submit(b, qb, k=7)
        scheduler.flush()
        # Equal requests against one service stack into ONE call...
        assert scheduler.stats()["coalesced_calls"] == 1
        assert scheduler.stats()["executed_calls"] == 1
        # ...and the slices are bitwise-identical to serial per-tenant runs.
        serial_a = service.search_batch(qa, k=7)
        serial_b = service.search_batch(qb, k=7)
        np.testing.assert_array_equal(fa.result().ids, serial_a.ids)
        np.testing.assert_array_equal(fa.result().distances, serial_a.distances)
        np.testing.assert_array_equal(fb.result().ids, serial_b.ids)
        np.testing.assert_array_equal(fb.result().distances, serial_b.distances)

    def test_different_acls_do_not_coalesce_but_stay_correct(self):
        service, base, store = make_service(n=300)
        a = TenantGateway("a", service, TenantConfig(acl=Eq("owner", "acme")))
        b = TenantGateway("b", service, TenantConfig(acl=Eq("owner", "globex")))
        scheduler = FairScheduler()
        fa = scheduler.submit(a, base[:4], k=5)
        fb = scheduler.submit(b, base[:4], k=5)
        scheduler.flush()
        assert scheduler.stats()["coalesced_calls"] == 0
        assert scheduler.stats()["executed_calls"] == 2
        acme_rows = set(np.flatnonzero(Eq("owner", "acme").mask(store)))
        ids_a = fa.result().ids
        assert set(ids_a[ids_a >= 0].tolist()) <= acme_rows
        ids_b = fb.result().ids
        assert set(ids_b[ids_b >= 0].tolist()).isdisjoint(acme_rows)

    def test_drr_gives_flooded_neighbour_its_share(self):
        service, base, a, b = self.make_tenants()
        scheduler = FairScheduler(quantum_rows=8, max_pending_rows=10_000)
        # Tenant a floods; tenant b asks for one small batch.
        for _ in range(30):
            scheduler.submit(a, base[:8], k=3)
        fb = scheduler.submit(b, base[:4], k=3)
        scheduler.run_round()
        # One round: b is already served, despite a's 240-row backlog.
        assert fb.done()
        served = scheduler.stats()["served_rows"]
        assert served["b"] == 4
        assert scheduler.pending_rows("a") > 0
        scheduler.flush()
        assert scheduler.pending_rows() == 0

    def test_oversized_batch_banks_deficit(self):
        service, base, a, b = self.make_tenants()
        scheduler = FairScheduler(quantum_rows=4)
        big = scheduler.submit(a, base[:10], k=3)  # 10 rows > 4-row quantum
        assert scheduler.run_round() == 0  # banks 4
        assert scheduler.run_round() == 0  # banks 8
        assert scheduler.run_round() == 10  # 12 covers it
        assert big.done()

    def test_pending_bound_is_a_typed_quota(self):
        service, base, a, b = self.make_tenants()
        scheduler = FairScheduler(max_pending_rows=16)
        scheduler.submit(a, base[:16], k=3)
        with pytest.raises(QuotaExceededError) as excinfo:
            scheduler.submit(a, base[:1], k=3)
        assert excinfo.value.resource == "queue"
        scheduler.flush()

    def test_quota_is_charged_at_submit(self):
        clock = FakeClock()
        service, base, _ = make_service(n=300)
        a = TenantGateway(
            "a", service, TenantConfig(qps=100.0, qps_burst=8.0), clock=clock
        )
        scheduler = FairScheduler()
        scheduler.submit(a, base[:8], k=3)
        with pytest.raises(QuotaExceededError):
            scheduler.submit(a, base[:1], k=3)
        scheduler.flush()

    def test_failures_fan_out_to_submitters(self):
        service, base, a, b = self.make_tenants()
        scheduler = FairScheduler()
        future = scheduler.submit(a, np.zeros((2, DIM + 3)), k=3)  # bad dim
        scheduler.flush()
        with pytest.raises(Exception):
            future.result(timeout=1.0)


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #
class TestTenantRegistry:
    def test_unknown_tenant_is_typed(self):
        registry = TenantRegistry()
        with pytest.raises(UnknownTenantError):
            registry.gateway("nobody")
        with pytest.raises(UnknownTenantError):
            registry.drop_tenant("nobody")

    def test_lifecycle_and_stats(self):
        service, base, _ = make_service()
        registry = TenantRegistry(cache_budget_bytes=1 << 20)
        registry.add_namespace("ns", service)
        registry.create_tenant("acme", "ns", TenantConfig(qps=10.0))
        assert "acme" in registry.tenants() and len(registry) == 1
        with pytest.raises(ValidationError):
            registry.create_tenant("acme", "ns")
        with pytest.raises(ValidationError):
            registry.create_tenant("other", "missing-ns")
        with pytest.raises(ValidationError):
            registry.create_tenant("bad name!", "ns")
        registry.gateway("acme").search(base[0], k=3)
        stats = registry.stats()
        assert stats["tenants"]["acme"]["queries"] == 1
        assert stats["cache_budget"]["max_bytes"] == 1 << 20
        registry.drop_tenant("acme")
        assert "acme" not in registry.tenants()

    def test_submit_routes_through_scheduler(self):
        service, base, _ = make_service()
        registry = TenantRegistry()
        registry.add_namespace("ns", service)
        registry.create_tenant("acme", "ns")
        future = registry.submit("acme", base[:4], k=3)
        registry.scheduler.flush()
        assert future.result().ids.shape == (4, 3)

    def test_namespace_must_be_service_shaped(self):
        registry = TenantRegistry()
        with pytest.raises(ValidationError, match="serving target"):
            registry.add_namespace("ns", object())

    def test_router_hosts_gateways(self):
        service, base, _ = make_service()
        gateway = TenantGateway("acme", service, TenantConfig(acl=Eq("owner", "acme")))
        router = Router()
        router.add_service("tenant-acme", gateway)
        result = router.search(base[0], name="tenant-acme", k=4)
        assert result.ids.shape == (4,)
        with pytest.raises(ValidationError, match="Service protocol"):
            router.add_service("bogus", object())

    def test_gateway_over_replica_group(self, tmp_path):
        # The delegate is any Service: a ReplicaGroup serves reads through
        # followers, writes through the primary — with tenant policy on top.
        from repro.replica import Follower, Primary, ReplicaGroup
        from repro.shard import ShardedIndex
        from repro.store import Collection

        rng = np.random.default_rng(9)
        base = rng.normal(size=(40, DIM))
        index = ShardedIndex(2, compact_threshold=None).build(base)
        store = AttributeStore()
        store.add_categorical("owner", ["acme" if i % 2 else "globex" for i in range(40)])
        index.set_attributes(store)
        collection = Collection.create(tmp_path / "primary", index)
        primary = Primary(collection)
        follower = Follower.bootstrap(tmp_path / "replica", primary)
        group = ReplicaGroup(primary, [follower])
        gateway = TenantGateway(
            "acme",
            group,
            TenantConfig(acl=Eq("owner", "acme"), max_vectors=100),
        )
        result = gateway.search_batch(base[:5], k=4)
        allowed = set(np.flatnonzero(Eq("owner", "acme").mask(store)))
        assert set(result.ids[result.ids >= 0].tolist()) <= allowed
        # Replica groups cannot vouch for freshness: no gateway cache.
        assert gateway._partition() is None
        gateway.add(
            rng.normal(size=(2, DIM)),
            attributes={"owner": ["acme", "acme"]},
        )
        assert gateway.vectors_used == 2
        follower.collection.close()
        collection.close()


# ---------------------------------------------------------------------- #
# metrics escaping (hostile label values must not split a sample line)
# ---------------------------------------------------------------------- #
class TestMetricsEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_hostile_tenant_name_stays_one_sample_line(self):
        hostile = 'evil"} 1\ninjected_metric 999 # {x="'
        rendered = ServerMetrics().render(
            tenant_stats={hostile: {"queries": 3, "query_rows": 7}}
        )
        lines = [
            line
            for line in rendered.splitlines()
            if line.startswith("repro_tenant_queries_total{")
        ]
        assert len(lines) == 1
        assert lines[0].endswith(" 3")
        # The embedded newline never splits the sample: the injected
        # "metric" stays inside a quoted label value, never a line of
        # its own, and every rendered line still parses as exposition
        # text (comment, or name{...} value).
        assert 'evil"} 1\ninjected' not in rendered
        assert not any(
            line.startswith("injected_metric") for line in rendered.splitlines()
        )

    def test_format_labels_sorted_and_quoted(self):
        assert format_labels({"b": 1, "a": 'x"y'}) == '{a="x\\"y",b="1"}'


# ---------------------------------------------------------------------- #
# the wire: X-Tenant, typed 429/404/400, per-tenant scrape
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tenant_server():
    service, base, store = make_service(cache_size=16)
    registry = TenantRegistry(cache_budget_bytes=1 << 20)
    registry.add_namespace("ns", service)
    registry.create_tenant(
        "acme",
        "ns",
        TenantConfig(acl=Eq("owner", "acme"), qps=1e9, max_vectors=5),
    )
    registry.create_tenant(
        "starved", "ns", TenantConfig(qps=1e-3, qps_burst=1.0)
    )
    with SearchServer(tenants=registry, config=ServerConfig(port=0)) as server:
        yield server, base, store


class TestTenantServing:
    def test_tenant_header_serves_through_gateway(self, tenant_server):
        server, base, store = tenant_server
        status, body = request_json(
            server.url + "/query",
            method="POST",
            body={"vector": base[0].tolist(), "request": {"k": 5}},
            headers={"X-Tenant": "acme"},
        )
        assert status == 200
        allowed = set(np.flatnonzero(Eq("owner", "acme").mask(store)))
        assert set(i for i in body["ids"] if i >= 0) <= allowed

    def test_tenant_query_param_works_too(self, tenant_server):
        server, base, _ = tenant_server
        status, body = request_json(
            server.url + "/query?tenant=acme",
            method="POST",
            body={"vector": base[1].tolist(), "request": {"k": 3}},
        )
        assert status == 200

    def test_missing_tenant_is_400(self, tenant_server):
        server, base, _ = tenant_server
        status, body = request_json(
            server.url + "/query",
            method="POST",
            body={"vector": base[0].tolist()},
        )
        assert status == 400
        assert body["error"]["code"] == "missing_tenant"

    def test_registry_as_target_is_a_typed_error(self):
        # A registry is hosted through tenants=, never as the served target.
        service, _, _ = make_service()
        registry = TenantRegistry()
        registry.add_namespace("ns", service)
        with pytest.raises(ValidationError):
            SearchServer(registry, config=ServerConfig(port=0))

    def test_unknown_tenant_is_404(self, tenant_server):
        server, base, _ = tenant_server
        status, body = request_json(
            server.url + "/query",
            method="POST",
            body={"vector": base[0].tolist()},
            headers={"X-Tenant": "nobody"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_tenant"

    def test_quota_429_is_distinct_from_admission_shed(self, tenant_server):
        server, base, _ = tenant_server
        payload = {"vector": base[0].tolist(), "request": {"k": 3}}
        first, _ = request_json(
            server.url + "/query",
            method="POST",
            body=payload,
            headers={"X-Tenant": "starved"},
        )
        assert first == 200  # burst of 1
        status, body = request_json(
            server.url + "/query",
            method="POST",
            body=payload,
            headers={"X-Tenant": "starved"},
        )
        assert status == 429
        assert body["error"]["code"] == "quota_exceeded"  # NOT "overloaded"
        assert body["error"]["resource"] == "qps"
        # Refill-derived: 1 token at 1e-3/s is a ~1000s wait.
        assert body["error"]["retry_after_seconds"] > 100

    def test_vector_quota_429_carries_no_retry_after(self, tenant_server):
        server, base, _ = tenant_server
        rng = np.random.default_rng(2)
        status, body = request_json(
            server.url + "/add",
            method="POST",
            body={"vectors": rng.normal(size=(9, DIM)).tolist()},
            headers={"X-Tenant": "acme"},
        )
        assert status == 429
        assert body["error"]["code"] == "quota_exceeded"
        assert body["error"]["resource"] == "vectors"
        assert "retry_after_seconds" not in body["error"]

    def test_stats_and_metrics_break_out_tenants(self, tenant_server):
        server, base, _ = tenant_server
        status, stats = request_json(server.url + "/stats")
        assert status == 200
        assert set(stats["tenants"]["tenants"]) == {"acme", "starved"}
        assert stats["tenants"]["cache_budget"]["max_bytes"] == 1 << 20
        status, text = request_json(server.url + "/metrics")
        assert status == 200
        assert 'repro_tenant_queries_total{tenant="acme"}' in text
        assert 'repro_tenant_quota_denials_total{tenant="starved"}' in text
