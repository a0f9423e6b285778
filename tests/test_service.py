"""Tests for the query-serving layer: requests, service, cache, router.

The two central guarantees:

* ``search_batch`` called from several threads at once returns results
  bitwise identical to the single-thread answer for **every** registered
  index;
* a router with several named indexes round-trips through deployment
  save/restore and serves identical results after reload.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.api import make_index
from repro.datasets import sift_like
from repro.service import (
    BatchResult,
    QueryCache,
    QueryRequest,
    Router,
    SearchService,
)
from repro.utils.exceptions import ConfigurationError, SerializationError, ValidationError

from test_api_registry import CONFIGURATIONS, make_configuration


@pytest.fixture(scope="module")
def service_dataset():
    return sift_like(n_points=400, n_queries=24, dim=16, n_clusters=4, gt_k=10, seed=5)


@pytest.fixture(scope="module")
def kmeans_index(service_dataset):
    return make_index("kmeans", n_bins=4, seed=0).build(service_dataset.base)


@pytest.fixture()
def kmeans_service(kmeans_index):
    return SearchService(kmeans_index, batch_size=8)


class TestQueryRequest:
    def test_validation(self):
        with pytest.raises(ValidationError):
            QueryRequest(k=0)
        with pytest.raises(ValidationError):
            QueryRequest(probes=0)
        with pytest.raises(ValidationError):
            QueryRequest(candidate_budget=-5)

    def test_with_updates_is_a_copy(self):
        request = QueryRequest(k=10, probes=2)
        updated = request.with_updates(k=5)
        assert (updated.k, updated.probes) == (5, 2)
        assert request.k == 10

    def test_cache_key_ignores_metadata(self):
        a = QueryRequest(k=10, probes=2, metadata={"user": "a"})
        b = QueryRequest(k=10, probes=2, metadata={"user": "b"})
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != QueryRequest(k=10, probes=3).cache_key()

    def test_dict_roundtrip(self):
        request = QueryRequest(k=7, probes=3, candidate_budget=100, metadata={"m": 1})
        assert QueryRequest.from_dict(request.as_dict()) == request


class TestSearchService:
    def test_requires_built_index(self):
        with pytest.raises(ValidationError, match="built"):
            SearchService(make_index("kmeans", n_bins=4))

    def test_search_single(self, kmeans_service, service_dataset):
        result = kmeans_service.search(service_dataset.queries[0], k=5, probes=2)
        assert result.ids.shape == (5,)
        assert result.distances.shape == (5,)
        assert not result.cached
        assert result.request.k == 5

    def test_search_batch_matches_raw_index(self, kmeans_service, kmeans_index, service_dataset):
        batch = kmeans_service.search_batch(
            service_dataset.queries, QueryRequest(k=5, probes=2)
        )
        raw_ids, raw_distances = kmeans_index.batch_query(
            service_dataset.queries, 5, n_probes=2
        )
        np.testing.assert_array_equal(batch.ids, raw_ids)
        np.testing.assert_array_equal(batch.distances, raw_distances)
        assert isinstance(batch, BatchResult)
        assert batch.n_queries == service_dataset.n_queries
        assert batch.queries_per_second > 0

    def test_default_request_and_overrides(self, kmeans_index, service_dataset):
        service = SearchService(
            kmeans_index, default_request=QueryRequest(k=3, probes=1)
        )
        assert service.search_batch(service_dataset.queries).ids.shape[1] == 3
        assert service.search_batch(service_dataset.queries, k=5).ids.shape[1] == 5

    def test_probe_knob_is_capability_mapped(self, service_dataset):
        hnsw = make_index("hnsw", m=4, ef_construction=16, ef_search=8, seed=0).build(
            service_dataset.base
        )
        service = SearchService(hnsw)
        assert service.query_kwargs(QueryRequest(probes=12)) == {"ef": 12}
        bf = SearchService(make_index("bruteforce").build(service_dataset.base))
        from repro.api.protocol import _reset_probe_warning_registry

        _reset_probe_warning_registry()
        with pytest.warns(UserWarning, match="no probe parameter"):
            assert bf.query_kwargs(QueryRequest(probes=12)) == {}
        # and the request actually executes on both back-ends
        assert service.search_batch(service_dataset.queries, k=3, probes=12).ids.shape == (24, 3)
        assert bf.search_batch(service_dataset.queries, k=3, probes=12).ids.shape == (24, 3)

    def test_candidate_budget_plans_probes(self, kmeans_service):
        # 400 points over 4 bins -> ~100 candidates per probe
        assert kmeans_service.plan_probes(100) == 1
        assert kmeans_service.plan_probes(250) == 2
        assert kmeans_service.plan_probes(10_000) == 4  # clamped to n_bins
        kwargs = kmeans_service.query_kwargs(QueryRequest(candidate_budget=250))
        assert kwargs == {"n_probes": 2}

    @pytest.mark.parametrize("label", ["ivf-flat", "sharded-ivf", "sharded-kmeans"])
    def test_candidate_budget_plans_probes_on_ivf(self, label):
        # 2,000 points over 8 cells (per shard) -> 250 candidates per probe
        name, params = {
            "ivf-flat": ("ivf-flat", dict(n_lists=8, seed=0)),
            "sharded-ivf": ("sharded", dict(
                spec="ivf-flat", partitioner="kmeans", n_shards=2,
                shard_params=dict(n_lists=8, seed=0),
            )),
            "sharded-kmeans": ("sharded", dict(
                spec="kmeans", partitioner="kmeans", n_shards=2,
                shard_params=dict(n_bins=8, seed=0),
            )),
        }[label]
        data = sift_like(n_points=2000, n_queries=16, dim=16, n_clusters=4, gt_k=10, seed=5)
        service = SearchService(make_index(name, **params).build(data.base))
        request = QueryRequest(k=5, candidate_budget=500)
        assert service.plan_probes(500) == 2
        assert service.query_kwargs(request) == service.query_kwargs(QueryRequest(k=5, probes=2)) != {}
        budgeted = service.search_batch(data.queries, request)
        explicit = service.search_batch(data.queries, QueryRequest(k=5, probes=2))
        np.testing.assert_array_equal(budgeted.ids, explicit.ids)

    def test_budget_request_matches_explicit_probes(self, kmeans_service, service_dataset):
        budgeted = kmeans_service.search_batch(
            service_dataset.queries, QueryRequest(k=5, candidate_budget=250)
        )
        explicit = kmeans_service.search_batch(
            service_dataset.queries, QueryRequest(k=5, probes=2)
        )
        np.testing.assert_array_equal(budgeted.ids, explicit.ids)

    def test_empty_batch(self, kmeans_service, service_dataset):
        batch = kmeans_service.search_batch(
            np.empty((0, service_dataset.dim)), QueryRequest(k=5, probes=1)
        )
        assert batch.n_queries == 0

    def test_dimension_mismatch_rejected(self, kmeans_service):
        with pytest.raises(ValidationError):
            kmeans_service.search_batch(np.zeros((3, 7)), k=2)

    def test_from_saved(self, kmeans_index, service_dataset, tmp_path):
        kmeans_index.save(tmp_path / "kmeans")
        service = SearchService.from_saved(tmp_path / "kmeans")
        assert service.name == "kmeans"
        original = kmeans_index.batch_query(service_dataset.queries, 5, n_probes=2)[0]
        reloaded = service.search_batch(service_dataset.queries, k=5, probes=2).ids
        np.testing.assert_array_equal(original, reloaded)

    def test_stats_counters(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index)
        service.search_batch(
            service_dataset.queries,
            QueryRequest(k=5, probes=2),
            ground_truth=service_dataset.ground_truth,
        )
        service.search(service_dataset.queries[0], k=5, probes=2)
        stats = service.stats()
        assert stats["queries"] == service_dataset.n_queries + 1
        assert stats["batches"] == 2
        assert stats["query_seconds"] > 0
        assert stats["queries_per_second"] > 0
        assert 0.0 <= stats["mean_recall"] <= 1.0
        assert stats["index"]["name"] == "kmeans"
        service.reset_stats()
        assert service.stats()["queries"] == 0

    def test_top_level_reexports(self):
        assert repro.SearchService is SearchService
        assert repro.QueryRequest is QueryRequest
        assert repro.Router is Router


class TestQueryCache:
    def test_lru_eviction(self):
        cache = QueryCache(2)
        ids = np.arange(3, dtype=np.int64)
        distances = np.zeros(3)
        for key in ("a", "b", "c"):
            cache.put((key,), ids, distances)
        assert len(cache) == 2
        assert cache.get(("a",)) is None  # evicted
        assert cache.get(("c",)) is not None

    def test_service_cache_hits(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index, cache_size=64)
        first = service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=2))
        second = service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=2))
        assert first.cache_hits == 0
        assert second.cache_hits == service_dataset.n_queries
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.distances, second.distances)

    def test_cache_distinguishes_requests(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index, cache_size=64)
        service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=1))
        other = service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=4))
        assert other.cache_hits == 0

    def test_partial_hits_are_reassembled_in_order(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index, cache_size=64, batch_size=4)
        half = service_dataset.queries[::2]
        service.search_batch(half, QueryRequest(k=5, probes=2))
        uncached = SearchService(kmeans_index)
        full = service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=2))
        expected = uncached.search_batch(service_dataset.queries, QueryRequest(k=5, probes=2))
        assert full.cache_hits == half.shape[0]
        np.testing.assert_array_equal(full.ids, expected.ids)
        np.testing.assert_array_equal(full.distances, expected.distances)

    def test_single_query_cache(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index, cache_size=8)
        first = service.search(service_dataset.queries[0], k=5, probes=2)
        second = service.search(service_dataset.queries[0], k=5, probes=2)
        assert not first.cached and second.cached
        np.testing.assert_array_equal(first.ids, second.ids)


class TestCacheFreshness:
    """The cache key covers k/probes/metric, and mutation invalidates entries.

    Regression tests: a cached answer must never outlive the index state
    it was computed from — neither a metric change nor a mutable-index
    ``add``/``remove`` may serve stale ids.
    """

    def test_cache_key_incorporates_k_and_probes(self, kmeans_index, service_dataset):
        service = SearchService(kmeans_index, cache_size=64)
        service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=1))
        other_k = service.search_batch(service_dataset.queries, QueryRequest(k=3, probes=1))
        other_probes = service.search_batch(service_dataset.queries, QueryRequest(k=5, probes=3))
        assert other_k.cache_hits == 0
        assert other_probes.cache_hits == 0

    def test_cache_key_incorporates_metric(self, service_dataset):
        index = make_index("bruteforce").build(service_dataset.base)
        service = SearchService(index, cache_size=64)
        euclidean = service.search_batch(service_dataset.queries, k=5)
        index.metric = "cosine"  # repoint the live index at another metric
        cosine = service.search_batch(service_dataset.queries, k=5)
        assert cosine.cache_hits == 0
        fresh = make_index("bruteforce", metric="cosine").build(service_dataset.base)
        np.testing.assert_array_equal(
            cosine.ids, fresh.batch_query(service_dataset.queries, 5)[0]
        )
        assert not np.array_equal(euclidean.distances, cosine.distances)

    @pytest.fixture()
    def mutable_service(self, service_dataset):
        from repro.shard import ShardedIndex

        index = ShardedIndex(2, compact_threshold=None).build(service_dataset.base)
        return SearchService(index, cache_size=64)

    def test_add_invalidates_cached_batches(self, mutable_service, service_dataset):
        queries = service_dataset.queries
        mutable_service.search_batch(queries, k=3)
        added = mutable_service.index.add(queries[:1])  # the query itself: new top-1
        after = mutable_service.search_batch(queries, k=3)
        assert after.cache_hits == 0
        assert after.ids[0, 0] == added[0]

    def test_remove_invalidates_cached_single_queries(self, mutable_service, service_dataset):
        query = service_dataset.queries[0]
        before = mutable_service.search(query, k=3)
        assert mutable_service.search(query, k=3).cached
        mutable_service.index.remove([int(before.ids[0])])
        after = mutable_service.search(query, k=3)
        assert not after.cached
        assert before.ids[0] not in after.ids


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
class TestThreadedMatchesSerial:
    """Concurrency correctness: callers on several threads at once (what the
    HTTP server's executor does) must each get the single-thread answer."""

    def test_threaded_bitwise_identical_to_serial(self, name, service_dataset):
        index = make_configuration(name).build(service_dataset.base)
        service = SearchService(index, batch_size=4)
        request = QueryRequest(k=5, probes=2)
        serial = service.search_batch(service_dataset.queries, request)
        callers = 4
        barrier = threading.Barrier(callers)

        def call() -> BatchResult:
            barrier.wait(timeout=30)
            return service.search_batch(service_dataset.queries, request)

        with ThreadPoolExecutor(max_workers=callers) as pool:
            futures = [pool.submit(call) for _ in range(callers)]
            results = [future.result(timeout=60) for future in futures]
        for threaded in results:
            np.testing.assert_array_equal(serial.ids, threaded.ids)
            np.testing.assert_array_equal(serial.distances, threaded.distances)


class TestClose:
    def test_context_manager_closes_the_index_pool(self, service_dataset):
        """Leaving the ``with`` block calls the served index's own ``close()``.

        No registered index owns a pool (or anything else to close) any
        more; the forwarding is for index types that do.
        """
        index = make_index("bruteforce").build(service_dataset.base)
        closed = []
        index.close = lambda: closed.append(True)
        with SearchService(index, batch_size=4) as service:
            before = service.search_batch(service_dataset.queries, k=3)
            assert not closed
        assert closed == [True]
        # the service holds nothing of its own: closed, it still serves
        after = service.search_batch(service_dataset.queries, k=3)
        np.testing.assert_array_equal(before.ids, after.ids)

    def test_close_without_an_index_close_is_a_no_op(self, kmeans_service, service_dataset):
        kmeans_service.close()
        kmeans_service.close()
        assert kmeans_service.search_batch(service_dataset.queries, k=3).n_queries == 24


class TestRouter:
    @pytest.fixture()
    def router(self, service_dataset, kmeans_index):
        router = Router()
        router.add_index("kmeans", kmeans_index, cache_size=16)
        router.add_index("exact", make_index("bruteforce").build(service_dataset.base))
        return router

    def test_add_and_lookup(self, router):
        assert router.names() == ["exact", "kmeans"]
        assert "kmeans" in router and len(router) == 2
        assert router.service("kmeans").name == "kmeans"
        with pytest.raises(ConfigurationError, match="no service named"):
            router.service("nope")

    def test_duplicate_and_invalid_names(self, router, kmeans_index):
        with pytest.raises(ConfigurationError, match="already registered"):
            router.add_index("kmeans", kmeans_index)
        with pytest.raises(ValidationError, match="service name"):
            router.add_index("../escape", kmeans_index)

    def test_capability_routing(self, router):
        assert router.route(exact=True).name == "exact"
        with pytest.raises(ConfigurationError, match="no registered service"):
            router.route(metric="mahalanobis")

    def test_round_robin_cycles(self, router):
        picked = [router.route().name for _ in range(4)]
        assert sorted(set(picked)) == ["exact", "kmeans"]
        assert picked[:2] != picked[1:3]  # it cycles rather than pinning one service

    def test_search_delegates(self, router, service_dataset):
        by_name = router.search_batch(
            service_dataset.queries, name="kmeans", k=5, probes=2
        )
        direct = router.service("kmeans").search_batch(
            service_dataset.queries, k=5, probes=2
        )
        np.testing.assert_array_equal(by_name.ids, direct.ids)
        single = router.search(service_dataset.queries[0], name="exact", k=3)
        assert single.ids.shape == (3,)

    def test_stats_cover_all_services(self, router, service_dataset):
        router.search_batch(service_dataset.queries, name="kmeans", k=3, probes=1)
        stats = router.stats()
        assert stats["n_services"] == 2
        assert stats["services"]["kmeans"]["queries"] == service_dataset.n_queries

    def test_deployment_roundtrip_serves_identical_results(
        self, router, service_dataset, tmp_path
    ):
        """Acceptance: >= 2 named indexes survive save/restore bit-for-bit."""
        deployment = tmp_path / "deployment"
        router.save(deployment)
        reloaded = Router.load(deployment)
        assert reloaded.names() == router.names()
        for name in router.names():
            before = router.search_batch(service_dataset.queries, name=name, k=5, probes=2)
            after = reloaded.search_batch(service_dataset.queries, name=name, k=5, probes=2)
            np.testing.assert_array_equal(before.ids, after.ids)
            np.testing.assert_array_equal(before.distances, after.distances)
        # service configuration (cache size, default request) is restored too
        assert reloaded.service("kmeans").cache is not None
        assert reloaded.service("kmeans").cache.max_entries == 16

    def test_manifest_written_by_an_earlier_version_still_loads(
        self, router, service_dataset, tmp_path
    ):
        """``max_workers`` / ``parallel_threshold`` were service options once."""
        deployment = router.save(tmp_path / "deployment")
        manifest_file = deployment / "router.json"
        manifest = json.loads(manifest_file.read_text())
        for config in manifest["services"].values():
            config.update(max_workers=4, parallel_threshold=512)
        manifest_file.write_text(json.dumps(manifest))
        reloaded = Router.load(deployment)
        before = router.search_batch(service_dataset.queries, name="kmeans", k=5, probes=2)
        after = reloaded.search_batch(service_dataset.queries, name="kmeans", k=5, probes=2)
        np.testing.assert_array_equal(before.ids, after.ids)
        assert "max_workers" not in reloaded.service("kmeans").service_config()

    def test_save_empty_router_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="empty router"):
            Router().save(tmp_path / "empty")

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="not a saved router"):
            Router.load(tmp_path / "nothing")


class TestSweepIntegration:
    def test_sweeps_accept_services(self, kmeans_index, service_dataset):
        from repro.eval import accuracy_candidate_curve, throughput_accuracy_curve

        service = SearchService(kmeans_index)
        curve = accuracy_candidate_curve(
            service, service_dataset, k=5, probes=[1, 2], measure_time=True
        )
        assert len(curve.points) == 2
        assert all(p.queries_per_second > 0 for p in curve.points)
        fig7 = throughput_accuracy_curve(service, service_dataset, k=5, probes=[1, 2])
        assert all(p.queries_per_second > 0 for p in fig7.points)
        # the shared service accumulated every sweep query in its counters
        assert service.stats()["queries"] == 4 * service_dataset.n_queries
