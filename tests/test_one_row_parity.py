"""A single query is a one-row batch at every layer.

* every registered index's ``query(q, k, **kw)`` is bitwise row 0 of
  ``batch_query(q[None], k, **kw)``;
* every serving target's ``search(q)`` is ``search_batch(q[None])`` —
  same ids, distances and ``cached`` flag, and the same counters
  (service queries/batches, cache hits/misses/evictions, tenant rows and
  qps tokens, replica dispatch and session tokens);
* a traced single query records the span tree it always has.

Service kinds run as twin stacks driven in lockstep — one twin answers
through ``search``, the other through ``search_batch`` — so their stats
must stay equal after every call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_index
from repro.datasets import sift_like
from repro.filter import AttributeStore, Eq
from repro.obs import Tracer, TracingConfig, activate, deactivate
from repro.replica import Follower, Primary, ReplicaGroup, SessionToken
from repro.service import QueryRequest, Router, SearchService
from repro.store import Collection
from repro.tenant import TenantConfig, TenantGateway, TenantRegistry
from test_api_registry import TINY_PARAMS

DIM = 16
N = 300
POOL = np.random.default_rng(17).normal(size=(8, DIM))
REQUEST = QueryRequest(k=5)
#: stats fields that measure time, not events
TIMING = ("second", "latency", "p50", "p95", "p99", "mean", "path", "tracing")


def _base() -> np.ndarray:
    return sift_like(n_points=N, n_queries=4, dim=DIM, n_clusters=4, seed=5).base


def _frozen_clock() -> float:
    return 0.0


# ---------------------------------------------------------------------- #
# indexes: query() == row 0 of a one-row batch_query()
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def built_indexes():
    base = _base()
    return {name: make_index(name, **params).build(base) for name, params in TINY_PARAMS.items()}


@pytest.mark.parametrize("name", sorted(TINY_PARAMS))
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(1, 12),
    probes=st.none() | st.integers(1, 4),
    filtered=st.booleans(),
)
def test_index_query_is_row_zero_of_a_one_row_batch(
    built_indexes, name, seed, k, probes, filtered
):
    index = built_indexes[name]
    capabilities = type(index).capabilities
    kwargs = {}
    if capabilities.probe_parameter is not None:
        kwargs.update(capabilities.query_kwargs(probes))
    if filtered and capabilities.filterable:
        kwargs["filter"] = np.arange(0, N, 3)
    query = np.random.default_rng(seed).normal(size=DIM)
    ids, distances = index.query(query, k, **kwargs)
    batch_ids, batch_distances = index.batch_query(query[None], k, **kwargs)
    assert ids.dtype == batch_ids.dtype and distances.dtype == batch_distances.dtype
    np.testing.assert_array_equal(ids, batch_ids[0])
    np.testing.assert_array_equal(distances, batch_distances[0])


# ---------------------------------------------------------------------- #
# services: search() == search_batch() of one row, counters included
# ---------------------------------------------------------------------- #
def _owners(n: int) -> AttributeStore:
    store = AttributeStore()
    store.add_categorical("owner", ["acme" if i % 2 else "globex" for i in range(n)])
    return store


def _index(name: str = "sharded-sq8", **params):
    index = make_index(name, **params).build(_base())
    index.set_attributes(_owners(N))
    return index


class _Stack:
    """One twin: the target, what to call it with, what to compare."""

    def __init__(self, target, stats, kwargs=None):
        self.target, self.stats, self.kwargs = target, stats, kwargs or {}


def _service_cache(root):
    service = SearchService(_index(n_shards=2), cache_size=6)
    return _Stack(service, service.stats)


def _service_nocache(root):
    service = SearchService(_index("bruteforce"))
    return _Stack(service, service.stats)


def _collection(root):
    collection = Collection.create(root / "collection", _index("sharded", n_shards=2))
    service = SearchService(collection, cache_size=6)
    return _Stack(service, service.stats)


def _tenant_acl(root):
    service = SearchService(_index("bruteforce"), cache_size=6)
    gateway = TenantGateway(
        "acme",
        service,
        TenantConfig(acl=Eq("owner", "acme"), qps=1e6, qps_burst=1e6),
        clock=_frozen_clock,
    )
    return _Stack(gateway, lambda: [gateway.stats(), service.stats()])


def _tenant_partition(root):
    service = SearchService(_index(n_shards=2), cache_size=6)
    registry = TenantRegistry(cache_budget_bytes=900, clock=_frozen_clock)
    registry.add_namespace("ns", service)
    gateway = registry.create_tenant("p", "ns", TenantConfig(qps=1e6, qps_burst=1e6))
    return _Stack(gateway, lambda: [registry.stats(), service.stats()])


def _replica(root):
    collection = Collection.create(root / "primary", _index("sharded", n_shards=2))
    primary = Primary(collection)
    follower = Follower.bootstrap(root / "replica", primary)
    group = ReplicaGroup(primary, [follower], cache_size=6)
    token = SessionToken()
    return _Stack(
        group,
        lambda: [group.stats(), follower.service().stats(), token.as_dict()],
        {"session": token},
    )


def _router(root):
    router = Router()
    router.add_service("a", SearchService(_index("bruteforce"), cache_size=4))
    router.add_service("b", SearchService(_index(n_shards=2)))
    return _Stack(router, router.stats)


KINDS = {
    "service-cache": _service_cache,
    "service-nocache": _service_nocache,
    "collection": _collection,
    "tenant-acl": _tenant_acl,
    "tenant-partition": _tenant_partition,
    "replica": _replica,
    "router": _router,
}


def _close(stack: _Stack) -> None:
    collection = getattr(stack.target, "collection", None)
    if collection is not None:
        collection.close()
    for follower in getattr(stack.target, "followers", ()):
        follower.collection.close()


def _counters(stats):
    if isinstance(stats, dict):
        return {
            key: _counters(value)
            for key, value in stats.items()
            if not any(word in key for word in TIMING)
        }
    if isinstance(stats, (list, tuple)):
        return [_counters(value) for value in stats]
    return stats


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    pairs = {
        kind: tuple(build(tmp_path_factory.mktemp(f"{kind}-{side}")) for side in "ab")
        for kind, build in KINDS.items()
    }
    yield pairs
    for pair in pairs.values():
        for stack in pair:
            _close(stack)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8),
)
def test_search_is_a_one_row_search_batch(twins, kind, rows):
    single, batched = twins[kind]
    for row in rows:
        result = single.target.search(POOL[row], REQUEST, **single.kwargs)
        batch = batched.target.search_batch(POOL[row][None], REQUEST, **batched.kwargs)
        assert result.ids.shape == (REQUEST.k,)
        np.testing.assert_array_equal(result.ids, batch.ids[0])
        np.testing.assert_array_equal(result.distances, batch.distances[0])
        assert result.cached == (batch.cache_hits == 1)
        assert result.request == batch.request
        assert _counters(single.stats()) == _counters(batched.stats())


# ---------------------------------------------------------------------- #
# traces: a single query keeps its span names and parents
# ---------------------------------------------------------------------- #
_SQ8_SCANS = [
    ("shard.scan", "service.search"),
    ("quant.scan", "shard.scan"),
    ("quant.rerank", "shard.scan"),
] * 2 + [("shard.merge", "service.search")]
_FLAT_SCANS = [("shard.scan", "service.search")] * 2 + [("shard.merge", "service.search")]
#: (kind, first call misses?) -> the span tree a single query records
EXPECTED_SPANS = {
    ("service-cache", True): [
        ("root", None),
        ("service.search", "root"),
        ("service.cache", "service.search"),
        *_SQ8_SCANS,
    ],
    ("service-cache", False): [
        ("root", None),
        ("service.search", "root"),
        ("service.cache", "service.search"),
    ],
    ("service-nocache", True): [("root", None), ("service.search", "root")],
    ("collection", True): [
        ("root", None),
        ("service.search", "root"),
        ("service.cache", "service.search"),
        *_FLAT_SCANS,
    ],
    ("tenant-partition", True): [
        ("root", None),
        ("tenant.acl_quota", "root"),
        ("service.search", "root"),
        ("service.cache", "service.search"),
        *_SQ8_SCANS,
    ],
    ("tenant-partition", False): [("root", None), ("tenant.acl_quota", "root")],
    ("replica", True): [("root", None), ("service.search", "root"), *_FLAT_SCANS],
}


def _span_tree(target, query, kwargs):
    tracer = Tracer(TracingConfig())
    trace = tracer.begin("root")
    token = activate(trace)
    try:
        target.search(query, REQUEST, **kwargs)
    finally:
        deactivate(token)
    spans = tracer.finish(trace)["spans"]
    names = {span["span_id"]: span["name"] for span in spans}
    return [(span["name"], names.get(span["parent_id"])) for span in spans]


@pytest.mark.parametrize("kind, miss", sorted(EXPECTED_SPANS))
def test_traced_single_query_keeps_its_span_tree(tmp_path, kind, miss):
    stack = KINDS[kind](tmp_path)
    query = np.random.default_rng(99).normal(size=DIM)
    if not miss:
        stack.target.search(query, REQUEST, **stack.kwargs)
    try:
        assert _span_tree(stack.target, query, stack.kwargs) == EXPECTED_SPANS[(kind, miss)]
    finally:
        _close(stack)
