"""The two contracts the serving stack reads members from directly.

* :class:`repro.service.Service` — what a router, a tenant registry or
  the HTTP server reads from a hosted target: ``name``, ``collection``,
  ``capabilities``, ``dim``, ``batch_size``, ``resolve_request`` and
  ``cache_tag``.  Its four implementers are checked here side by side.
* :class:`repro.api.MutableIndex` — what the storage and serving layers
  read from a mutable index: the mutation gauges, ``total_rows`` and
  ``contains``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexCapabilities, MutableIndex, make_index
from repro.net import SearchServer, ServerConfig, request_json
from repro.replica import Primary, ReplicaGroup
from repro.service import QueryRequest, SearchService, Service
from repro.service.cache import QueryCache
from repro.store import Collection
from repro.tenant import TenantGateway, TenantRegistry

DIM = 8
SERVICE_MEMBERS = ("name", "collection", "capabilities", "dim", "batch_size")
MUTABLE_MEMBERS = (
    "version", "n_pending", "n_tombstones", "total_rows", "mutation_pressure",
    "add", "remove", "compact", "contains",
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(39)
    return rng.standard_normal((120, DIM)), rng.standard_normal((6, DIM))


def sharded(base):
    return make_index("sharded-bruteforce", n_shards=2).build(base)


def service_over_index(base, tmp_path):
    return SearchService(make_index("bruteforce").build(base), name="plain")


def service_over_collection(base, tmp_path):
    return SearchService(Collection.create(tmp_path / "c", sharded(base)))


def gateway(base, tmp_path):
    return TenantGateway("t", service_over_index(base, tmp_path))


def replica_group(base, tmp_path):
    return ReplicaGroup(Primary(Collection.create(tmp_path / "g", sharded(base))))


IMPLEMENTERS = {
    "service-index": service_over_index,
    "service-collection": service_over_collection,
    "gateway": gateway,
    "replica-group": replica_group,
}


@pytest.mark.parametrize("kind", sorted(IMPLEMENTERS))
def test_every_implementer_keeps_the_service_contract(kind, data, tmp_path):
    base, queries = data
    target = IMPLEMENTERS[kind](base, tmp_path)
    assert isinstance(target, Service)
    members = {member: getattr(target, member) for member in SERVICE_MEMBERS}
    assert isinstance(members["name"], str) and members["name"]
    assert (members["collection"] is None) == (kind in ("service-index", "gateway"))
    assert isinstance(members["capabilities"], IndexCapabilities)
    assert members["dim"] == DIM
    assert members["batch_size"] >= 1
    assert target.resolve_request(k=4).k == 4

    # Only a plain service can vouch that a cached answer is fresh, so
    # only in front of one does a gateway consult its cache partition.
    vouches = target.cache_tag() is not None
    assert vouches == isinstance(target, SearchService)
    front = TenantGateway("front", target, cache=QueryCache(64))
    front.search_batch(queries, k=3)
    again = front.search_batch(queries, k=3)
    assert again.cache_hits == (queries.shape[0] if vouches else 0)


def test_a_tenant_over_a_replica_group_keeps_the_default_request(data, tmp_path):
    base, queries = data
    group = ReplicaGroup(
        Primary(Collection.create(tmp_path / "g", sharded(base))),
        default_request=QueryRequest(k=3),
    )
    assert group.search_batch(queries).ids.shape == (queries.shape[0], 3)
    assert TenantGateway("t", group).search_batch(queries).ids.shape == (
        queries.shape[0],
        3,
    )


def test_a_built_sharded_index_has_every_mutable_member(data):
    base, _ = data
    index = sharded(base)
    assert isinstance(index, MutableIndex)
    for member in MUTABLE_MEMBERS:
        assert hasattr(index, member), member
    index.remove([0, 1])
    assert (index.n_tombstones, index.total_rows) == (2, base.shape[0])
    assert index.contains([0, 2, base.shape[0]]).tolist() == [False, True, False]
    assert index.mutation_pressure == pytest.approx(2 / (base.shape[0] - 2))


def test_the_mutable_test_fake_keeps_the_contract(data):
    from test_net import ThreadRecordingIndex

    index = ThreadRecordingIndex().build(data[0])
    assert index.capabilities.mutable and isinstance(index, MutableIndex)
    gauges = SearchService(index).stats()["mutation"]
    assert gauges["n_live"] == data[0].shape[0] and gauges["mutation_pressure"] == 0


def test_stats_carry_the_tracing_block_once(data, tmp_path):
    base, _ = data
    group = replica_group(base, tmp_path)
    registry = TenantRegistry()
    registry.add_namespace("ns", group)
    registry.create_tenant("acme", "ns")
    with SearchServer(group, tenants=registry, config=ServerConfig(port=0)) as server:
        status, stats = request_json(server.url + "/stats")
    assert status == 200
    assert "sample_rate" in stats["tracing"]
    assert "tracing" not in stats["services"][group.name]
    assert "tracing" not in stats["tenants"]
    assert "tracing" not in stats["tenants"]["tenants"]["acme"]
