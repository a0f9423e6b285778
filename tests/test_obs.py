"""Tests for the observability layer (``repro.obs``) and its integrations.

The guarantees under test:

* tracing primitives: traceparent round-trips, spans nest and time
  correctly, the no-op path allocates nothing when sampling is off;
* sampling policy: head sampling obeys the rate, a propagated sampled
  flag wins over the local coin flip, slow/errored requests are
  tail-sampled as root-only traces;
* the span tree of a real query is **complete and well-nested** across
  every stack shape — plain, sharded, quantized, sharded-quantized,
  tenant-gated (hypothesis property);
* one HTTP request against a tenant-scoped sharded quantized namespace
  produces one retrievable trace at ``/debug/traces/<id>`` with the full
  per-stage breakdown, and a trace id survives client → server →
  replication poll;
* ``/metrics`` from a server running every layer at once passes the
  Prometheus text-format lint;
* ``/healthz`` stays liveness (200 mid-drain) while ``/readyz`` flips
  503 and reports replica role and lag.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_index
from repro.net import SearchServer, ServerConfig, ServerMetrics, request_json
from repro.obs import (
    NOOP_SPAN,
    SlowQueryLog,
    Span,
    TraceContext,
    TraceStore,
    Tracer,
    TracingConfig,
    activate,
    current_trace,
    current_traceparent,
    deactivate,
    format_traceparent,
    lint_prometheus_text,
    new_trace_id,
    parse_traceparent,
    span,
    validate_span_tree,
)
from repro.replica import Follower, HttpReplicationSource, Primary, ReplicaGroup
from repro.service import QueryRequest, SearchService
from repro.store import Collection
from repro.tenant import TenantConfig, TenantRegistry

DIM = 10


# ---------------------------------------------------------------------- #
# fixtures and helpers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(71)
    base = rng.standard_normal((240, DIM)).astype(np.float32)
    queries = rng.standard_normal((8, DIM)).astype(np.float32)
    return base, queries


def http_call(url, *, method="GET", body=None, headers=None, timeout=30.0):
    """Like request_json but also returns the response headers."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            return response.status, dict(response.headers), json.loads(raw or b"null")
    except urllib.error.HTTPError as error:
        raw = error.read()
        return error.code, dict(error.headers), json.loads(raw) if raw else None


def traced(callable_, *, name="test.root", tracer=None):
    """Run ``callable_`` under a fresh trace; returns (result, payload)."""
    tracer = tracer or Tracer(TracingConfig())
    trace = tracer.begin(name)
    token = activate(trace)
    try:
        result = callable_()
    finally:
        deactivate(token)
    return result, tracer.finish(trace)


# ---------------------------------------------------------------------- #
# traceparent propagation format
# ---------------------------------------------------------------------- #
class TestTraceparent:
    @settings(max_examples=40, deadline=None)
    @given(
        trace_bits=st.integers(min_value=1, max_value=2**128 - 1),
        span_bits=st.integers(min_value=1, max_value=2**64 - 1),
        sampled=st.booleans(),
    )
    def test_round_trip(self, trace_bits, span_bits, sampled):
        trace_id = f"{trace_bits:032x}"
        span_id = f"{span_bits:016x}"
        parsed = parse_traceparent(format_traceparent(trace_id, span_id, sampled))
        assert parsed == (trace_id, span_id, sampled)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            "00-abc-def-01",  # wrong field widths
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex trace id
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "1" * 32 + "-" + "1" * 16 + "-01-extra",
        ],
    )
    def test_malformed_headers_are_ignored(self, header):
        assert parse_traceparent(header) is None

    def test_unsampled_flag_parses_false(self):
        trace_id, span_id = new_trace_id(), "ab" * 8
        parsed = parse_traceparent(format_traceparent(trace_id, span_id, False))
        assert parsed == (trace_id, span_id, False)


# ---------------------------------------------------------------------- #
# span primitives
# ---------------------------------------------------------------------- #
class TestSpanPrimitives:
    def test_span_without_active_trace_is_the_shared_noop(self):
        assert current_trace() is None
        assert span("anything", attr=1) is NOOP_SPAN
        with span("still.noop") as s:
            assert s.set(x=2) is NOOP_SPAN

    def test_nested_spans_parent_correctly_and_time_forward(self):
        def work():
            with span("outer", layer=1):
                with span("inner"):
                    time.sleep(0.002)

        _, payload = traced(work)
        names = [s["name"] for s in payload["spans"]]
        assert names == ["test.root", "outer", "inner"]
        by_name = {s["name"]: s for s in payload["spans"]}
        assert by_name["outer"]["parent_id"] == by_name["test.root"]["span_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["duration_seconds"] >= 0.002
        assert by_name["outer"]["attributes"] == {"layer": 1}
        assert validate_span_tree(payload) == []

    def test_exception_marks_span_errored_but_still_records(self):
        def work():
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")

        _, payload = traced(work)
        doomed = next(s for s in payload["spans"] if s["name"] == "doomed")
        assert doomed["status"] == "error"
        assert "ValueError" in doomed["attributes"]["error"]

    def test_record_explicit_interval_with_parent(self):
        tracer = Tracer(TracingConfig())
        trace = tracer.begin("root")
        start = time.perf_counter()
        trace.record("queued.work", start, start + 0.5, rows=7)
        payload = tracer.finish(trace, end=start + 1.0)
        queued = next(s for s in payload["spans"] if s["name"] == "queued.work")
        assert queued["parent_id"] == payload["spans"][0]["span_id"]
        assert queued["duration_seconds"] == pytest.approx(0.5)
        assert queued["attributes"] == {"rows": 7}
        assert validate_span_tree(payload) == []

    def test_max_spans_cap_counts_drops_instead_of_growing(self):
        tracer = Tracer(TracingConfig(max_spans_per_trace=3))
        trace = tracer.begin("root")
        token = activate(trace)
        try:
            for i in range(10):
                with span(f"s{i}"):
                    pass
        finally:
            deactivate(token)
        payload = tracer.finish(trace)
        assert len(payload["spans"]) == 4  # root + 3 kept
        assert payload["spans_dropped"] == 7
        assert tracer.stats()["spans_dropped"] == 7

    def test_current_traceparent_reflects_innermost_span(self):
        tracer = Tracer(TracingConfig())
        trace = tracer.begin("root")
        token = activate(trace)
        try:
            outer_header = current_traceparent()
            assert parse_traceparent(outer_header)[0] == trace.trace_id
            with span("child"):
                inner_header = current_traceparent()
            assert inner_header != outer_header
            assert parse_traceparent(inner_header)[0] == trace.trace_id
        finally:
            deactivate(token)
        tracer.finish(trace)


# ---------------------------------------------------------------------- #
# sampling policy
# ---------------------------------------------------------------------- #
class TestSampling:
    def test_rate_zero_never_starts_and_rate_one_always_does(self):
        off = Tracer(TracingConfig(sample_rate=0.0))
        assert all(off.begin("q") is None for _ in range(50))
        assert off.stats()["traces_finished"] == off.stats()["spans_recorded"] == 0
        on = Tracer(TracingConfig(sample_rate=1.0))
        assert all(on.begin("q") is not None for _ in range(50))

    def test_fractional_rate_is_roughly_honored(self):
        tracer = Tracer(TracingConfig(sample_rate=0.25))
        kept = sum(tracer.begin("q") is not None for _ in range(2000))
        assert 300 < kept < 700  # ~500 expected; generous bounds

    def test_propagated_sampled_flag_wins_over_local_rate(self):
        tracer = Tracer(TracingConfig(sample_rate=0.0))
        header = format_traceparent(new_trace_id(), "ab" * 8, True)
        trace = tracer.begin("q", traceparent=header)
        assert trace is not None and trace.origin == "propagated"

        unsampled = format_traceparent(new_trace_id(), "ab" * 8, False)
        always = Tracer(TracingConfig(sample_rate=1.0))
        assert always.begin("q", traceparent=unsampled) is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TracingConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            TracingConfig(slow_threshold_seconds=0.0)
        with pytest.raises(ValueError):
            TracingConfig(max_spans_per_trace=0)

    def test_tail_rules_keep_slow_and_errored(self):
        tracer = Tracer(TracingConfig(sample_rate=0.0, slow_threshold_seconds=0.1))
        assert tracer.should_tail_sample(0.2, 200)
        assert tracer.should_tail_sample(0.01, 500)
        assert tracer.should_tail_sample(0.01, "aborted")
        assert not tracer.should_tail_sample(0.01, 200)
        assert not tracer.should_tail_sample(0.01, "ok")
        payload = tracer.tail_record("http.query", 0.2, status=200)
        assert payload["origin"] == "tail"
        assert len(payload["spans"]) == 1
        assert payload["duration_seconds"] == pytest.approx(0.2, abs=1e-6)
        assert tracer.stats()["tail_sampled"] == 1

    def test_finish_feeds_per_stage_histograms(self):
        tracer = Tracer(TracingConfig())
        _, _ = traced(lambda: [span("stage.a").__enter__().__exit__(None, None, None)
                               for _ in range(3)], tracer=tracer)
        histograms = tracer.stage_histograms()
        assert histograms["stage.a"].total == 3
        assert histograms["test.root"].total == 1


# ---------------------------------------------------------------------- #
# retention: ring buffer + slow log
# ---------------------------------------------------------------------- #
class TestRetention:
    def test_ring_evicts_oldest_and_counts_drops(self):
        store = TraceStore(capacity=3)
        for i in range(5):
            store.put({"trace_id": f"t{i}", "spans": []})
        assert len(store) == 3
        assert store.dropped == 2
        assert store.get("t0") == [] and store.get("t1") == []
        assert [t["trace_id"] for t in store.snapshot()] == ["t2", "t3", "t4"]
        assert store.list(limit=2)[0]["trace_id"] == "t4"  # newest first

    def test_get_returns_every_trace_with_the_id_oldest_first(self):
        store = TraceStore(capacity=8)
        store.put({"trace_id": "shared", "name": "a", "spans": []})
        store.put({"trace_id": "other", "name": "b", "spans": []})
        store.put({"trace_id": "shared", "name": "c", "spans": []})
        assert [t["name"] for t in store.get("shared")] == ["a", "c"]

    def test_jsonl_round_trips(self, tmp_path):
        store = TraceStore(capacity=4)
        store.put({"trace_id": "t1", "spans": [], "duration_seconds": 0.5})
        path = tmp_path / "traces.jsonl"
        assert store.export_jsonl(path) == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["trace_id"] == "t1"
        assert store.to_jsonl() == path.read_text()

    def test_slow_log_keeps_worst_regardless_of_recency(self):
        log = SlowQueryLog(size=3)
        for i, duration in enumerate([0.5, 0.1, 0.9, 0.05, 0.7, 0.2]):
            log.offer({"trace_id": f"t{i}", "duration_seconds": duration})
        worst = [t["duration_seconds"] for t in log.worst()]
        assert worst == [0.9, 0.7, 0.5]
        assert log.threshold() == pytest.approx(0.5)
        assert log.worst(1)[0]["duration_seconds"] == 0.9

    def test_validate_span_tree_flags_structural_damage(self):
        clean = {
            "spans": [
                {"span_id": "r", "parent_id": None, "name": "root",
                 "start_offset_seconds": 0.0, "duration_seconds": 1.0},
                {"span_id": "c", "parent_id": "r", "name": "child",
                 "start_offset_seconds": 0.1, "duration_seconds": 0.5},
            ]
        }
        assert validate_span_tree(clean) == []
        escaping = json.loads(json.dumps(clean))
        escaping["spans"][1]["duration_seconds"] = 2.0
        assert any("escapes parent" in p for p in validate_span_tree(escaping))
        two_roots = json.loads(json.dumps(clean))
        two_roots["spans"][1]["parent_id"] = None
        assert any("exactly one root" in p for p in validate_span_tree(two_roots))
        assert validate_span_tree({"spans": []}) == ["trace has no spans"]


# ---------------------------------------------------------------------- #
# hypothesis: complete, well-nested trees across every stack shape
# ---------------------------------------------------------------------- #
def _build_stacks(base):
    """name -> (service-shaped target, stages that must appear)."""
    plain = SearchService(make_index("bruteforce").build(base))
    sharded = SearchService(
        make_index("sharded-bruteforce", n_shards=2).build(base)
    )
    quant = SearchService(make_index("sq8").build(base))
    sharded_quant = SearchService(
        make_index("sharded", n_shards=2, spec="sq8").build(base)
    )
    registry = TenantRegistry()
    registry.add_namespace("ns", sharded_quant)
    tenant = registry.create_tenant("acme", "ns", TenantConfig(qps=1e9))
    return {
        "plain": (plain, {"service.search"}),
        "sharded": (sharded, {"service.search", "shard.scan", "shard.merge"}),
        "quant": (quant, {"service.search", "quant.scan", "quant.rerank"}),
        "sharded-quant": (
            sharded_quant,
            {"service.search", "shard.scan", "quant.scan", "quant.rerank"},
        ),
        "tenant": (
            tenant,
            {"tenant.acl_quota", "service.search", "shard.scan", "quant.scan"},
        ),
    }


@pytest.fixture(scope="module")
def stacks(data):
    base, _ = data
    return _build_stacks(base)


class TestSpanTreeProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        stack=st.sampled_from(["plain", "sharded", "quant", "sharded-quant", "tenant"]),
        batched=st.booleans(),
    )
    def test_tree_is_complete_and_well_nested(self, stacks, seed, stack, batched):
        target, required = stacks[stack]
        rng = np.random.default_rng(seed)
        tracer = Tracer(TracingConfig())

        def run():
            if batched:
                return target.search_batch(
                    rng.standard_normal((3, DIM)), QueryRequest(k=5)
                )
            return target.search(rng.standard_normal(DIM), QueryRequest(k=5))

        _, payload = traced(run, tracer=tracer)
        assert validate_span_tree(payload) == [], validate_span_tree(payload)
        names = {s["name"] for s in payload["spans"]}
        assert required <= names, f"missing {required - names} in {sorted(names)}"
        assert payload["spans_dropped"] == 0
        # every span landed inside the root's wall-clock window
        root = payload["spans"][0]
        for child in payload["spans"][1:]:
            assert child["duration_seconds"] <= root["duration_seconds"] + 1e-6

    def test_one_scan_span_per_shard_parented_in_the_request(self, stacks):
        target, _ = stacks["sharded"]
        _, payload = traced(
            lambda: target.search_batch(np.zeros((3, DIM)), QueryRequest(k=5))
        )
        assert validate_span_tree(payload) == []
        by_id = {s["span_id"]: s for s in payload["spans"]}
        scans = [s for s in payload["spans"] if s["name"] == "shard.scan"]
        assert [s["attributes"]["shard"] for s in scans] == [0, 1]
        for scan in scans:
            assert by_id[scan["parent_id"]]["name"] == "service.search"

    def test_untraced_calls_record_nothing(self, stacks):
        target, _ = stacks["sharded-quant"]
        assert current_trace() is None
        result = target.search(np.zeros(DIM), QueryRequest(k=3))
        assert result.ids.shape == (3,)

    def test_scheduler_batch_span_lands_in_submitter_trace(self, data):
        base, _ = data
        registry = TenantRegistry()
        registry.add_namespace("ns", SearchService(make_index("bruteforce").build(base)))
        registry.create_tenant("acme", "ns", TenantConfig(qps=1e9))
        tracer = Tracer(TracingConfig())

        def run():
            future = registry.submit("acme", np.zeros((2, DIM)), QueryRequest(k=4))
            registry.scheduler.flush()
            return future.result(timeout=10)

        result, payload = traced(run, tracer=tracer)
        assert result.ids.shape == (2, 4)
        batch = next(s for s in payload["spans"] if s["name"] == "scheduler.batch")
        assert batch["attributes"]["tenant"] == "acme"
        assert batch["attributes"]["rows"] == 2
        assert validate_span_tree(payload) == []


# ---------------------------------------------------------------------- #
# the flagship HTTP acceptance path
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tenant_server(data):
    base, _ = data
    registry = TenantRegistry(cache_budget_bytes=1 << 20)
    registry.add_namespace(
        "products",
        SearchService(make_index("sharded", n_shards=2, spec="sq8").build(base)),
    )
    registry.create_tenant("acme", "products", TenantConfig(qps=1e9))
    with SearchServer(tenants=registry, config=ServerConfig(port=0)) as server:
        yield server


class TestHttpTracing:
    def test_one_request_produces_one_retrievable_stage_tree(self, tenant_server, data):
        _, queries = data
        body = {"vector": queries[0].tolist(), "request": {"k": 5}}
        wall_start = time.perf_counter()
        status, headers, wire = http_call(
            tenant_server.url + "/query",
            method="POST",
            body=body,
            headers={"X-Tenant": "acme"},
        )
        wall_seconds = time.perf_counter() - wall_start
        assert status == 200
        trace_id = headers.get("X-Trace-Id")
        assert trace_id, "traced responses must carry X-Trace-Id"

        status, _, debug = http_call(
            f"{tenant_server.url}/debug/traces/{trace_id}"
        )
        assert status == 200 and debug["trace_id"] == trace_id
        payload = debug["traces"][-1]
        assert validate_span_tree(payload) == [], validate_span_tree(payload)

        names = {s["name"] for s in payload["spans"]}
        required = {
            "http.parse",
            "admission.queue",
            "execute",
            "tenant.acl_quota",
            "service.search",
            "quant.scan",
            "quant.rerank",
            "serialize",
        }
        assert required <= names, f"missing {required - names} in {sorted(names)}"
        assert len(names) >= 6

        # the root accounts for the observed request latency: children
        # fit inside it and it fits inside the client's wall clock
        root = payload["spans"][0]
        assert root["name"] == "http.query"
        assert 0.0 < root["duration_seconds"] <= wall_seconds + 0.001
        direct = [
            s for s in payload["spans"][1:]
            if s["parent_id"] == root["span_id"]
        ]
        assert sum(s["duration_seconds"] for s in direct) <= (
            root["duration_seconds"] + 1e-3
        )

    def test_debug_traces_listing_and_jsonl_and_unknown_id(self, tenant_server, data):
        _, queries = data
        body = {"vector": queries[1].tolist(), "request": {"k": 3}}
        http_call(
            tenant_server.url + "/query", method="POST", body=body,
            headers={"X-Tenant": "acme"},
        )
        status, listing = request_json(tenant_server.url + "/debug/traces")
        assert status == 200
        assert listing["tracing"]["sample_rate"] == 1.0
        assert listing["traces"], "the ring should hold recent traces"
        assert {"trace_id", "name", "duration_seconds", "status", "origin", "n_spans"} \
            <= set(listing["traces"][0])

        status, text = request_json(tenant_server.url + "/debug/traces?format=jsonl")
        assert status == 200
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed and all("spans" in t for t in parsed)

        status, wire = request_json(tenant_server.url + "/debug/traces/feedfacedeadbeef")
        assert status == 404 and wire["error"]["code"] == "unknown_trace"

    def test_stats_and_stage_histograms_expose_tracing(self, tenant_server):
        status, stats = request_json(tenant_server.url + "/stats")
        assert status == 200
        assert stats["tracing"]["sample_rate"] == 1.0
        assert stats["tracing"]["traces_finished"] >= 1
        # the shared tracer surfaces through the tenant gateway stats too
        acme = stats["tenants"]["tenants"]["acme"]
        assert acme["tracing"]["sample_rate"] == 1.0

        status, text = request_json(tenant_server.url + "/metrics")
        assert status == 200
        assert 'repro_stage_seconds_bucket{stage="service.search",le="+Inf"}' in text
        assert 'repro_stage_seconds_count{stage="http.query"}' in text
        # /debug/traces/<id> fetches must not mint one stage label per
        # trace id — the path's id segment is normalized to :id
        for line in text.splitlines():
            assert 'stage="http.debug/traces/' not in line or "/:id" in line, line

    def test_client_trace_id_survives_the_http_hop(self, tenant_server, data):
        _, queries = data
        tracer = Tracer(TracingConfig())
        client_trace = tracer.begin("client.call")
        token = activate(client_trace)
        try:
            # request_json injects the traceparent of the active trace
            status, _ = request_json(
                tenant_server.url + "/query",
                method="POST",
                body={"vector": queries[2].tolist(), "request": {"k": 3}},
                headers={"X-Tenant": "acme"},
            )
        finally:
            deactivate(token)
        tracer.finish(client_trace)
        assert status == 200
        status, debug = request_json(
            f"{tenant_server.url}/debug/traces/{client_trace.trace_id}"
        )
        assert status == 200
        assert debug["traces"][-1]["origin"] == "propagated"
        assert debug["traces"][-1]["name"] == "http.query"


class TestSamplingOverHttp:
    def test_sampling_off_is_invisible_and_tail_keeps_slow(self, data):
        base, queries = data
        service = SearchService(make_index("bruteforce").build(base))
        config = ServerConfig(
            port=0, trace_sample_rate=0.0, slow_trace_seconds=1e-9
        )
        with SearchServer(service, config=config) as server:
            body = {"vector": queries[0].tolist(), "request": {"k": 3}}
            status, headers, _ = http_call(
                server.url + "/query", method="POST", body=body
            )
            assert status == 200
            assert "X-Trace-Id" not in headers  # head sampling declined
            # ...but the tail rule (absurdly low slow threshold) kept a
            # root-only record of the slow request
            status, listing = request_json(server.url + "/debug/traces")
            assert status == 200
            origins = {t["origin"] for t in listing["traces"]}
            assert origins == {"tail"}
            assert all(t["n_spans"] == 1 for t in listing["traces"])
            assert listing["tracing"]["tail_sampled"] >= 1

    def test_trace_id_survives_client_server_replication_poll(self, tmp_path, data):
        base, _ = data
        index = make_index("sharded-bruteforce", n_shards=2).build(base)
        collection = Collection.create(tmp_path / "primary", index)
        primary = Primary(collection)
        with SearchServer(
            collection, replication=primary, config=ServerConfig(port=0)
        ) as server:
            follower = Follower.bootstrap(
                tmp_path / "replica", HttpReplicationSource.from_url(server.url)
            )
            collection.add(np.random.default_rng(3).standard_normal((4, DIM)))

            tracer = Tracer(TracingConfig())
            trace = tracer.begin("ops.catchup")
            token = activate(trace)
            try:
                applied = follower.sync()
            finally:
                deactivate(token)
            payload = tracer.finish(trace)
            assert applied == 1  # one WAL batch record

            # follower side: the sync span landed in the client trace
            sync = next(s for s in payload["spans"] if s["name"] == "replica.sync")
            assert sync["attributes"]["follower"] == follower.name
            assert sync["attributes"]["applied"] == 1
            assert validate_span_tree(payload) == []

            # primary side: the replication poll joined the same trace
            status, debug = request_json(
                f"{server.url}/debug/traces/{trace.trace_id}"
            )
            assert status == 200
            server_traces = debug["traces"]
            assert all(t["origin"] == "propagated" for t in server_traces)
            assert any(t["name"] == "http.replicate" for t in server_traces)


# ---------------------------------------------------------------------- #
# Prometheus text-format lint
# ---------------------------------------------------------------------- #
_STATS_SERIES_PAGE = r'''# HELP repro_service_queries_total Queries served.
# TYPE repro_service_queries_total counter
repro_service_queries_total{service="alpha"} 0
repro_service_queries_total{service="beta"} 7
# HELP repro_service_batches_total Batches served.
# TYPE repro_service_batches_total counter
repro_service_batches_total{service="alpha"} 0
repro_service_batches_total{service="beta"} 2
# HELP repro_service_cache_hits_total Result-cache hits.
# TYPE repro_service_cache_hits_total counter
repro_service_cache_hits_total{service="alpha"} 0
repro_service_cache_hits_total{service="beta"} 3
# HELP repro_service_query_seconds_total Total time spent answering queries.
# TYPE repro_service_query_seconds_total counter
repro_service_query_seconds_total{service="alpha"} 0
repro_service_query_seconds_total{service="beta"} 0.25
# HELP repro_service_queries_per_second Recent serving throughput.
# TYPE repro_service_queries_per_second gauge
repro_service_queries_per_second{service="alpha"} 0
repro_service_queries_per_second{service="beta"} 28
# HELP repro_service_cache_hit_ratio Cache hits over queries.
# TYPE repro_service_cache_hit_ratio gauge
repro_service_cache_hit_ratio{service="alpha"} 0
repro_service_cache_hit_ratio{service="beta"} 0.5
# HELP repro_service_mean_latency_ms Mean per-query latency (ms).
# TYPE repro_service_mean_latency_ms gauge
repro_service_mean_latency_ms{service="beta"} 1.5
# HELP repro_service_p50_latency_ms Median per-query latency (ms).
# TYPE repro_service_p50_latency_ms gauge
repro_service_p50_latency_ms{service="beta"} 1.25
# HELP repro_service_p95_latency_ms 95th percentile per-query latency (ms).
# TYPE repro_service_p95_latency_ms gauge
repro_service_p95_latency_ms{service="beta"} 2.75
# HELP repro_mutation_n_pending mutation gauge n_pending from SearchService.stats().
# TYPE repro_mutation_n_pending gauge
repro_mutation_n_pending{service="alpha"} 0
repro_mutation_n_pending{service="beta"} 4
# HELP repro_mutation_n_tombstones mutation gauge n_tombstones from SearchService.stats().
# TYPE repro_mutation_n_tombstones gauge
repro_mutation_n_tombstones{service="beta"} 1
# HELP repro_mutation_mutation_pressure mutation gauge mutation_pressure from SearchService.stats().
# TYPE repro_mutation_mutation_pressure gauge
repro_mutation_mutation_pressure{service="beta"} 0.125
# HELP repro_collection_generation collection gauge generation from SearchService.stats().
# TYPE repro_collection_generation gauge
repro_collection_generation{service="beta"} 3
# HELP repro_collection_last_seq collection gauge last_seq from SearchService.stats().
# TYPE repro_collection_last_seq gauge
repro_collection_last_seq{service="beta"} 17
# HELP repro_collection_wal_ops collection gauge wal_ops from SearchService.stats().
# TYPE repro_collection_wal_ops gauge
repro_collection_wal_ops{service="beta"} 5
# HELP repro_collection_wal_bytes collection gauge wal_bytes from SearchService.stats().
# TYPE repro_collection_wal_bytes gauge
repro_collection_wal_bytes{service="beta"} 2048
# HELP repro_tenant_queries_total Search calls served for this tenant.
# TYPE repro_tenant_queries_total counter
repro_tenant_queries_total{tenant="acme"} 1
repro_tenant_queries_total{tenant="we\"ird\\name"} 5
# HELP repro_tenant_query_rows_total Query rows served for this tenant.
# TYPE repro_tenant_query_rows_total counter
repro_tenant_query_rows_total{tenant="acme"} 1
repro_tenant_query_rows_total{tenant="we\"ird\\name"} 40
# HELP repro_tenant_cache_hits_total Result-cache hits for this tenant.
# TYPE repro_tenant_cache_hits_total counter
repro_tenant_cache_hits_total{tenant="acme"} 0
repro_tenant_cache_hits_total{tenant="we\"ird\\name"} 8
# HELP repro_tenant_write_calls_total Mutation calls served for this tenant.
# TYPE repro_tenant_write_calls_total counter
repro_tenant_write_calls_total{tenant="acme"} 0
repro_tenant_write_calls_total{tenant="we\"ird\\name"} 1
# HELP repro_tenant_quota_denials_total Requests refused over a tenant quota.
# TYPE repro_tenant_quota_denials_total counter
repro_tenant_quota_denials_total{tenant="acme"} 0
repro_tenant_quota_denials_total{tenant="we\"ird\\name"} 2
# HELP repro_tenant_latency_seconds_total Total serving time for this tenant.
# TYPE repro_tenant_latency_seconds_total counter
repro_tenant_latency_seconds_total{tenant="acme"} 0.125
repro_tenant_latency_seconds_total{tenant="we\"ird\\name"} 0.5
# HELP repro_tenant_vectors_used Vectors counted against the tenant's cap.
# TYPE repro_tenant_vectors_used gauge
repro_tenant_vectors_used{tenant="acme"} 0
repro_tenant_vectors_used{tenant="we\"ird\\name"} 12
# HELP repro_tenant_qps_bucket_tokens Tenant qps_bucket gauge tokens from TenantGateway.stats().
# TYPE repro_tenant_qps_bucket_tokens gauge
repro_tenant_qps_bucket_tokens{tenant="we\"ird\\name"} 3.5
# HELP repro_tenant_qps_bucket_denied Tenant qps_bucket gauge denied from TenantGateway.stats().
# TYPE repro_tenant_qps_bucket_denied gauge
repro_tenant_qps_bucket_denied{tenant="we\"ird\\name"} 2
# HELP repro_tenant_write_bucket_tokens Tenant write_bucket gauge tokens from TenantGateway.stats().
# TYPE repro_tenant_write_bucket_tokens gauge
repro_tenant_write_bucket_tokens{tenant="acme"} 1
# HELP repro_tenant_write_bucket_denied Tenant write_bucket gauge denied from TenantGateway.stats().
# TYPE repro_tenant_write_bucket_denied gauge
repro_tenant_write_bucket_denied{tenant="acme"} 0
# HELP repro_tenant_cache_entries Tenant cache gauge entries from TenantGateway.stats().
# TYPE repro_tenant_cache_entries gauge
repro_tenant_cache_entries{tenant="we\"ird\\name"} 6
# HELP repro_tenant_cache_cache_bytes Tenant cache gauge cache_bytes from TenantGateway.stats().
# TYPE repro_tenant_cache_cache_bytes gauge
repro_tenant_cache_cache_bytes{tenant="we\"ird\\name"} 960
# HELP repro_tenant_cache_hits Tenant cache gauge hits from TenantGateway.stats().
# TYPE repro_tenant_cache_hits gauge
repro_tenant_cache_hits{tenant="we\"ird\\name"} 8
# HELP repro_tenant_cache_evictions Tenant cache gauge evictions from TenantGateway.stats().
# TYPE repro_tenant_cache_evictions gauge
repro_tenant_cache_evictions{tenant="we\"ird\\name"} 1
'''


class TestPrometheusLint:
    def test_counter_without_total_suffix_is_flagged(self):
        text = "# HELP repro_queries Queries.\n# TYPE repro_queries counter\nrepro_queries 5\n"
        assert any("_total" in p for p in lint_prometheus_text(text))

    def test_duplicate_help_and_type_are_flagged(self):
        text = (
            "# HELP repro_up Up.\n# TYPE repro_up gauge\nrepro_up 1\n"
            "# HELP repro_up Up again.\n# TYPE repro_up gauge\nrepro_up 2\n"
        )
        problems = lint_prometheus_text(text)
        assert any("duplicate # HELP" in p for p in problems)
        assert any("duplicate # TYPE" in p for p in problems)

    def test_undeclared_sample_and_raw_label_are_flagged(self):
        assert any(
            "no preceding # TYPE" in p
            for p in lint_prometheus_text("mystery_metric 1\n")
        )
        hostile = (
            "# HELP repro_x X.\n# TYPE repro_x gauge\n"
            'repro_x{tenant="evil"quote"} 1\n'
        )
        assert any("label" in p for p in lint_prometheus_text(hostile))

    def test_histogram_needs_inf_bucket(self):
        text = (
            "# HELP repro_h H.\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 3\nrepro_h_sum 2.5\nrepro_h_count 3\n'
        )
        assert any("+Inf" in p for p in lint_prometheus_text(text))

    def test_escaped_hostile_values_pass(self):
        from repro.obs import escape_label_value

        hostile = 'evil"} 1\ninjected 9 # {x="'
        line = f'repro_x{{tenant="{escape_label_value(hostile)}"}} 1\n'
        text = "# HELP repro_x X.\n# TYPE repro_x gauge\n" + line
        assert lint_prometheus_text(text) == []

    def test_service_and_tenant_series_are_byte_stable(self):
        """The table-driven renderer emits the page the two hand-written
        per-section renderers did (expected text captured from them)."""
        service_stats = {
            "beta": {
                "queries": 7,
                "batches": 2,
                "cache_hits": 3,
                "query_seconds": 0.25,
                "queries_per_second": 28.0,
                "cache_hit_ratio": 0.5,
                "mean_latency_ms": 1.5,
                "p50_latency_ms": 1.25,
                "p95_latency_ms": 2.75,
                "mutation": {"n_pending": 4, "n_tombstones": 1, "mutation_pressure": 0.125},
                "collection": {
                    "name": "beta",
                    "generation": 3,
                    "last_seq": 17,
                    "wal_ops": 5,
                    "wal_bytes": 2048,
                    "sync": "always",
                },
            },
            "alpha": {
                "queries": 0,
                "batches": 0,
                "cache_hits": 0,
                "query_seconds": 0.0,
                "queries_per_second": 0.0,
                "cache_hit_ratio": 0.0,
                "mutation": {"n_pending": 0},
            },
        }
        tenant_stats = {
            'we"ird\\name': {
                "queries": 5,
                "query_rows": 40,
                "cache_hits": 8,
                "write_calls": 1,
                "quota_denials": 2,
                "latency_seconds_sum": 0.5,
                "vectors_used": 12,
                "max_vectors": None,
                "qps_bucket": {"tokens": 3.5, "denied": 2},
                "cache": {"entries": 6, "cache_bytes": 960, "hits": 8, "evictions": 1},
            },
            "acme": {
                "queries": 1,
                "query_rows": 1,
                "cache_hits": 0,
                "write_calls": 0,
                "quota_denials": 0,
                "latency_seconds_sum": 0.125,
                "vectors_used": 0,
                "write_bucket": {"tokens": 1.0, "denied": 0},
            },
        }
        text = ServerMetrics().render(
            service_stats=service_stats, tenant_stats=tenant_stats
        )
        assert lint_prometheus_text(text) == []
        assert text[text.index("# HELP repro_service_") :] == _STATS_SERIES_PAGE

    def test_full_stack_metrics_page_is_clean(self, tmp_path, data):
        """Every layer at once: tenants over sharded sq8 + replication."""
        base, queries = data
        index = make_index("sharded", n_shards=2, spec="sq8").build(base)
        collection = Collection.create(tmp_path / "everything", index)
        primary = Primary(collection)
        registry = TenantRegistry(cache_budget_bytes=1 << 20)
        registry.add_namespace("ns", SearchService(collection))
        registry.create_tenant("acme", "ns", TenantConfig(qps=1e9))
        registry.create_tenant(
            "starved", "ns", TenantConfig(qps=0.001, qps_burst=1.0)
        )
        with SearchServer(
            tenants=registry, replication=primary, config=ServerConfig(port=0)
        ) as server:
            single = {"vector": queries[0].tolist(), "request": {"k": 5}}
            batch = {"vectors": queries[:4].tolist(), "request": {"k": 5}}
            for headers in ({"X-Tenant": "acme"}, {"X-Tenant": "starved"}):
                request_json(
                    server.url + "/query", method="POST", body=single,
                    headers=headers,
                )
            request_json(
                server.url + "/batch_query", method="POST", body=batch,
                headers={"X-Tenant": "acme"},
            )
            # burn the starved tenant's bucket: quota_denials series
            status, _ = request_json(
                server.url + "/query", method="POST", body=single,
                headers={"X-Tenant": "starved"},
            )
            assert status == 429
            request_json(server.url + "/replicate?since_seq=0")

            status, text = request_json(server.url + "/metrics")
        assert status == 200
        assert lint_prometheus_text(text) == []
        for fragment in (
            'repro_tenant_queries_total{tenant="acme"}',
            'repro_tenant_quota_denials_total{tenant="starved"}',
            "repro_replica_records_shipped_total",
            'repro_stage_seconds_bucket{stage="quant.scan",le="+Inf"}',
            "repro_http_requests_total",
        ):
            assert fragment in text, f"missing {fragment}"


# ---------------------------------------------------------------------- #
# liveness vs readiness
# ---------------------------------------------------------------------- #
class TestReadiness:
    def test_ready_reports_replica_role_and_lag(self, tmp_path, data):
        base, _ = data
        index = make_index("sharded-bruteforce", n_shards=2).build(base)
        collection = Collection.create(tmp_path / "primary", index)
        primary = Primary(collection)
        with SearchServer(
            collection, replication=primary, config=ServerConfig(port=0)
        ) as server:
            follower = Follower.bootstrap(
                tmp_path / "replica", HttpReplicationSource.from_url(server.url)
            )
            status, body = request_json(server.url + "/readyz")
            assert status == 200
            assert body["status"] == "ready" and body["draining"] is False
            replication = body["replication"]
            assert replication["role"] == "primary"
            assert replication["last_applied_seq"] == replication["primary_last_seq"]

            with SearchServer(
                follower.service(), replication=follower,
                config=ServerConfig(port=0),
            ) as follower_server:
                collection.add(
                    np.random.default_rng(5).standard_normal((3, DIM))
                )
                status, body = request_json(follower_server.url + "/readyz")
                assert status == 200 and body["replication"]["role"] == "follower"
                follower.sync()
                status, body = request_json(follower_server.url + "/readyz")
                assert body["replication"]["lag_seq"] == 0
                assert (
                    body["replication"]["last_applied_seq"]
                    == body["replication"]["primary_last_seq"]
                )

    def test_draining_flips_readyz_503_but_healthz_stays_200(self, data):
        base, _ = data
        service = SearchService(make_index("bruteforce").build(base))
        with SearchServer(service, config=ServerConfig(port=0)) as server:
            status, body = request_json(server.url + "/readyz")
            assert status == 200 and body["status"] == "ready"
            server._draining = True
            try:
                status, body = request_json(server.url + "/readyz")
                assert status == 503
                assert body["status"] == "draining" and body["draining"] is True
                status, body = request_json(server.url + "/healthz")
                assert status == 200 and body["status"] == "draining"
            finally:
                server._draining = False

    def test_server_config_validates_tracing_fields(self):
        from repro.utils.exceptions import ValidationError

        with pytest.raises(ValidationError):
            ServerConfig(trace_sample_rate=1.5)
        with pytest.raises(ValidationError):
            ServerConfig(slow_trace_seconds=0.0)


# ---------------------------------------------------------------------- #
# stats surfaces expose the shared tracer
# ---------------------------------------------------------------------- #
class TestStatsSurfaces:
    def test_service_registry_and_group_report_tracing_when_attached(
        self, tmp_path, data
    ):
        base, _ = data
        service = SearchService(make_index("bruteforce").build(base))
        assert "tracing" not in service.stats()  # standalone: no tracer
        tracer = Tracer(TracingConfig(sample_rate=0.5))
        service.tracer = tracer
        assert service.stats()["tracing"]["sample_rate"] == 0.5

        registry = TenantRegistry()
        registry.add_namespace("ns", service)
        gateway = registry.create_tenant("acme", "ns")
        assert "tracing" not in registry.stats()
        registry.tracer = tracer
        assert registry.stats()["tracing"]["sample_rate"] == 0.5
        assert gateway.stats()["tracing"]["sample_rate"] == 0.5
        late = registry.create_tenant("late", "ns")
        assert late.stats()["tracing"]["sample_rate"] == 0.5

        index = make_index("sharded-bruteforce", n_shards=2).build(base)
        collection = Collection.create(tmp_path / "grp", index)
        group = ReplicaGroup(Primary(collection))
        assert "tracing" not in group.stats()
        group.tracer = tracer
        assert group.stats()["tracing"]["sample_rate"] == 0.5
