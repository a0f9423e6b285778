"""Tests for the HTTP serving layer (``repro.net``).

The guarantees under test:

* results over HTTP are **bitwise identical** to in-process
  ``SearchService`` calls — filtered or not, single or batched — and
  mutations acknowledged over HTTP are durable across a restart;
* overload surfaces as typed 429 *responses* (never dropped sockets),
  deadlines expire as 504s whether the request was queued or already
  executing, and executing work stops at the next micro-batch boundary;
* shutdown drains: in-flight requests complete, new mutations are
  refused with 503, and collection-backed services checkpoint.
"""

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.api import make_index
from repro.filter import And, AttributeStore, Eq, Range
from repro.net import (
    AdmissionController,
    Deadline,
    DeadlineExpired,
    SearchServer,
    ServerConfig,
    ShedLoad,
    request_json,
)
from repro.service import QueryRequest, QueryResult, Router, SearchService
from repro.service.request import BatchResult
from repro.store import Collection

DIM = 12


# ---------------------------------------------------------------------- #
# fixtures and helpers
# ---------------------------------------------------------------------- #
def make_attribute_store(n: int) -> AttributeStore:
    store = AttributeStore()
    store.add_categorical("shop", [f"shop-{i % 3}" for i in range(n)])
    store.add_numeric("price", [float((7 * i) % 50) for i in range(n)])
    return store


def build_sharded(base: np.ndarray):
    index = make_index("sharded-bruteforce")
    index.build(base)
    index.set_attributes(make_attribute_store(base.shape[0]))
    return index


class SlowBruteForce(BruteForceIndex):
    """Brute force with a per-call sleep: deterministic slow execution."""

    delay = 0.15

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def batch_query(self, queries, k=10, *, filter=None):
        self.calls += 1
        time.sleep(self.delay)
        return super().batch_query(queries, k, filter=filter)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(23)
    base = rng.standard_normal((260, DIM)).astype(np.float32)
    queries = rng.standard_normal((12, DIM)).astype(np.float32)
    return base, queries


def wait_until(condition, *, timeout=10.0, interval=0.005):
    stop_at = time.monotonic() + timeout
    while time.monotonic() < stop_at:
        if condition():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within the timeout")


def http_call(url, *, method="GET", body=None, headers=None, timeout=30.0):
    """Like request_json but also returns the response headers."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read() or b"null")
    except urllib.error.HTTPError as error:
        raw = error.read()
        parsed = json.loads(raw) if raw else None
        return error.code, dict(error.headers), parsed


def slow_server(delay=0.15, **config_kwargs):
    rng = np.random.default_rng(5)
    index = SlowBruteForce()
    index.delay = delay
    index.build(rng.standard_normal((50, DIM)).astype(np.float32))
    # batch_size=1: /batch_query re-checks the deadline after every row
    service = SearchService(index, cache_size=0, batch_size=1)
    defaults = dict(port=0, max_concurrency=1, queue_limit=1)
    defaults.update(config_kwargs)
    return SearchServer(service, config=ServerConfig(**defaults)), index


# ---------------------------------------------------------------------- #
# HTTP plumbing and the error taxonomy
# ---------------------------------------------------------------------- #
class TestErrorTaxonomy:
    @pytest.fixture(scope="class")
    def server(self, data):
        base, _ = data
        with SearchServer(SearchService(build_sharded(base))) as server:
            yield server

    def test_unknown_endpoint_404(self, server):
        status, body = request_json(server.url + "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405(self, server):
        status, body = request_json(server.url + "/query")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        status, body = request_json(server.url + "/stats", method="POST", body={})
        assert status == 405

    def test_malformed_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"{oops", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "bad_json"

    def test_missing_and_malformed_fields_400(self, server, data):
        _, queries = data
        cases = [
            {},  # no vector
            {"vector": "not numbers"},
            {"vector": [[1.0] * DIM]},  # 2-d where 1-d expected
            {"vector": [float("nan")] * DIM},
            {"vector": queries[0].tolist(), "request": {"k": 0}},
        ]
        for body in cases:
            status, parsed = request_json(server.url + "/query", method="POST", body=body)
            assert status == 400, body
            assert parsed["error"]["code"] in ("bad_request", "validation", "bad_json")

    def test_remove_unknown_ids_400(self, server):
        status, body = request_json(server.url + "/remove", method="POST", body={"ids": [99999]})
        assert status == 400
        assert body["error"]["code"] == "validation"

    def test_unfilterable_index_422(self, data):
        base, queries = data

        class Unfilterable(BruteForceIndex):
            capabilities = replace(BruteForceIndex.capabilities, filterable=False)

        index = Unfilterable().build(base)
        with SearchServer(SearchService(index)) as server:
            status, body = request_json(
                server.url + "/query", method="POST",
                body={
                    "vector": queries[0].tolist(),
                    "request": {"k": 3, "filter": {"ids": [1, 2, 3]}},
                },
            )
        assert status == 422
        assert body["error"]["code"] == "unfilterable_index"

    def test_oversized_body_413(self, data):
        base, queries = data
        with SearchServer(
            SearchService(build_sharded(base)),
            config=ServerConfig(port=0, max_body_bytes=256),
        ) as server:
            status, _, body = http_call(
                server.url + "/batch_query", method="POST",
                body={"vectors": [[0.0] * DIM] * 100, "request": {"k": 3}},
            )
        assert status == 413

    def test_bad_deadline_header_400(self, server, data):
        _, queries = data
        status, _, body = http_call(
            server.url + "/query", method="POST",
            body={"vector": queries[0].tolist()},
            headers={"X-Deadline-Ms": "-5"},
        )
        assert status == 400


# ---------------------------------------------------------------------- #
# end-to-end equivalence over a durable collection (the acceptance test)
# ---------------------------------------------------------------------- #
class TestDurableServing:
    @pytest.fixture()
    def collection(self, tmp_path, data):
        base, _ = data
        collection = Collection.create(tmp_path / "col", build_sharded(base))
        yield collection
        collection.close()

    def test_http_results_bitwise_identical_to_in_process(self, collection, data):
        base, queries = data
        reference = SearchService(build_sharded(base), cache_size=0)
        requests = [
            QueryRequest(k=5),
            QueryRequest(k=3, filter=Eq("shop", "shop-1")),
            QueryRequest(k=4, filter=And(Eq("shop", "shop-0"), Range("price", high=30.0))),
            QueryRequest(k=5, filter=np.arange(0, 260, 2)),  # id allowlist
            QueryRequest(k=5, filter=np.arange(260) % 2 == 0),  # mask
        ]
        with SearchServer(collection, config=ServerConfig(port=0)) as server:
            for request in requests:
                expected = reference.search(queries[0], request)
                status, wire = request_json(
                    server.url + "/query", method="POST",
                    body={"vector": queries[0].tolist(), "request": request.as_dict()},
                )
                assert status == 200
                got = QueryResult.from_dict(wire)
                np.testing.assert_array_equal(got.ids, expected.ids)
                np.testing.assert_array_equal(got.distances, expected.distances)
                assert wire["filter_fingerprint"] == request.filter_fingerprint_digest()

                batch_expected = reference.search_batch(queries, request)
                status, wire = request_json(
                    server.url + "/batch_query", method="POST",
                    # "mode" selected an execution path once; like any
                    # unknown key it is now ignored, whatever its value
                    body={
                        "vectors": queries.tolist(),
                        "request": request.as_dict(),
                        "mode": "warp-speed",
                    },
                )
                assert status == 200
                assert "mode" not in wire
                got = BatchResult.from_dict(wire)
                np.testing.assert_array_equal(got.ids, batch_expected.ids)
                np.testing.assert_array_equal(got.distances, batch_expected.distances)
                assert wire["n_queries"] == len(queries)
                assert len(wire["per_query_latency_seconds"]) == len(queries)

    def test_mutations_acked_over_http_survive_restart(self, tmp_path, collection, data):
        base, queries = data
        rng = np.random.default_rng(11)
        extra = rng.standard_normal((4, DIM)).astype(np.float32)
        with SearchServer(collection, config=ServerConfig(port=0)) as server:
            seq_before = collection.last_seq
            status, body = request_json(
                server.url + "/add", method="POST",
                body={
                    "vectors": extra.tolist(),
                    "attributes": {
                        "shop": ["shop-9"] * 4,
                        "price": [1.0, 2.0, 3.0, 4.0],
                    },
                },
            )
            assert status == 200
            new_ids = body["ids"]
            assert body["count"] == 4
            # the ack implies the WAL record is already on disk
            assert collection.last_seq > seq_before

            status, body = request_json(
                server.url + "/remove", method="POST", body={"ids": new_ids[:2]}
            )
            assert status == 200 and body["removed"] == 2

            status, filtered = request_json(
                server.url + "/query", method="POST",
                body={
                    "vector": extra[2].tolist(),
                    "request": {
                        "k": 2,
                        "filter": {"predicate": {"op": "eq", "column": "shop", "value": "shop-9"}},
                    },
                },
            )
            assert status == 200
            assert set(filtered["ids"]) <= set(new_ids[2:])
        assert server.drain_clean is True
        collection.close()

        reopened = Collection.open(tmp_path / "col")
        try:
            assert int(reopened.index.n_points) == base.shape[0] + 2
            result = SearchService(reopened).search(
                np.asarray(extra[2], dtype=np.float32),
                QueryRequest(k=2, filter=Eq("shop", "shop-9")),
            )
            np.testing.assert_array_equal(np.sort(result.ids), np.sort(filtered["ids"]))
        finally:
            reopened.close()

    def test_concurrent_queries_and_mutations(self, collection, data):
        base, queries = data
        errors = []
        with SearchServer(collection, config=ServerConfig(port=0, max_concurrency=4)) as server:
            def query_loop():
                try:
                    for i in range(15):
                        status, body = request_json(
                            server.url + "/query", method="POST",
                            body={"vector": queries[i % len(queries)].tolist(),
                                  "request": {"k": 3}},
                        )
                        assert status == 200, body
                except Exception as exc:  # noqa: BLE001 - surfaced to the test
                    errors.append(exc)

            def mutate_loop():
                rng = np.random.default_rng(3)
                try:
                    for _ in range(8):
                        status, body = request_json(
                            server.url + "/add", method="POST",
                            body={"vectors": rng.standard_normal((1, DIM)).tolist()},
                        )
                        assert status == 200, body
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=query_loop) for _ in range(3)]
            threads.append(threading.Thread(target=mutate_loop))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert server.drain_clean is True


class TestRouterServing:
    def test_named_dispatch_and_filter_routing(self, data):
        base, queries = data

        class Unfilterable(BruteForceIndex):
            capabilities = replace(BruteForceIndex.capabilities, filterable=False)

        router = Router()
        router.add_service("plain", SearchService(Unfilterable().build(base)))
        router.add_service("filtered", SearchService(build_sharded(base)))
        with SearchServer(router) as server:
            status, body = request_json(
                server.url + "/query?service=filtered", method="POST",
                body={"vector": queries[0].tolist(), "request": {"k": 3}},
            )
            assert status == 200

            status, body = request_json(
                server.url + "/query?service=missing", method="POST",
                body={"vector": queries[0].tolist()},
            )
            assert status == 404
            assert body["error"]["code"] == "unknown_service"

            # a filter in the request routes to the filterable service
            status, body = request_json(
                server.url + "/query", method="POST",
                body={
                    "vector": queries[0].tolist(),
                    "request": {"k": 3, "filter": {"ids": list(range(50))}},
                },
            )
            assert status == 200
            assert max(body["ids"]) < 50

            status, stats = request_json(server.url + "/stats")
            assert set(stats["services"]) == {"plain", "filtered"}


# ---------------------------------------------------------------------- #
# admission control, deadlines, backpressure (satellite 3)
# ---------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_burst_sheds_with_typed_429_and_no_drops(self, data):
        _, queries = data
        server, _ = slow_server(delay=0.5, max_concurrency=1, queue_limit=1)
        payload = {"vector": queries[0][:DIM].tolist(), "request": {"k": 3}}
        results = []
        with server:
            blocker = threading.Thread(
                target=request_json,
                args=(server.url + "/query",),
                kwargs={"method": "POST", "body": payload},
            )
            blocker.start()
            wait_until(lambda: server.admission.active >= 1)

            def one():
                results.append(http_call(server.url + "/query", method="POST", body=payload))

            threads = [threading.Thread(target=one) for _ in range(7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            blocker.join()
        # every connection got an HTTP response: nothing dropped
        assert len(results) == 7
        statuses = sorted(status for status, _, _ in results)
        assert set(statuses) <= {200, 429}
        # the waiting room holds one; the burst beyond it must shed
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 4
        for status, headers, body in results:
            if status == 429:
                assert body["error"]["code"] == "overloaded"
                assert body["error"]["retry_after_seconds"] > 0
                assert "Retry-After" in headers

    def test_deadline_expires_while_queued(self, data):
        _, queries = data
        server, _ = slow_server(delay=0.6, max_concurrency=1, queue_limit=4)
        payload = {"vector": queries[0][:DIM].tolist(), "request": {"k": 3}}
        with server:
            blocker = threading.Thread(
                target=request_json,
                args=(server.url + "/query",),
                kwargs={"method": "POST", "body": payload},
            )
            blocker.start()
            wait_until(lambda: server.admission.active >= 1)
            status, body = request_json(
                server.url + "/query", method="POST", body=payload, deadline_ms=100
            )
            blocker.join()
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert body["error"]["stage"] == "queued"

    def test_deadline_expires_mid_execution_and_stops_work(self, data):
        _, queries = data
        server, index = slow_server(delay=0.12, max_concurrency=1, queue_limit=4)
        vectors = np.tile(queries[0][:DIM], (8, 1))
        with server:
            status, body = request_json(
                server.url + "/batch_query", method="POST",
                body={"vectors": vectors.tolist(), "request": {"k": 3}},
                deadline_ms=300,
            )
            assert status == 504
            assert body["error"]["stage"] == "execution"
            time.sleep(0.3)  # any orphaned work would keep counting
            calls_after = index.calls
        # 8 chunks were requested; expiry stopped the loop well short
        assert calls_after < 8

    def test_deadline_metrics_and_stats_counters(self, data):
        _, queries = data
        server, _ = slow_server(delay=0.5, max_concurrency=1, queue_limit=0)
        payload = {"vector": queries[0][:DIM].tolist(), "request": {"k": 3}}
        with server:
            blocker = threading.Thread(
                target=request_json,
                args=(server.url + "/query",),
                kwargs={"method": "POST", "body": payload},
            )
            blocker.start()
            wait_until(lambda: server.admission.active >= 1)
            # the slot is held and the waiting room is zero-sized: these
            # must be shed immediately with typed 429s
            for _ in range(2):
                status, body = request_json(
                    server.url + "/query", method="POST", body=payload
                )
                assert status == 429, body
            status, stats = request_json(server.url + "/stats")
            assert status == 200
            assert stats["server"]["shed_total"] >= 2
            blocker.join()
            status, stats = request_json(server.url + "/stats")
            assert stats["server"]["admitted_total"] >= 1
            status, text = request_json(server.url + "/metrics")
            assert status == 200
        assert "repro_http_shed_total" in text
        assert 'repro_http_requests_total{endpoint="query",status="200"}' in text
        assert "repro_http_request_seconds_bucket" in text
        assert 'le="+Inf"' in text

    def test_admission_controller_unit(self):
        async def scenario():
            controller = AdmissionController(1, 0)
            await controller.admit(Deadline(None), "query")
            with pytest.raises(ShedLoad):
                await controller.admit(Deadline(None), "add")
            with pytest.raises(DeadlineExpired):
                # queue_limit=0 still sheds, so use a waiting-room of 1
                waiting = AdmissionController(1, 1)
                await waiting.admit(Deadline(None), "query")
                await waiting.admit(Deadline(0.05), "add")
            # the execution-time EWMA is per endpoint: weight 0.2, start 0.05 s
            assert controller.exec_seconds("query") == controller.exec_seconds("add") == 0.05
            controller.release("query", exec_seconds=0.01)
            assert controller.exec_seconds("query") == pytest.approx(0.042)
            assert controller.exec_seconds("add") == 0.05
            assert controller.depth == 0
            assert await controller.drain(timeout=1.0) is True

        import asyncio

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# where a /query executes: the event loop or the thread pool
# ---------------------------------------------------------------------- #
LOOP_THREAD = "repro-net"


class ThreadRecordingIndex(BruteForceIndex):
    """Brute force that records the thread running each ``batch_query``.

    ``delay`` slows every query; ``add`` only sleeps ``add_delay`` and
    assigns no ids, which is enough to hold a mutation in flight.  As it
    declares ``mutable=True``, it keeps the rest of the
    :class:`~repro.api.MutableIndex` contract: nothing is ever pending or
    tombstoned.
    """

    capabilities = replace(BruteForceIndex.capabilities, mutable=True)
    delay = 0.0
    add_delay = 0.0
    version = 0
    n_pending = 0
    n_tombstones = 0
    mutation_pressure = 0.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = []

    def batch_query(self, queries, k=10, *, filter=None):
        self.threads.append(threading.current_thread().name)
        if self.delay:
            time.sleep(self.delay)
        return super().batch_query(queries, k, filter=filter)

    def add(self, vectors):
        time.sleep(self.add_delay)
        return np.empty(0, dtype=np.int64)

    def remove(self, ids):
        return 0

    def compact(self):
        return self

    @property
    def total_rows(self):
        return self.n_points

    def contains(self, ids):
        ids = np.asarray(ids)
        return (ids >= 0) & (ids < self.n_points)


def recording_server(base, *, delay=0.0, add_delay=0.0, **config_kwargs):
    index = ThreadRecordingIndex()
    index.delay = delay
    index.add_delay = add_delay
    index.build(base)
    # no cache: every /query reaches batch_query
    service = SearchService(index, cache_size=0)
    return SearchServer(service, config=ServerConfig(port=0, **config_kwargs)), index


def warm_query_estimate(server, payload, *, limit=200):
    """Send /query until its execution-time estimate is below one switch interval."""
    for _ in range(limit):
        if server.admission.exec_seconds("query") < sys.getswitchinterval():
            return
        status, _ = request_json(server.url + "/query", method="POST", body=payload)
        assert status == 200
    raise AssertionError("the /query estimate never fell below the switch interval")


def query_thread(server, index, payload):
    """Send one /query; return the thread that ran it and the answer."""
    status, body = request_json(server.url + "/query", method="POST", body=payload)
    assert status == 200, body
    return index.threads[-1], body


class TestInlineQuery:
    def test_cold_runs_on_executor_warm_runs_on_loop_bitwise_equal(self, data):
        base, queries = data
        payload = {"vector": queries[0].tolist(), "request": {"k": 5}}
        server, index = recording_server(base)
        with server:
            # before any estimate exists the job starts on the executor
            thread, cold = query_thread(server, index, payload)
            assert thread.startswith("net-exec")
            warm_query_estimate(server, payload)
            thread, warm = query_thread(server, index, payload)
            assert thread == LOOP_THREAD
            assert warm["ids"] == cold["ids"]
            assert warm["distances"] == cold["distances"]

            status, stats = request_json(server.url + "/stats")
            paths = stats["server"]["query_executions_total"]
            assert paths["inline"] >= 1 and paths["executor"] >= 1
            assert paths["inline"] + paths["executor"] == len(index.threads)
            assert paths["inline"] == index.threads.count(LOOP_THREAD)
            status, text = request_json(server.url + "/metrics")
        assert f'repro_http_query_executions_total{{path="inline"}} {paths["inline"]}' in text
        assert 'repro_http_query_executions_total{path="executor"}' in text
        assert server.drain_clean is True

    def test_slow_mutation_in_flight_sends_query_to_executor(self, data):
        base, queries = data
        payload = {"vector": queries[1].tolist(), "request": {"k": 3}}
        server, index = recording_server(base, add_delay=0.5, max_concurrency=2)
        with server:
            warm_query_estimate(server, payload)
            writer = threading.Thread(
                target=request_json,
                args=(server.url + "/add",),
                kwargs={"method": "POST", "body": {"vectors": base[:1].tolist()}},
            )
            writer.start()
            wait_until(lambda: server.admission.active == 1)
            thread, _ = query_thread(server, index, payload)
            assert thread.startswith("net-exec")
            writer.join(timeout=10)
            assert not writer.is_alive()
            # the write acknowledged and its connection closed: reads are
            # back on the loop
            wait_until(lambda: not server._connections)
            thread, _ = query_thread(server, index, payload)
            assert thread == LOOP_THREAD

    def test_open_writer_connection_keeps_queries_on_executor(self, data):
        base, queries = data
        payload = {"vector": queries[1].tolist(), "request": {"k": 3}}
        server, index = recording_server(base, max_concurrency=2)
        with server:
            warm_query_estimate(server, payload)
            writer = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                # a keep-alive writer between two requests: its next write
                # could arrive while an inline query held the loop
                writer.request("POST", "/add", body=json.dumps({"vectors": base[:1].tolist()}))
                assert writer.getresponse().read() and server._writers
                thread, _ = query_thread(server, index, payload)
                assert thread.startswith("net-exec")
                # the same connection reads now: it no longer counts as a writer
                writer.request("POST", "/query", body=json.dumps(payload))
                assert json.loads(writer.getresponse().read())["ids"]
                wait_until(lambda: len(server._connections) == 1)
                thread, _ = query_thread(server, index, payload)
                assert thread == LOOP_THREAD
            finally:
                writer.close()

    def test_more_connections_than_slots_sends_query_to_executor(self, data, idle_connections):
        base, queries = data
        payload = {"vector": queries[2].tolist(), "request": {"k": 3}}
        server, index = recording_server(base, max_concurrency=2)
        with server:
            warm_query_estimate(server, payload)
            idle_connections(server, 2)
            # two idle sockets + this request's own > two slots
            thread, _ = query_thread(server, index, payload)
            assert thread.startswith("net-exec")

    def test_batch_query_always_runs_on_executor(self, data):
        base, queries = data
        payload = {"vector": queries[3].tolist(), "request": {"k": 3}}
        server, index = recording_server(base)
        with server:
            warm_query_estimate(server, payload)
            status, _ = request_json(
                server.url + "/batch_query", method="POST",
                body={"vectors": queries[3:4].tolist(), "request": {"k": 3}},
            )
            assert status == 200
            assert index.threads[-1].startswith("net-exec")

    def test_slow_index_stays_on_executor(self, data):
        base, queries = data
        payload = {"vector": queries[4].tolist(), "request": {"k": 3}}
        # 20 ms per query: four switch intervals
        server, index = recording_server(base, delay=0.02)
        with server:
            for _ in range(12):
                thread, _ = query_thread(server, index, payload)
                assert thread.startswith("net-exec")
            assert server.admission.exec_seconds("query") >= sys.getswitchinterval()

    def test_burst_on_warm_cheap_index_ends_in_typed_responses(self, data):
        base, queries = data
        payload = {"vector": queries[5].tolist(), "request": {"k": 3}}
        server, _ = recording_server(base, max_concurrency=1, queue_limit=1)
        results = []
        with server:
            warm_query_estimate(server, payload)
            barrier = threading.Barrier(8)

            def one():
                barrier.wait()
                results.append(http_call(server.url + "/query", method="POST", body=payload))

            threads = [threading.Thread(target=one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        # more connections than max_concurrency + queue_limit, and every
        # one of them got a typed HTTP response
        assert len(results) == 8
        for status, headers, body in results:
            assert status in (200, 429), body
            if status == 429:
                assert body["error"]["code"] == "overloaded"
                assert "Retry-After" in headers
        assert server.drain_clean is True


class TestDrain:
    def test_inflight_completes_then_listener_closes(self, data):
        _, queries = data
        server, _ = slow_server(delay=0.5, max_concurrency=1, queue_limit=4)
        server.start_in_thread()
        url = server.url
        outcome = {}

        def slow_call():
            outcome["response"] = request_json(
                url + "/query", method="POST",
                body={"vector": queries[0][:DIM].tolist(), "request": {"k": 3}},
            )

        thread = threading.Thread(target=slow_call)
        thread.start()
        wait_until(lambda: server.admission.active >= 1)
        clean = server.stop()
        thread.join()
        assert clean is True
        assert outcome["response"][0] == 200
        with pytest.raises(urllib.error.URLError):
            request_json(url + "/healthz", timeout=2.0)

    def test_mutation_during_drain_refused_503(self, data):
        _, queries = data
        server, _ = slow_server(delay=1.2, max_concurrency=1, queue_limit=4)
        server.start_in_thread()
        url = server.url
        payload = {"vector": queries[0][:DIM].tolist(), "request": {"k": 3}}
        blocker = threading.Thread(
            target=request_json,
            args=(url + "/query",),
            kwargs={"method": "POST", "body": payload},
        )
        blocker.start()
        wait_until(lambda: server.admission.active >= 1)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        wait_until(lambda: server.draining)
        # drain is waiting on the slow query; the listener is still open
        status, headers, body = http_call(
            url + "/add", method="POST",
            body={"vectors": [[0.0] * DIM]}, timeout=5.0,
        )
        assert status == 503
        assert body["error"]["code"] == "draining"
        status, _, health = http_call(url + "/healthz", timeout=5.0)
        assert status == 200 and health["status"] == "draining"
        blocker.join()
        stopper.join()
        assert server.drain_clean is True

    def test_drain_checkpoints_collection(self, tmp_path, data):
        base, _ = data
        collection = Collection.create(tmp_path / "col", build_sharded(base))
        with SearchServer(collection, config=ServerConfig(port=0)) as server:
            status, _ = request_json(
                server.url + "/add", method="POST",
                body={"vectors": [[0.5] * DIM]},
            )
            assert status == 200
            assert collection.wal_ops > 0
        # __exit__ drained: the WAL was folded into a fresh generation
        assert server.drain_clean is True
        assert collection.wal_ops == 0
        collection.close()


# ---------------------------------------------------------------------- #
# stats() consistency under concurrency (satellite 1)
# ---------------------------------------------------------------------- #
class TestStatsConsistency:
    def test_snapshot_is_internally_consistent_under_churn(self, data):
        base, queries = data
        service = SearchService(build_sharded(base), cache_size=64)
        stop = threading.Event()
        failures = []

        def searcher():
            i = 0
            while not stop.is_set():
                service.search(queries[i % len(queries)], QueryRequest(k=3))
                i += 1

        def mutator():
            rng = np.random.default_rng(7)
            while not stop.is_set():
                ids = service.add(rng.standard_normal((2, DIM)))
                service.remove(ids)

        def checker():
            try:
                for _ in range(200):
                    stats = service.stats()
                    queries_n = stats["queries"]
                    hits = stats["cache_hits"]
                    ratio = stats["cache_hit_ratio"]
                    assert 0 <= hits <= max(queries_n, 1)
                    expected = hits / queries_n if queries_n else 0.0
                    assert ratio == expected, (ratio, expected)
                    mutation = stats.get("mutation")
                    if mutation is not None and "mutation_pressure" in mutation:
                        derived = (
                            mutation.get("n_pending", 0) + mutation.get("n_tombstones", 0)
                        ) / max(mutation["n_live"], 1)
                        assert mutation["mutation_pressure"] == derived, mutation
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                failures.append(exc)

        threads = [
            threading.Thread(target=searcher),
            threading.Thread(target=mutator),
            threading.Thread(target=checker),
            threading.Thread(target=checker),
        ]
        for thread in threads:
            thread.start()
        threads[2].join()
        threads[3].join()
        stop.set()
        threads[0].join()
        threads[1].join()
        assert not failures, failures[0]


# ---------------------------------------------------------------------- #
# client retry policy: 429/503 with capped jittered backoff
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.5, jitter=0.0)
        assert policy.delay_seconds(0) == pytest.approx(0.1)
        assert policy.delay_seconds(1) == pytest.approx(0.2)
        assert policy.delay_seconds(2) == pytest.approx(0.4)
        assert policy.delay_seconds(3) == pytest.approx(0.5)  # capped

    def test_retry_after_overrides_backoff_but_not_the_cap(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.5, jitter=0.0)
        assert policy.delay_seconds(0, retry_after=0.3) == pytest.approx(0.3)
        assert policy.delay_seconds(0, retry_after=9.0) == pytest.approx(0.5)
        deaf = RetryPolicy(
            base_delay_seconds=0.1, max_delay_seconds=0.5, jitter=0.0,
            respect_retry_after=False,
        )
        assert deaf.delay_seconds(0, retry_after=0.3) == pytest.approx(0.1)

    def test_jitter_stays_within_the_fraction(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(base_delay_seconds=0.1, jitter=0.5, seed=7)
        delays = [policy.delay_seconds(0) for _ in range(64)]
        assert all(0.05 <= delay <= 0.15 for delay in delays)
        assert len(set(delays)) > 1

    def test_should_retry_matches_statuses_and_budget(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(429, 0) and policy.should_retry(503, 1)
        assert not policy.should_retry(429, 2)  # budget spent
        assert not policy.should_retry(500, 0)  # not a retryable status

    def test_validation(self):
        from repro.net import RetryPolicy
        from repro.utils.exceptions import ValidationError

        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(base_delay_seconds=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(base_delay_seconds=1.0, max_delay_seconds=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.0)

    def test_retry_after_from_header_and_error_body(self):
        from repro.net import retry_after_from

        assert retry_after_from({"retry-after": "1.5"}, None) == 1.5
        assert retry_after_from({"retry-after": "soon"}, None) is None
        assert retry_after_from({}, {"error": {"retry_after_seconds": 0.25}}) == 0.25
        assert retry_after_from({}, {"error": {}}) is None

    @staticmethod
    def _canned(status_line, body, extra_headers=()):
        payload = json.dumps(body).encode("utf-8")
        head = [
            status_line,
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            *extra_headers,
        ]
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload

    def _run_against_canned(self, responses, retry):
        """Serve scripted responses on a raw socket; return the final reply."""
        import asyncio

        from repro.net import AsyncHttpClient

        remaining = list(responses)
        served = []

        async def handler(reader, writer):
            while remaining:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                if length:
                    await reader.readexactly(length)
                writer.write(remaining.pop(0))
                served.append(1)
                await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with AsyncHttpClient("127.0.0.1", port, retry=retry) as client:
                status, headers, parsed = await client.request("GET", "/query")
                retries = client.retries_total
            server.close()
            await server.wait_closed()
            return status, parsed, retries, len(served)

        import asyncio as _asyncio

        return _asyncio.run(scenario())

    def test_client_retries_through_429_and_503_to_success(self):
        from repro.net import RetryPolicy

        responses = [
            self._canned(
                "HTTP/1.1 429 Too Many Requests",
                {"error": {"code": "overloaded", "retry_after_seconds": 0.001}},
                ("Retry-After: 0.001",),
            ),
            self._canned("HTTP/1.1 503 Service Unavailable", {"error": {"code": "draining"}}),
            self._canned("HTTP/1.1 200 OK", {"ok": True}),
        ]
        status, parsed, retries, served = self._run_against_canned(
            responses,
            RetryPolicy(max_retries=3, base_delay_seconds=0.001, jitter=0.0),
        )
        assert (status, parsed) == (200, {"ok": True})
        assert retries == 2 and served == 3

    def test_exhausted_budget_returns_the_last_typed_response(self):
        from repro.net import RetryPolicy

        responses = [
            self._canned("HTTP/1.1 429 Too Many Requests", {"error": {"code": "overloaded"}})
            for _ in range(3)
        ]
        status, parsed, retries, served = self._run_against_canned(
            responses, RetryPolicy(max_retries=2, base_delay_seconds=0.001, jitter=0.0)
        )
        assert status == 429 and parsed["error"]["code"] == "overloaded"
        assert retries == 2 and served == 3

    def test_no_policy_means_no_retries(self):
        responses = [
            self._canned("HTTP/1.1 429 Too Many Requests", {"error": {"code": "overloaded"}})
        ]
        status, parsed, retries, served = self._run_against_canned(responses, None)
        assert status == 429 and retries == 0 and served == 1
