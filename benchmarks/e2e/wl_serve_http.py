"""Workload ``serve_http``: the full production stack on a small index.

Real HTTP ``/query`` (one vector, k=10) with ``X-Tenant`` through
``SearchServer -> TenantGateway (acl=None) -> SearchService (cache on) ->
Collection -> sharded-sq8 (2 shards)``.  The index is small on purpose:
the scan is a minor share of a request, so ``net`` / ``wire`` /
``service`` / ``tenant`` / ``shard`` do most of the work.  Two
connections, closed loop; 20 % of requests come from a 64-vector hot set
(cache hits after warm-up), 80 % are unique (cache misses), which keeps
the median in the miss mode while a cache change still moves the rate.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from datagen import Corpus, VectorStream, clustered_corpus, noisy_rows
from harness import (
    BenchmarkError,
    K,
    N_ROUNDS,
    Served,
    Spans,
    finish,
    median,
    out_dir_for,
    recall_at_k,
    run_ladder,
    run_rounds,
    serve,
    unserve,
)
from loadgen import (
    Recorder,
    closed_loop,
    dump_samples,
    get_json,
    one_by_one,
    warm_up,
    well_formed_answer,
)
from stack import CACHE_ENTRIES, NAMESPACE, TENANT, build_stack

SCALES = {
    "full": dict(n=8000, dim=64, n_truth=256, n_hot=64, n_warm=256, n_ladder=300, rounds=N_ROUNDS),
    "smoke": dict(n=1500, dim=32, n_truth=64, n_hot=64, n_warm=64, n_ladder=40, rounds=1),
}
HOT_SHARE = 0.2
N_BITWISE = 64
RECALL_FLOOR = 0.95
HEADERS = {"X-Tenant": TENANT}
#: traced run: (untraced, traced) window pairs on one server process
N_TRACING_PAIRS = 4

LAYER_METRICS = frozenset({
    "datasets.generate_s", "datasets.ground_truth_s", "store.create_s", "net.boot_s",
    "quant.query_us", "shard.overhead_us", "store.overhead_us", "service.overhead_us",
    "tenant.overhead_us", "wire.decode_us", "wire.encode_us", "net.overhead_us",
    "net.request_bytes", "net.response_bytes", "net.shed_total", "net.errors_total",
    "tenant.denied_total", "service.cache_hit_ratio", "service.cache_evictions",
    "obs.tracing_overhead_share", "obs.spans_per_query", "obs.span_coverage",
    "loadgen.query_p95_ms", "loadgen.query_p99_ms", "loadgen.requests_sent",
    "loadgen.requests_ok", "loadgen.failed_share", "loadgen.busy_share",
})


@dataclass
class State:
    corpus: Corpus
    served: Served
    hot: List[Dict[str, Any]]

    @property
    def build_s(self) -> float:
        return self.served.build_s

    @property
    def port(self) -> int:
        return self.served.child.port


def query_body(vector: np.ndarray) -> Dict[str, Any]:
    return {"vector": vector.tolist(), "request": {"k": K}}


def set_up(args, scale, out: Path) -> State:
    from repro.api import make_index

    corpus = clustered_corpus(args.seed, scale["n"], scale["dim"], scale["n_truth"])
    hot_rng = np.random.default_rng([args.seed, 2])
    hot = [query_body(v) for v in noisy_rows(hot_rng, corpus.base, scale["n_hot"])]
    warm = noisy_rows(np.random.default_rng([args.seed, 3]), corpus.base, scale["n_warm"])

    def build_index():
        return make_index("sharded-sq8", n_shards=2, compact_threshold=None).build(corpus.base)

    def warm_cache(port: int) -> None:
        """Fill the cache with the hot set and finish lazy set-up on both connections."""
        warm_up(port, "/query", hot + [query_body(v) for v in warm], HEADERS)

    served = serve(
        build_index, out / "collection",
        {"cache_size": CACHE_ENTRIES, "tenant": True}, warm_cache,
    )
    return State(corpus, served, hot)


def tear_down(state: State) -> None:
    unserve(state.served)


def traceparents(seed: int, worker_id: int, window: int):
    """Sampled W3C ``traceparent`` headers, one fresh trace id per request."""
    from repro.obs import format_traceparent

    count = 0
    while True:
        count += 1
        trace_id = f"{seed & 0xFFFFFFFF:08x}{worker_id:04x}{window:04x}{count:016x}"
        yield format_traceparent(trace_id, f"{count:016x}")


def query_worker(state: State, seed: int, worker_id: int, window: int, traced: bool):
    stream = VectorStream(state.corpus.base, [seed, 10 + worker_id, window])
    rng = stream.rng
    accept = well_formed_answer(K)
    parents = traceparents(seed, worker_id, window) if traced else None

    async def run(conn) -> None:
        while conn.running():
            if rng.random() < HOT_SHARE:
                body = state.hot[int(rng.integers(len(state.hot)))]
            else:
                body = query_body(stream.take()[0])
            headers = {**HEADERS, "traceparent": next(parents)} if traced else HEADERS
            await conn.post("query", "/query", body, headers=headers, accept=accept)

    return run


def drive(state: State, seed: int, seconds: float, window: int, traced: bool = False) -> Recorder:
    """One window of the traffic; with ``traced`` every request asks to be traced."""
    workers = [query_worker(state, seed, w, window, traced) for w in (0, 1)]
    return closed_loop(state.port, workers, seconds)


def fresh_gateway(index):
    """The in-process twin of what the server child serves (empty cache)."""
    _, registry = build_stack(index, cache_size=CACHE_ENTRIES, tenant=True)
    return registry.gateway(TENANT)


def check_answers(state: State) -> Dict[str, Any]:
    """Held-out queries over HTTP: recall vs brute force, bitwise vs in-process."""
    from repro.service import QueryRequest

    queries = state.corpus.queries
    answers = one_by_one(
        state.port, "/query", [query_body(q) for q in queries], headers=HEADERS
    )
    complete = all(a is not None for a in answers)
    recall = (
        recall_at_k([a["ids"] for a in answers], state.corpus.truth) if complete else 0.0
    )
    gateway = fresh_gateway(state.served.index)
    request = QueryRequest(k=K)
    bitwise = complete
    for query, answer in list(zip(queries, answers))[:N_BITWISE]:
        if not bitwise:
            break
        # The wire carries the float32 values as JSON doubles; hand the
        # in-process gateway exactly what the server decoded.
        local = gateway.search(np.asarray(query.tolist(), dtype=np.float64), request)
        bitwise = (
            local.ids.tolist() == answer["ids"]
            and local.distances.tolist() == answer["distances"]
        )
    return {"recall": recall, "bitwise": bitwise, "complete": complete}


# ---------------------------------------------------------------------- #
# untraced run: the end-to-end numbers
# ---------------------------------------------------------------------- #
def run_end_to_end(args, scale, out: Path) -> int:
    rounds = scale["rounds"]
    peaks: List[float] = []

    def measure(state: State, index: int) -> Recorder:
        recorder = drive(state, args.seed, args.seconds / rounds, index)
        peaks.append(state.served.child.peak_rss_mb())
        return recorder

    state, setups, builds, recorders = run_rounds(
        rounds, lambda: set_up(args, scale, out), measure, tear_down
    )
    with state.served.child as child:
        answers = check_answers(state)
        status, stats = get_json(child.port, "/stats")
        clean = child.stop()
    shutil.rmtree(state.served.path, ignore_errors=True)
    dump_samples(recorders, out / "samples.json")
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    metrics = {
        "setup_s": median(setups),
        "build_s": median(builds),
        "query_qps": median(r.rate("query") for r in recorders),
        "query_p50_ms": median(median(r.latencies_ms("query")) for r in recorders),
        "recall_at_10": answers["recall"],
        "peak_rss_mb": max(peaks),
        "failed_share": failed / max(attempted, 1),
    }
    checks = {
        "answers_bitwise_equal_in_process": answers["bitwise"],
        "recall_floor": answers["recall"] >= RECALL_FLOOR,
        "clean_drain": clean,
        "server_counted_no_errors": status == 200
        and not stats["server"]["errors_total"]
        and stats["server"]["shed_total"] == 0,
    }
    details = {
        "rounds": rounds,
        "query_samples": sum(len(r.latencies_ms("query")) for r in recorders),
        "loadgen.query_p95_ms": median(r.tail_ms("query", 95) for r in recorders),
        "loadgen.query_p99_ms": median(r.tail_ms("query", 99) for r in recorders),
        "loadgen.busy_share": max(r.busy_share for r in recorders),
        "setup_samples_s": setups,
        "build_samples_s": builds,
    }
    return finish(
        args, out, metrics=metrics, attempted=attempted, failed=failed,
        checks=checks, details=details,
    )


# ---------------------------------------------------------------------- #
# traced run: the read ladder and the per-layer counters
# ---------------------------------------------------------------------- #
def read_ladder(state: State, scale, seed: int, out: Path, spans: Spans) -> Dict[str, float]:
    """The same unique queries through every rung's public entry point.

    ``quant`` is an unsharded ``sq8`` index over the same rows, so
    ``shard.overhead_us`` is what 2-way sharding costs against not
    sharding.  The rungs above share one index object through the
    harness's own collection directory.  Each cached rung gets its own
    ``SearchService`` so every call is a cache miss, like 80 % of the
    traffic (and therefore like the median request).
    """
    from repro.api import make_index
    from repro.net import HttpResponse
    from repro.service import QueryRequest
    from repro.store import Collection

    vectors = noisy_rows(np.random.default_rng([seed, 4]), state.corpus.base, scale["n_ladder"])
    bodies = [json.dumps(query_body(v)).encode("utf-8") for v in vectors]
    doubles = [np.asarray(v.tolist(), dtype=np.float64) for v in vectors]
    request = QueryRequest(k=K)

    flat = make_index("sq8").build(state.corpus.base)
    path = out / "ladder-collection"
    shutil.rmtree(path, ignore_errors=True)
    collection = Collection.create(path, state.served.index)
    service, _ = build_stack(collection, cache_size=CACHE_ENTRIES, tenant=False)
    gateway = fresh_gateway(collection)
    wired = fresh_gateway(collection)
    response_bytes = []

    def wire(item: int) -> None:
        started = time.perf_counter()
        body = json.loads(bodies[item].decode("utf-8"))
        vector = np.asarray(body["vector"], dtype=np.float64)
        decoded_request = QueryRequest.from_dict(body["request"])
        decoded = time.perf_counter()
        result = wired.search(vector, decoded_request)
        searched = time.perf_counter()
        payload = HttpResponse.json(result.as_dict()).encode()
        spans.record("wire.decode", started, decoded, "wire", item)
        spans.record("wire.encode", searched, time.perf_counter(), "wire", item)
        response_bytes.append(len(payload))

    try:
        run_ladder(
            spans,
            [
                ("quant", lambda i: flat.batch_query(doubles[i][None, :], K)),
                ("shard", lambda i: state.served.index.batch_query(doubles[i][None, :], K)),
                ("store", lambda i: collection.batch_query(doubles[i][None, :], K)),
                ("service", lambda i: service.search(doubles[i], request)),
                ("tenant", lambda i: gateway.search(doubles[i], request)),
                ("wire", wire),
            ],
            len(vectors),
        )
    finally:
        collection.close()
        shutil.rmtree(path, ignore_errors=True)
    answers = one_by_one(
        state.port, "/query", [json.loads(b) for b in bodies],
        headers=HEADERS, spans=spans,
    )
    if any(a is None for a in answers):
        raise BenchmarkError("read ladder: the server refused a request")
    return {
        "request_bytes": median(len(b) for b in bodies),
        "response_bytes": median(response_bytes),
    }


def trace_figures(port: int) -> Dict[str, float]:
    """Spans per query and leaf-span coverage of the root, from ``/debug/traces``."""
    _, text = get_json(port, "/debug/traces?format=jsonl")
    counts, coverage = [], []
    for line in text.splitlines():
        trace = json.loads(line)
        if trace.get("name") != "http.query":
            continue
        rows = trace.get("spans", [])
        parents = {row.get("parent_id") for row in rows}
        # The root's parent is the client's span, which is not in the trace.
        own = {row.get("span_id") for row in rows}
        root = next((row for row in rows if row.get("parent_id") not in own), None)
        if root is None or not root.get("duration_seconds"):
            continue
        leaves = [row for row in rows if row.get("span_id") not in parents]
        counts.append(len(rows))
        coverage.append(
            sum(row.get("duration_seconds") or 0.0 for row in leaves)
            / root["duration_seconds"]
        )
    if not counts:
        return {"spans_per_query": 0.0, "span_coverage": 0.0}
    return {"spans_per_query": median(counts), "span_coverage": median(coverage)}


def tracing_windows(state: State, seed: int, seconds: float):
    """Alternate untraced and traced windows of the same traffic on one server.

    Both sides of a pair run in the same process a moment apart, so what
    differs is the tracing and not where a process's memory landed; the
    side that goes first alternates.  Returns ``(untraced, traced)``
    recorders, pair by pair.
    """
    window = seconds / (2 * N_TRACING_PAIRS)
    untraced, traced = [], []
    for pair in range(N_TRACING_PAIRS):
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            recorder = drive(state, seed, window, 2 * pair + is_traced, traced=is_traced)
            (traced if is_traced else untraced).append(recorder)
    return untraced, traced


def run_traced(args, scale, out: Path) -> int:
    spans = Spans()
    state = set_up(args, scale, out)
    with state.served.child as child:
        sizes = read_ladder(state, scale, args.seed, out, spans)
        untraced, traced = tracing_windows(state, args.seed, float(args.seconds))
        figures = trace_figures(child.port)
        status, stats = get_json(child.port, "/stats")
        child.stop()
    shutil.rmtree(state.served.path, ignore_errors=True)
    spans.flush(out / "spans.jsonl")
    dump_samples(untraced + traced, out / "samples.json")

    cache = stats["services"][NAMESPACE]["cache"]
    tenant = stats["tenants"]["tenants"][TENANT]
    p50_untraced = [median(r.latencies_ms("query")) for r in untraced]
    p50_traced = [median(r.latencies_ms("query")) for r in traced]
    lookups = cache["hits"] + cache["misses"]
    attempted = sum(r.attempted for r in untraced + traced)
    failed = sum(r.failed for r in untraced + traced)
    metrics = {
        "datasets.generate_s": state.corpus.generate_s,
        "datasets.ground_truth_s": state.corpus.ground_truth_s,
        "store.create_s": state.served.create_s,
        "net.boot_s": state.served.child.boot_s,
        "quant.query_us": spans.median_us("quant"),
        "shard.overhead_us": spans.self_us("shard", "quant"),
        "store.overhead_us": spans.self_us("store", "shard"),
        "service.overhead_us": spans.self_us("service", "store"),
        "tenant.overhead_us": spans.self_us("tenant", "service"),
        "wire.decode_us": spans.median_us("wire.decode"),
        "wire.encode_us": spans.median_us("wire.encode"),
        "net.overhead_us": spans.self_us("net", "wire"),
        "net.request_bytes": sizes["request_bytes"],
        "net.response_bytes": sizes["response_bytes"],
        "net.shed_total": stats["server"]["shed_total"],
        "net.errors_total": sum(stats["server"]["errors_total"].values()),
        "tenant.denied_total": tenant["quota_denials"],
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.cache_evictions": cache["evictions"],
        "obs.tracing_overhead_share": median(
            (t - u) / u for u, t in zip(p50_untraced, p50_traced)
        ),
        "obs.spans_per_query": figures["spans_per_query"],
        "obs.span_coverage": figures["span_coverage"],
        "loadgen.query_p95_ms": median(r.tail_ms("query", 95) for r in untraced),
        "loadgen.query_p99_ms": median(r.tail_ms("query", 99) for r in untraced),
        "loadgen.requests_sent": attempted,
        "loadgen.requests_ok": attempted - failed,
        "loadgen.failed_share": failed / max(attempted, 1),
        "loadgen.busy_share": max(r.busy_share for r in untraced + traced),
    }
    top_ms = spans.median_us("net") / 1e3
    self_times = [
        metrics[name]
        for name in (
            "quant.query_us", "shard.overhead_us", "store.overhead_us",
            "service.overhead_us", "tenant.overhead_us", "wire.decode_us",
            "wire.encode_us", "net.overhead_us",
        )
    ]
    details = {
        "ladder_top_rung_ms_one_connection": top_ms,
        "untraced_query_p50_ms_two_connections": median(p50_untraced),
        "contention_gap_share": (median(p50_untraced) - top_ms) / median(p50_untraced),
        "traced_query_p50_ms": median(p50_traced),
        "tracing_overhead_share_per_pair": [
            (t - u) / u for u, t in zip(p50_untraced, p50_traced)
        ],
        "self_times_sum_ms": sum(self_times) / 1e3,
        "quant_share_of_query_p50": metrics["quant.query_us"] / 1e3 / median(p50_untraced),
        "ladder_queries": scale["n_ladder"],
    }
    checks = {
        "server_counted_no_errors": status == 200 and not stats["server"]["errors_total"],
        "traces_recorded": figures["spans_per_query"] > 0,
    }
    return finish(
        args, out, metrics=metrics, attempted=attempted, failed=failed,
        checks=checks, details=details, layer_metrics=LAYER_METRICS,
    )


def run(args) -> int:
    scale = SCALES["smoke" if args.smoke else "full"]
    out = out_dir_for(args)
    return run_traced(args, scale, out) if args.trace else run_end_to_end(args, scale, out)
