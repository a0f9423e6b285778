"""Tracing queries end to end: a walkthrough of ``repro.obs``.

Run with:  python examples/tracing_queries.py

The observability story, span by span:

1. serve a tenant-scoped, sharded, *quantized* collection over HTTP
   with ``trace_sample_rate=1.0`` — every request records one tree of
   timed spans (parse, admission queue, tenant policy, per-shard scan,
   quantized scan + exact re-rank, serialize);
2. fetch the trace back: the response's ``X-Trace-Id`` header names it
   at ``/debug/traces/<id>``; pretty-print the tree and check it is
   complete and well-nested with ``validate_span_tree``;
3. trace *from the client*: begin a trace locally, let ``request_json``
   forward it as a traceparent header, and observe the server file its
   handling under the client's trace id (``origin="propagated"``);
4. turn head sampling off and see tail sampling keep the slow request
   anyway (``origin="tail"`` — the interesting queries never vanish);
5. read the aggregates: the worst-N slow-query log, the
   ``repro_stage_seconds{stage=...}`` histograms on ``/metrics``, and a
   JSONL export of the trace ring buffer.
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.api import make_index
from repro.net import SearchServer, ServerConfig, request_json
from repro.obs import Tracer, TracingConfig, activate, deactivate, validate_span_tree
from repro.service import QueryRequest, SearchService
from repro.tenant import TenantConfig, TenantRegistry

DIM = 24


def post_query(url: str, vector, tenant: str) -> tuple[dict, str]:
    """POST /query returning (payload, X-Trace-Id header)."""
    request = urllib.request.Request(
        f"{url}/query",
        data=json.dumps(
            {"vector": list(vector), "request": QueryRequest(k=5).as_dict()}
        ).encode(),
        headers={"Content-Type": "application/json", "X-Tenant": tenant},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        payload = json.loads(response.read())
        return payload, response.headers.get("X-Trace-Id", "")


def print_tree(trace: dict) -> None:
    """Indent each span under its parent, with timings and attributes."""
    children: dict = {}
    for span in trace["spans"]:
        children.setdefault(span.get("parent_id"), []).append(span)

    def walk(span: dict, depth: int) -> None:
        attrs = span.get("attributes") or {}
        shown = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        print(
            f"   {'  ' * depth}{span['name']:<22} "
            f"{span['duration_seconds'] * 1e3:8.3f} ms"
            + (f"   {shown}" if shown else "")
        )
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    walk(trace["spans"][0], 0)


def main() -> None:
    rng = np.random.default_rng(11)
    base = rng.normal(size=(2000, DIM)).astype(np.float32)

    # 1. A tenant on a sharded, scalar-quantized namespace: the traced
    # request will cross every layer the repo has.
    registry = TenantRegistry()
    registry.add_namespace(
        "products",
        SearchService(make_index("sharded", n_shards=2, spec="sq8").build(base)),
    )
    registry.create_tenant("acme", "products", TenantConfig(qps=10_000))

    config = ServerConfig(port=0, trace_sample_rate=1.0)
    with SearchServer(tenants=registry, config=config) as server:
        _, trace_id = post_query(server.url, rng.normal(size=DIM), "acme")
        print(f"1. query answered, X-Trace-Id: {trace_id}")

        # 2. The whole path, one tree.
        _, payload = request_json(f"{server.url}/debug/traces/{trace_id}")
        trace = payload["traces"][0]
        print(f"2. span tree ({len(trace['spans'])} spans, origin={trace['origin']}):")
        print_tree(trace)
        problems = validate_span_tree(trace)
        assert problems == [], problems
        stages = {span["name"] for span in trace["spans"]}
        assert {"http.parse", "tenant.acl_quota", "shard.scan",
                "quant.scan", "quant.rerank"} <= stages
        print("   complete and well-nested; stages:", ", ".join(sorted(stages)))

        # 3. Trace from the client: request_json forwards the active
        # trace as a traceparent header, so the server's handling is
        # filed under *our* trace id.
        client = Tracer(TracingConfig(sample_rate=1.0))
        trace = client.begin("checkout.recommend")
        token = activate(trace)
        try:
            request_json(
                f"{server.url}/query", method="POST",
                body={"vector": rng.normal(size=DIM).tolist(),
                      "request": QueryRequest(k=5).as_dict()},
                headers={"X-Tenant": "acme"},
            )
        finally:
            deactivate(token)
            client.finish(trace)
        _, payload = request_json(f"{server.url}/debug/traces/{trace.trace_id}")
        server_side = payload["traces"][0]
        assert server_side["origin"] == "propagated"
        print(
            f"3. client trace {trace.trace_id} crossed the HTTP hop: the "
            f"server recorded {server_side['name']!r} under it "
            f"(origin={server_side['origin']})"
        )

        # 5a. Aggregates: the slow log rides /debug/traces, per-stage
        # histograms ride /metrics, and the ring buffer exports as JSONL.
        _, debug = request_json(f"{server.url}/debug/traces")
        print(
            f"5. tracer: {debug['tracing']['traces_finished']} traces kept, "
            f"slow log holds {len(debug['slow'])}"
        )
        _, text = request_json(f"{server.url}/metrics")
        stage_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_stage_seconds_count")
        ]
        print("   per-stage attribution on /metrics:")
        for line in stage_lines:
            print(f"     {line}")
        export = Path(tempfile.mkdtemp(prefix="traces-")) / "traces.jsonl"
        exported = server.tracer.store.export_jsonl(export)
        print(f"   exported {exported} traces to {export}")

    # 4. Sampling off: head sampling skips everything, but a request
    # slower than slow_trace_seconds is tail-recorded anyway.
    config = ServerConfig(
        port=0, trace_sample_rate=0.0, slow_trace_seconds=1e-9
    )
    with SearchServer(tenants=registry, config=config) as server:
        _, trace_id = post_query(server.url, rng.normal(size=DIM), "acme")
        assert trace_id == ""  # not head-sampled: no X-Trace-Id
        _, debug = request_json(f"{server.url}/debug/traces")
        origins = {t["origin"] for t in debug["traces"]}
        assert origins == {"tail"}
        print(
            "4. with sampling off the slow request was still kept "
            f"(origins={sorted(origins)}); fast requests cost a no-op"
        )


if __name__ == "__main__":
    main()
