"""Tracing overhead on the quantized serving path: free when off, cheap when on.

The claims behind :mod:`repro.obs`:

* with sampling **off** (rate 0) the instrumentation is effectively
  free — ``span(...)`` consults one ContextVar and returns a shared
  no-op, so the sq8 serving path keeps its QPS (< 3% overhead asserted
  at full scale);
* with sampling at **1.0** every request records its full span tree
  (service → quant scan → exact re-rank) and the batch path still keeps
  overhead under 5% of the untraced QPS;
* the trees recorded while measuring are *complete and well-nested*
  (``validate_span_tree``), and a tracer at rate 0 records nothing.

Results are written to ``benchmarks/results/bench_obs.txt`` (human
readable) and ``benchmarks/results/bench_obs.json`` (machine readable,
same shape as the other bench JSONs).  The module doubles as a CI smoke
test:

    python benchmarks/bench_obs.py --smoke

runs the whole pipeline at a tiny scale so the script can never rot
(overhead ratios are only asserted at full scale — smoke runners are
noisy).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.api import make_index
from repro.datasets import sift_like
from repro.eval import format_table
from repro.obs import (
    Tracer,
    TracingConfig,
    activate,
    deactivate,
    validate_span_tree,
)
from repro.service import QueryRequest, SearchService

K = 10
RERANK_FACTOR = 4

FULL_SCALE = dict(n_points=40_000, n_queries=256, dim=96, n_clusters=16)
SMOKE_SCALE = dict(n_points=1_500, n_queries=48, dim=32, n_clusters=6)

#: (config label, head-sampling rate; None = no tracer in the loop at all)
TRACING_CONFIGS = [
    ("untraced", None),
    ("sampling=0", 0.0),
    ("sampling=1", 1.0),
]


def _make_service(data) -> SearchService:
    # cache off: every measured pass must do the same quantized work, or
    # the later (traced) configs would win on cache hits, not lose on
    # instrumentation.
    index = make_index("sq8", rerank_factor=RERANK_FACTOR).build(data.base)
    return SearchService(index, cache_size=0)


def _run_pass(service, data, request, tracer, mode: str) -> None:
    """One full pass over the query set under one tracing config."""
    if mode == "batch":
        trace = tracer.begin("bench.batch") if tracer is not None else None
        token = activate(trace) if trace is not None else None
        try:
            service.search_batch(data.queries, request)
        finally:
            if trace is not None:
                deactivate(token)
                tracer.finish(trace)
        return
    for row in data.queries:
        trace = tracer.begin("bench.query") if tracer is not None else None
        token = activate(trace) if trace is not None else None
        try:
            service.search(row, request)
        finally:
            if trace is not None:
                deactivate(token)
                tracer.finish(trace)


def _qps(service, data, request, tracer, mode: str, repeats: int) -> float:
    _run_pass(service, data, request, tracer, mode)  # warmup
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        _run_pass(service, data, request, tracer, mode)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return data.n_queries / max(best, 1e-9)


def run_obs_benchmark(smoke: bool = False):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    repeats = 2 if smoke else 4
    data = sift_like(gt_k=K, seed=29, **scale)
    service = _make_service(data)
    request = QueryRequest(k=K)

    rows = []
    zero_rate_tracers = []
    for mode in ("single", "batch"):
        baseline_qps = None
        for label, rate in TRACING_CONFIGS:
            tracer = None
            if rate is not None:
                tracer = Tracer(TracingConfig(sample_rate=rate, capacity=64))
                if rate == 0.0:
                    zero_rate_tracers.append(tracer)
            qps = _qps(service, data, request, tracer, mode, repeats)
            if baseline_qps is None:
                baseline_qps = qps
            rows.append(
                {
                    "section": "overhead",
                    "mode": mode,
                    "tracing": label,
                    "qps": round(qps, 1),
                    "overhead_pct": round(100.0 * (1.0 - qps / baseline_qps), 2),
                }
            )

    # -- one fully sampled trace, structurally validated ---------------- #
    tracer = Tracer(TracingConfig(sample_rate=1.0))
    _run_pass(service, data, request, tracer, "single")
    sample = tracer.store.snapshot()[-1]
    stages = sorted({s["name"] for s in sample["spans"]})
    rows.append(
        {
            "section": "trace",
            "stages": stages,
            "n_spans": len(sample["spans"]),
            "problems": validate_span_tree(sample),
            "spans_dropped": sample["spans_dropped"],
        }
    )
    rows.append(
        {
            "section": "zero_rate",
            "traces_finished": sum(
                t.stats()["traces_finished"] for t in zero_rate_tracers
            ),
            "spans_recorded": sum(
                t.stats()["spans_recorded"] for t in zero_rate_tracers
            ),
        }
    )
    return rows, scale


def format_report(rows, scale) -> str:
    header = (
        f"tracing overhead on the sq8 serving path: {scale['n_points']} points, "
        f"dim={scale['dim']}, {scale['n_queries']} queries, k={K}, "
        f"rerank_factor={RERANK_FACTOR}"
    )
    overhead = [r for r in rows if r["section"] == "overhead"]
    trace = next(r for r in rows if r["section"] == "trace")
    zero = next(r for r in rows if r["section"] == "zero_rate")
    sections = [
        header,
        format_table(
            ["mode", "tracing", "qps", "overhead %"],
            [
                [r["mode"], r["tracing"], r["qps"], r["overhead_pct"]]
                for r in overhead
            ],
            title="QPS by tracing config (overhead vs the untraced baseline)",
            float_format="{:.2f}",
        ),
        "fully sampled single-query trace: "
        + f"{trace['n_spans']} spans, stages={trace['stages']}, "
        + f"problems={trace['problems'] or 'none'}",
        "rate-0 tracers during measurement: "
        + f"{zero['traces_finished']} traces, {zero['spans_recorded']} spans recorded",
    ]
    return "\n\n".join(sections)


def write_results(rows, scale, smoke: bool, out_dir=None) -> str:
    from conftest import smoke_artifact_guard

    results_dir = out_dir or os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    suffix = "_smoke" if smoke else ""
    text = format_report(rows, scale)
    text_path = os.path.join(results_dir, f"bench_obs{suffix}.txt")
    smoke_artifact_guard(text_path, smoke=smoke)
    with open(text_path, "w") as handle:
        handle.write(text + "\n")
    payload = {
        "benchmark": "bench_obs",
        "smoke": bool(smoke),
        "k": K,
        "rerank_factor": RERANK_FACTOR,
        "scale": dict(scale),
        "rows": rows,
    }
    json_path = os.path.join(results_dir, f"bench_obs{suffix}.json")
    smoke_artifact_guard(json_path, smoke=smoke)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return json_path


def check_obs(rows, smoke: bool) -> None:
    """The acceptance assertions (overhead ratios only at full scale)."""
    trace = next(r for r in rows if r["section"] == "trace")
    assert trace["problems"] == [], f"sampled trace is damaged: {trace['problems']}"
    assert trace["spans_dropped"] == 0, trace
    # the tree must attribute the quantized serving path, not just wrap it
    for stage in ("service.search", "quant.scan", "quant.rerank"):
        assert stage in trace["stages"], f"missing stage {stage}: {trace['stages']}"
    zero = next(r for r in rows if r["section"] == "zero_rate")
    assert zero["traces_finished"] == 0, "a rate-0 tracer recorded a trace"
    assert zero["spans_recorded"] == 0, "a rate-0 tracer recorded spans"
    if smoke:
        return  # perf ratios are meaningless on noisy smoke runners
    overhead = {
        (r["mode"], r["tracing"]): r["overhead_pct"]
        for r in rows
        if r["section"] == "overhead"
    }
    assert overhead[("batch", "sampling=0")] < 3.0, overhead
    assert overhead[("batch", "sampling=1")] < 5.0, overhead


def test_obs_overhead(benchmark, report):
    from conftest import run_once

    rows, scale = run_once(benchmark, run_obs_benchmark)
    report("bench_obs", format_report(rows, scale))
    write_results(rows, scale, smoke=False)
    check_obs(rows, smoke=False)


def main(argv=None) -> int:
    from conftest import resolve_out_dir

    argv = sys.argv[1:] if argv is None else argv
    out_dir, argv = resolve_out_dir(argv)
    smoke = "--smoke" in argv
    rows, scale = run_obs_benchmark(smoke=smoke)
    print(format_report(rows, scale))
    json_path = write_results(rows, scale, smoke, out_dir=out_dir)
    check_obs(rows, smoke=smoke)
    print(f"\nwritten to {json_path} (and bench_obs.txt alongside)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
