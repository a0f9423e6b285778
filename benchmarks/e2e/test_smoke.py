"""Smoke test of the benchmark itself (not part of the tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Each
workload runs at ``--smoke`` scale, untraced and traced, through the same
command the driver uses, and the result line is checked against
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = json.loads((HERE / "bounds.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_benchmark(tmp_path, *extra):
    command = [sys.executable, *SPEC["command"][1:], *extra, "--out-dir", str(tmp_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_is_within_the_contract_limits():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in BOUNDS["scoped"]:
        assert NAME.match(metric["name"]) and metric["name"] not in names
        assert set(metric["workloads"]) <= set(WORKLOADS)
        assert ("bound" in metric) != ("absolute" in metric)
    assert set(BOUNDS["same_seed_absolute"]) <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = run_benchmark(
        tmp_path, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] != 0.0, metric["name"]
    scoped = json.loads((tmp_path / "result.json").read_text())["scoped"]
    owed = {} if trace else {
        m["name"]: m["unit"] for m in BOUNDS["scoped"] if workload in m["workloads"]
    }
    assert {name: entry["unit"] for name, entry in scoped.items()} == owed
    if trace and workload != "usp_build":
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_every_layer_metric_is_declared_and_measured_by_its_workloads(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        import run
        declared = {w: __import__(module).LAYER_METRICS for w, module in run.WORKLOADS.items()}
    finally:
        sys.path.remove(str(HERE))
    assert set().union(*declared.values()) == {m["name"] for m in SPEC["per_layer"]}
    # Counters that are zero on a healthy run; cache evictions, which need
    # more traffic than a smoke window sends; and the two end-of-run gauges,
    # which read zero when the window ends just after a compaction.  A
    # workload that declares any other layer metric must report a non-zero
    # value for it.
    quiet = {
        "net.shed_total", "net.errors_total", "tenant.denied_total",
        "loadgen.failed_share", "service.cache_evictions",
        "shard.pending_rows_end", "shard.tombstones_end",
    }
    for workload in WORKLOADS:
        result = run_benchmark(
            tmp_path / workload, "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", "1", "--smoke",
        )
        for name, emitted in result["metrics"].items():
            if name in declared[workload] - quiet:
                assert emitted["value"] != 0.0, (workload, name)
            elif name not in declared[workload]:
                assert emitted["value"] == 0.0, (workload, name)


def test_a_failed_check_fails_the_run(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run, wl_scan_batch; "
        "wl_scan_batch.RECALL_FLOOR = 2.0; "
        "raise SystemExit(run.main(['--workload', 'scan_batch', '--seconds', '1', "
        "'--smoke', '--out-dir', sys.argv[2]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    assert "check recall_floor: FAILED" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_a_declared_layer_metric_that_is_not_measured_aborts(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run, wl_scan_batch; "
        "wl_scan_batch.LAYER_METRICS |= {'net.boot_s'}; "
        "raise SystemExit(run.main(['--workload', 'scan_batch', '--seconds', '1', "
        "'--trace', '1', '--smoke', '--out-dir', sys.argv[2]]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 3 and "did not measure ['net.boot_s']" in done.stderr


def test_compare_accepts_a_summary_against_itself(tmp_path):
    summary = {
        "runs": [
            {"workload": w, "trace": 0,
             "metrics": {m["name"]: {"value": 1.0 + i, "unit": m["unit"]}
                         for m in SPEC["end_to_end"]
                         + [m for m in BOUNDS["scoped"] if w in m["workloads"]]}}
            for w in WORKLOADS for i in (0.0, 0.001)
        ]
    }
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    command = [sys.executable, *SPEC["command"][1:], "compare", str(path), str(path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout
    assert "0 breach(es)" in done.stdout
    worse = json.loads(json.dumps(summary))
    for row in worse["runs"]:
        row["metrics"]["query_p50_ms"]["value"] *= 2.0
    other = tmp_path / "worse.json"
    other.write_text(json.dumps(worse))
    done = subprocess.run(
        [*command[:-1], str(other)], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1 and done.stdout.count("BREACH") == len(WORKLOADS)
    # A write-side regression on ingest_mixed alone is a breach too.
    worse = json.loads(json.dumps(summary))
    for row in worse["runs"]:
        if row["workload"] == "ingest_mixed":
            row["metrics"]["add_p50_ms"]["value"] *= 3.0
    other.write_text(json.dumps(worse))
    done = subprocess.run(
        [*command[:-1], str(other)], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1 and done.stdout.count("BREACH") == 1
