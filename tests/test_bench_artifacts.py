"""Guards for the benchmark artifact layout (CI writes, repo history).

The committed full-scale artifacts under ``benchmarks/results/`` are the
repo's performance trajectory; smoke runs (CI, ``--smoke`` locally) must
never overwrite them.  Two mechanisms enforce that, both tested here:

* every ``write_results`` routes its paths through
  ``conftest.smoke_artifact_guard`` which rejects a smoke run targeting
  a full-scale filename in the results directory;
* every bench CLI takes ``--out-dir`` (parsed by
  ``conftest.resolve_out_dir``) so CI can redirect artifacts entirely.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_module(name: str, monkeypatch):
    """Import a benchmarks/ module the way its CLI entry point would.

    The bench scripts do ``from conftest import ...`` at call time
    (``sys.path[0]`` is ``benchmarks/`` when run as scripts), so the
    benchmarks conftest is installed under that name for the test.
    """
    conftest_spec = importlib.util.spec_from_file_location(
        "_bench_conftest", BENCH_DIR / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(conftest_spec)
    conftest_spec.loader.exec_module(conftest)
    monkeypatch.setitem(sys.modules, "conftest", conftest)
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, conftest


class TestSmokeArtifactGuard:
    def test_smoke_must_not_target_committed_names(self, monkeypatch):
        _, conftest = load_bench_module("bench_load", monkeypatch)
        results_dir = conftest.RESULTS_DIR
        # full-scale path from a smoke run: refused
        with pytest.raises(AssertionError, match="overwrite"):
            conftest.smoke_artifact_guard(results_dir / "bench_load.json", smoke=True)
        # suffixed smoke artifact: fine
        conftest.smoke_artifact_guard(results_dir / "bench_load_smoke.json", smoke=True)
        # full-scale run writing the committed name: fine
        conftest.smoke_artifact_guard(results_dir / "bench_load.json", smoke=False)

    def test_out_dir_redirect_is_always_safe(self, monkeypatch, tmp_path):
        _, conftest = load_bench_module("bench_load", monkeypatch)
        conftest.smoke_artifact_guard(tmp_path / "bench_load.json", smoke=True)

    def test_every_ci_bench_has_the_flag_and_the_guard(self):
        ci = (BENCH_DIR.parent / ".github" / "workflows" / "ci.yml").read_text()
        names = re.findall(r"python benchmarks/(bench_\w+)\.py --smoke", ci)
        assert names, "ci.yml smoke-runs no benchmarks/bench_*.py"
        for name in names:
            source = (BENCH_DIR / f"{name}.py").read_text()
            assert "resolve_out_dir" in source, f"{name} lost its --out-dir flag"
            assert "smoke_artifact_guard" in source, f"{name} lost the smoke guard"


class TestResolveOutDir:
    @pytest.fixture()
    def conftest(self, monkeypatch):
        _, conftest = load_bench_module("bench_load", monkeypatch)
        return conftest

    def test_separate_argument(self, conftest):
        out_dir, rest = conftest.resolve_out_dir(["--smoke", "--out-dir", "/tmp/x"])
        assert out_dir == "/tmp/x"
        assert rest == ["--smoke"]

    def test_equals_form(self, conftest):
        out_dir, rest = conftest.resolve_out_dir(["--out-dir=/tmp/y"])
        assert (out_dir, rest) == ("/tmp/y", [])

    def test_absent(self, conftest):
        assert conftest.resolve_out_dir(["--smoke"]) == (None, ["--smoke"])

    def test_missing_value_exits(self, conftest):
        with pytest.raises(SystemExit):
            conftest.resolve_out_dir(["--out-dir"])


class TestBenchLoadWriteResults:
    def test_out_dir_receives_schema_compliant_artifacts(self, monkeypatch, tmp_path):
        bench_load, _ = load_bench_module("bench_load", monkeypatch)
        rows = [
            {
                "mode": "closed", "factor": 2, "repetition": 0,
                "offered_qps": None, "qps": 100.0, "elapsed_seconds": 1.0,
                "ok": 100, "shed": 0, "error": 0, "other": 0,
                "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0,
            }
        ]
        scale = {
            "n_base": 10, "dim": 4, "k": 3, "concurrency": [2],
            "open_rates": [], "repetitions": 1, "duration_seconds": 0.1,
        }
        json_path = bench_load.write_results(
            rows, scale, True, smoke=True, out_dir=str(tmp_path)
        )
        assert Path(json_path) == tmp_path / "bench_load_smoke.json"
        payload = json.loads(Path(json_path).read_text())
        assert set(payload) >= {"benchmark", "smoke", "scale", "rows"}
        assert payload["benchmark"] == "bench_load"
        assert payload["smoke"] is True
        assert payload["saturation_qps"] == 100.0
        assert payload["drain_clean"] is True
        assert (tmp_path / "bench_load_smoke.txt").exists()
        bench_load.check_serving(rows, True)
