"""Shared fixtures and reporting plumbing for the benchmark harness.

The paper modules under ``benchmarks/`` regenerate one table or figure of
the paper at a reduced, CPU-friendly scale on synthetic stand-ins for
SIFT/MNIST (docs/benchmarks.md lists them).  Results are printed to stdout
and also written to ``benchmarks/results/<name>.txt`` so they survive
pytest's output capture and can be compared across commits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.datasets import AnnDataset
from repro.eval import ExperimentScale, benchmark_dataset

RESULTS_DIR = Path(__file__).parent / "results"


def smoke_artifact_guard(path, *, smoke: bool) -> None:
    """Assert that a smoke run never writes a committed full-scale artifact.

    The committed trajectory files (``bench_load.json`` et al.) carry no
    suffix; smoke runs must write ``*_smoke`` names (or an ``--out-dir``
    away from ``benchmarks/results``).  Every ``write_results`` routes its
    target paths through this check, so a naming regression fails loudly
    in CI instead of silently clobbering history.
    """
    path = Path(path)
    if not smoke:
        return
    if path.stem.endswith("_smoke"):
        return
    if Path(path).resolve().parent != RESULTS_DIR.resolve():
        return  # redirected via --out-dir: cannot touch committed files
    raise AssertionError(
        f"smoke run would overwrite full-scale artifact {path.name!r} in "
        f"{RESULTS_DIR}; smoke artifacts must carry the '_smoke' suffix "
        "or be redirected with --out-dir"
    )


def resolve_out_dir(argv):
    """Pop ``--out-dir PATH`` (or ``--out-dir=PATH``) from an argv list.

    Returns ``(out_dir_or_None, remaining_argv)``.  Shared by the bench
    CLIs so CI can redirect artifacts without touching the committed
    ``benchmarks/results`` trajectory.
    """
    remaining = []
    out_dir = None
    i = 0
    argv = list(argv)
    while i < len(argv):
        arg = argv[i]
        if arg == "--out-dir":
            if i + 1 >= len(argv):
                raise SystemExit("--out-dir needs a path argument")
            out_dir = argv[i + 1]
            i += 2
            continue
        if arg.startswith("--out-dir="):
            out_dir = arg.split("=", 1)[1]
            i += 1
            continue
        remaining.append(arg)
        i += 1
    return out_dir, remaining


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The dataset scale used by all benchmark modules."""
    return ExperimentScale(
        sift_points=4000,
        sift_queries=200,
        sift_dim=64,
        sift_clusters=12,
        mnist_points=2000,
        mnist_queries=120,
        mnist_dim=256,
        seed=7,
    )


@pytest.fixture(scope="session")
def sift_dataset(bench_scale) -> AnnDataset:
    """The SIFT-1M structural stand-in at benchmark scale."""
    return benchmark_dataset("sift-like", bench_scale)


@pytest.fixture(scope="session")
def mnist_dataset(bench_scale) -> AnnDataset:
    """The MNIST structural stand-in at benchmark scale."""
    return benchmark_dataset("mnist-like", bench_scale)


@pytest.fixture(scope="session")
def report():
    """Write a named report both to stdout and to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}\n", file=sys.stderr)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, iterations=1, rounds=1)
