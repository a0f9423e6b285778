"""Smoke tests for the experiment runners behind the benchmark harness.

The full-scale runs live under ``benchmarks/``; these tests run the same
code paths at a tiny scale so regressions in the runners are caught by the
fast test suite.
"""

import numpy as np
import pytest

from repro.datasets import sift_like
from repro.eval import (
    run_figure6,
    run_figure7,
    run_table3,
    run_table4,
    speedup_at_accuracy,
)
from repro.eval.experiments import ExperimentScale, _square_levels

#: unit-test scale: every runner finishes in seconds
TINY_SCALE = ExperimentScale(
    sift_points=1200, sift_queries=60, sift_dim=32, sift_clusters=8, mnist_points=800, mnist_queries=40, mnist_dim=64
)


@pytest.fixture(scope="module")
def runner_dataset():
    return sift_like(n_points=700, n_queries=40, dim=32, n_clusters=6, seed=17)


class TestSquareLevels:
    def test_perfect_square(self):
        assert tuple(_square_levels(256)) == (16, 16)
        assert tuple(_square_levels(64)) == (8, 8)

    def test_non_square_factorisation(self):
        levels = _square_levels(32)
        assert int(np.prod(levels)) == 32

    def test_prime_falls_back_to_flat(self):
        assert tuple(_square_levels(13)) == (13,)


class TestFigure6Runner:
    def test_all_methods_present(self, runner_dataset):
        curves = run_figure6(runner_dataset, depth=3, epochs=3, probes=[1, 4, 8])
        methods = {c.method for c in curves}
        assert methods == {
            "USP (logistic tree)",
            "Regression LSH",
            "2-means tree",
            "PCA tree",
            "Random projection tree",
            "Learned KD-tree",
            "Boosted search forest",
        }
        for curve in curves:
            assert len(curve.points) == 3
            assert curve.points[-1].accuracy >= curve.points[0].accuracy - 1e-9


class TestFigure7Runner:
    def test_pipelines_and_speedup(self, runner_dataset):
        curves = run_figure7(
            runner_dataset, n_bins=4, epochs=4, probes=[1, 4], include_hnsw=False
        )
        methods = {c.method for c in curves}
        assert {"USP + ScaNN", "K-means + ScaNN", "ScaNN (no partition)", "FAISS (IVF-PQ)"} <= methods
        for curve in curves:
            for point in curve.points:
                assert point.queries_per_second > 0
                assert 0.0 <= point.accuracy <= 1.0
        ratio = speedup_at_accuracy(curves, "ScaNN (no partition)", "USP + ScaNN", 0.3)
        assert ratio > 0


class TestTableRunners:
    def test_table3_rows(self):
        scale = TINY_SCALE
        rows = run_table3(
            scale=scale,
            configurations=[
                {"dataset": "sift-like", "n_bins": 4, "epochs": 2},
                {"dataset": "sift-like", "n_bins": 8, "epochs": 2},
            ],
            ensemble_size=1,
        )
        assert len(rows) == 2
        assert all(row["training_seconds"] > 0 for row in rows)
        assert rows[0]["n_bins"] == 4 and rows[1]["n_bins"] == 8

    def test_table4_relative_reduction(self, runner_dataset):
        results = run_table4(
            runner_dataset, n_bins=4, target_accuracy=0.8, ensemble_size=1, epochs=4
        )
        assert "usp_candidate_size" in results
        assert results["usp_candidate_size"] > 0
        for method in ("Neural LSH", "K-means"):
            assert method in results
            value = results[method]
            assert np.isnan(value) or -1.0 <= value <= 1.0
