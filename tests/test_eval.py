"""Tests for the evaluation harness (metrics, sweeps, reporting, experiments)."""

import numpy as np
import pytest

from repro.eval import (
    SweepCurve,
    SweepPoint,
    accuracy_candidate_curve,
    benchmark_dataset,
    candidate_stats,
    default_usp_config,
    format_curves,
    format_frontier_summary,
    format_table,
    knn_accuracy,
    probe_schedule,
    run_table2,
    run_table5,
    speedup_at_accuracy,
    throughput_accuracy_curve,
)
from repro.baselines import KMeansIndex
from repro.utils.exceptions import ValidationError
from test_experiment_runners import TINY_SCALE


class TestKnnAccuracy:
    def test_perfect(self):
        gt = np.array([[1, 2, 3], [4, 5, 6]])
        assert knn_accuracy(gt, gt, 3) == pytest.approx(1.0)

    def test_partial_overlap(self):
        retrieved = np.array([[1, 2, 9]])
        gt = np.array([[1, 2, 3]])
        assert knn_accuracy(retrieved, gt, 3) == pytest.approx(2 / 3)

    def test_padding_ignored(self):
        retrieved = np.array([[1, -1, -1]])
        gt = np.array([[1, 2, 3]])
        assert knn_accuracy(retrieved, gt, 3) == pytest.approx(1 / 3)

    def test_order_does_not_matter(self):
        retrieved = np.array([[3, 1, 2]])
        gt = np.array([[1, 2, 3]])
        assert knn_accuracy(retrieved, gt, 3) == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            knn_accuracy(np.array([[1]]), np.array([[1], [2]]), 1)
        with pytest.raises(ValidationError):
            knn_accuracy(np.array([[1]]), np.array([[1]]), 5)


class TestCandidateMetrics:
    def test_candidate_stats_is_bin_arithmetic(self):
        # four points in two bins; query 0 ranks bin 0 first, query 1 bin 1
        index = KMeansIndex(2, seed=0).build(np.array([[0.0], [0.1], [0.2], [9.0]]))
        queries = np.array([[0.05], [9.1]])
        gt = np.array([[0, 3], [3, 2]])
        near_bin = index.assignments[0]
        assert index.bin_sizes()[near_bin] == 3
        size, ceiling = candidate_stats(index, queries, gt, 2, 1)
        assert size == pytest.approx(2.0)  # |C| = 3 and 1
        assert ceiling == pytest.approx(0.5)  # 0 and 3 are candidates, 3 and 2 are not
        assert candidate_stats(index, queries, gt, 2, 2) == (4.0, 1.0)

    def test_candidate_stats_rejects_short_ground_truth(self):
        index = KMeansIndex(2, seed=0).build(np.array([[0.0], [0.1], [0.2], [9.0]]))
        with pytest.raises(ValidationError):
            candidate_stats(index, np.zeros((2, 1)), np.array([[1], [2]]), 2, 1)

    @pytest.mark.parametrize("n_queries", [1, 3])
    def test_candidate_stats_rejects_a_query_count_mismatch(self, n_queries):
        index = KMeansIndex(2, seed=0).build(np.array([[0.0], [0.1], [0.2], [9.0]]))
        with pytest.raises(ValidationError, match="one row per query"):
            candidate_stats(index, np.zeros((n_queries, 1)), np.array([[1, 0], [2, 3]]), 2, 1)


class TestSweep:
    def test_probe_schedule_properties(self):
        schedule = probe_schedule(16)
        assert schedule[0] == 1
        assert schedule[-1] == 16
        assert schedule == sorted(set(schedule))

    def test_probe_schedule_small(self):
        assert probe_schedule(2) == [1, 2]

    def test_accuracy_candidate_curve_monotone_candidates(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        curve = accuracy_candidate_curve(index, tiny_dataset, k=10, probes=[1, 2, 4])
        sizes = curve.candidate_sizes()
        assert (np.diff(sizes) > 0).all()
        assert curve.points[-1].accuracy == pytest.approx(1.0)
        assert curve.points[0].candidate_ceiling >= curve.points[0].accuracy - 1e-9

    def test_curve_interpolation(self):
        curve = SweepCurve(
            "m",
            [
                SweepPoint(1, 100.0, 0.5),
                SweepPoint(2, 200.0, 0.9),
            ],
        )
        assert curve.candidate_size_at_accuracy(0.7) == pytest.approx(150.0)
        assert curve.candidate_size_at_accuracy(0.95) == float("inf")

    def test_throughput_curve(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        curve = throughput_accuracy_curve(index, tiny_dataset, k=10, probes=[1, 4])
        assert all(p.queries_per_second > 0 for p in curve.points)
        assert curve.points[-1].accuracy >= curve.points[0].accuracy

    def test_speedup_at_accuracy(self):
        fast = SweepCurve("fast", [SweepPoint(1, 0, 0.9, queries_per_second=200.0)])
        slow = SweepCurve("slow", [SweepPoint(1, 0, 0.9, queries_per_second=100.0)])
        assert speedup_at_accuracy([fast, slow], "slow", "fast", 0.85) == pytest.approx(2.0)
        assert np.isnan(speedup_at_accuracy([fast], "missing", "fast", 0.5))


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_curves_contains_methods(self):
        curve = SweepCurve("methodX", [SweepPoint(1, 10.0, 0.5)])
        assert "methodX" in format_curves([curve])

    def test_format_frontier_summary_unreached(self):
        curve = SweepCurve("m", [SweepPoint(1, 10.0, 0.5)])
        text = format_frontier_summary([curve], (0.9,))
        assert "unreached" in text


class TestExperimentRunners:
    def test_benchmark_dataset_scales(self):
        scale = TINY_SCALE
        data = benchmark_dataset("sift-like", scale)
        assert data.n_points == scale.sift_points
        data = benchmark_dataset("mnist-like", scale)
        assert data.dim == scale.mnist_dim
        with pytest.raises(ValueError):
            benchmark_dataset("glove")

    def test_default_usp_config(self):
        config = default_usp_config(16)
        assert config.n_bins == 16
        assert default_usp_config(256).eta >= config.eta

    def test_table2_ordering_matches_paper(self):
        counts = run_table2()
        assert counts["Neural LSH"] > counts["USP (ours)"] > counts["K-means"]
        # The paper reports ~729k / ~183k / ~33k; check the right ballpark.
        assert 500_000 < counts["Neural LSH"] < 1_000_000
        assert 100_000 < counts["USP (ours)"] < 300_000
        assert counts["K-means"] == 128 * 256

    def test_table5_rows_complete(self):
        rows = run_table5(n_points=150, include_spectral=False)
        datasets = {row["dataset"] for row in rows}
        methods = {row["method"] for row in rows}
        assert len(datasets) == 3
        assert {"USP (ours)", "DBSCAN", "K-means"} <= methods
        for row in rows:
            assert -1.0 <= row["ari"] <= 1.0
            assert 0.0 <= row["nmi"] <= 1.0
