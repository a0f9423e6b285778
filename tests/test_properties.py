"""Property-based tests (hypothesis) on core invariants.

These complement the unit tests with randomly generated inputs: partition
indexes must always cover the dataset, candidate sets must always come from
the claimed bins, metrics must stay in range, and the loss must respond to
eta the way Equation 5 says it should.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import KMeansIndex, PcaTreeIndex
from repro.core import neighbor_bin_distribution
from repro.core.base import rerank_candidates
from repro.eval import knn_accuracy, probe_schedule

from autodiff import Tensor, usp_loss


def clustered_points(seed: int, n: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(4, dim))
    labels = rng.integers(0, 4, size=n)
    return centers[labels] + rng.normal(size=(n, dim))


class TestPartitionInvariants:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=40, max_value=150),
        st.integers(min_value=2, max_value=6),
    )
    def test_kmeans_index_partitions_dataset(self, seed, n, n_bins):
        points = clustered_points(seed, n, 4)
        index = KMeansIndex(n_bins, seed=seed).build(points)
        sizes = index.bin_sizes()
        assert sizes.sum() == n
        assert index.assignments.min() >= 0
        assert index.assignments.max() < n_bins

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=4))
    def test_tree_index_candidates_come_from_lookup(self, seed, depth):
        points = clustered_points(seed, 120, 5)
        index = PcaTreeIndex(depth=depth, seed=seed).build(points)
        queries = points[:5]
        ranked = np.argsort(-index.bin_scores(queries), axis=1, kind="stable")
        candidates = index.candidate_sets(queries, 1)
        for i in range(5):
            expected = set(index.points_in_bin(int(ranked[i, 0])).tolist())
            assert set(candidates[i].tolist()) == expected

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_full_probe_query_equals_bruteforce(self, seed):
        points = clustered_points(seed, 100, 4)
        index = KMeansIndex(4, seed=seed).build(points)
        queries = clustered_points(seed + 1, 8, 4)
        approx, _ = index.batch_query(queries, k=5, n_probes=4)
        dists = np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=2)
        exact = np.argsort(dists, axis=1)[:, :5]
        exact_dist = np.take_along_axis(dists, exact, axis=1)
        approx_dist = np.take_along_axis(dists, approx, axis=1)
        np.testing.assert_allclose(approx_dist, exact_dist, atol=1e-9)


class TestRerankProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=10))
    def test_rerank_returns_subset_of_candidates_sorted(self, seed, k):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(50, 3))
        queries = rng.normal(size=(3, 3))
        candidate_lists = [rng.choice(50, size=rng.integers(1, 30), replace=False) for _ in range(3)]
        indices, distances = rerank_candidates(base, queries, candidate_lists, k)
        for i in range(3):
            valid = indices[i] >= 0
            assert set(indices[i][valid]).issubset(set(candidate_lists[i].tolist()))
            d = distances[i][valid]
            assert (np.diff(d) >= -1e-9).all()


class TestMetricProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_knn_accuracy_in_unit_interval(self, seed, k):
        rng = np.random.default_rng(seed)
        retrieved = rng.integers(0, 50, size=(6, k))
        truth = rng.integers(0, 50, size=(6, k))
        value = knn_accuracy(retrieved, truth, k)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=512))
    def test_probe_schedule_always_valid(self, n_bins):
        schedule = probe_schedule(n_bins)
        assert schedule[0] >= 1
        assert schedule[-1] == n_bins
        assert all(b <= n_bins for b in schedule)
        assert schedule == sorted(set(schedule))


class TestLossProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_total_is_quality_plus_eta_balance(self, seed, n_bins, eta):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(24, n_bins)), requires_grad=True)
        neighbor_bins = rng.integers(0, n_bins, size=(24, 5))
        _, breakdown = usp_loss(logits, neighbor_bins, n_bins, eta=eta)
        assert breakdown.total == pytest.approx(
            breakdown.quality + eta * breakdown.balance, rel=1e-6, abs=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=8))
    def test_balance_term_bounded(self, seed, n_bins):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(32, n_bins)), requires_grad=True)
        neighbor_bins = rng.integers(0, n_bins, size=(32, 4))
        _, breakdown = usp_loss(logits, neighbor_bins, n_bins, eta=1.0)
        assert -1.0 - 1e-9 <= breakdown.balance <= 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_quality_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(16, 4)), requires_grad=True)
        neighbor_bins = rng.integers(0, 4, size=(16, 6))
        _, breakdown = usp_loss(logits, neighbor_bins, 4, eta=0.0)
        assert breakdown.quality >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=6))
    def test_neighbor_distribution_matches_counts(self, seed, n_bins):
        rng = np.random.default_rng(seed)
        bins = rng.integers(0, n_bins, size=(7, 9))
        dist = neighbor_bin_distribution(bins, n_bins)
        for i in range(7):
            counts = np.bincount(bins[i], minlength=n_bins)
            np.testing.assert_allclose(dist[i], counts / 9.0)
