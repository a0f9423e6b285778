"""Tests for repro.utils.distances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.distances import (
    cosine_distance,
    euclidean,
    get_metric,
    iter_blocks,
    pairwise_topk,
    squared_euclidean,
    unit_rows,
)


class TestSquaredEuclidean:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5))
        y = rng.normal(size=(9, 5))
        expected = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(squared_euclidean(x, y), expected, atol=1e-9)

    def test_zero_on_identical_rows(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert squared_euclidean(x, x)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_never_negative_despite_cancellation(self):
        # Large magnitudes provoke floating point cancellation.
        x = np.full((3, 4), 1e8)
        assert (squared_euclidean(x, x) >= 0).all()

    def test_handles_1d_input(self):
        d = squared_euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(25.0)


class TestEuclidean:
    def test_is_sqrt_of_squared(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(6, 3))
        np.testing.assert_allclose(euclidean(x, y) ** 2, squared_euclidean(x, y), atol=1e-9)

    def test_triangle_inequality_on_sample(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(10, 4))
        dist = euclidean(points, points)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


class TestCosineAndInnerProduct:
    def test_cosine_zero_for_parallel_vectors(self):
        x = np.array([[1.0, 1.0]])
        y = np.array([[2.0, 2.0]])
        assert cosine_distance(x, y)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_two_for_antiparallel(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[-1.0, 0.0]])
        assert cosine_distance(x, y)[0, 0] == pytest.approx(2.0)

    def test_cosine_handles_zero_vector(self):
        x = np.zeros((1, 3))
        y = np.array([[1.0, 0.0, 0.0]])
        assert np.isfinite(cosine_distance(x, y)).all()

class TestUnitRows:
    def test_rows_keep_their_direction_at_unit_length(self):
        x = np.random.default_rng(0).normal(size=(6, 4)) * np.arange(1, 7)[:, None]
        units = unit_rows(x)
        np.testing.assert_allclose(np.linalg.norm(units, axis=1), 1.0)
        np.testing.assert_allclose(units * np.linalg.norm(x, axis=1, keepdims=True), x)

    def test_zero_rows_stay_zero_without_a_warning(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            units = unit_rows(x)
        np.testing.assert_array_equal(units, [[0.0, 0.0], [0.6, 0.8]])

    def test_cosine_distance_is_one_less_the_dot_of_unit_rows(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        np.testing.assert_array_equal(cosine_distance(x, y), 1.0 - unit_rows(x) @ unit_rows(y).T)


class TestGetMetric:
    @pytest.mark.parametrize("name", ["euclidean", "sqeuclidean", "cosine"])
    def test_known_metrics(self, name):
        assert callable(get_metric(name))

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("manhattan")


class TestIterBlocks:
    def test_covers_range_without_overlap(self):
        blocks = list(iter_blocks(10, 3))
        assert blocks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_block_when_larger_than_n(self):
        assert list(iter_blocks(5, 100)) == [(0, 5)]

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            list(iter_blocks(5, 0))


class TestPairwiseTopk:
    def test_matches_bruteforce_argsort(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 8))
        queries = rng.normal(size=(12, 8))
        idx, dist = pairwise_topk(queries, points, 5)
        full = euclidean(queries, points)
        expected = np.argsort(full, axis=1)[:, :5]
        np.testing.assert_array_equal(idx, expected)
        np.testing.assert_allclose(dist, np.take_along_axis(full, expected, axis=1))

    def test_exclude_self_removes_diagonal(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(30, 4))
        idx, _ = pairwise_topk(points, points, 3, exclude_self=True)
        for i in range(30):
            assert i not in idx[i]

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(40, 6))
        _, dist = pairwise_topk(points[:10], points, 7)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_k_clipped_to_dataset_size(self):
        points = np.eye(4)
        idx, _ = pairwise_topk(points, points, 100)
        assert idx.shape == (4, 4)

    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(64, 5))
        queries = rng.normal(size=(20, 5))
        idx_a, _ = pairwise_topk(queries, points, 4, block_size=7)
        idx_b, _ = pairwise_topk(queries, points, 4, block_size=1000)
        np.testing.assert_array_equal(idx_a, idx_b)

    def test_ties_keep_the_smallest_ids(self):
        # 30 copies of one row tie at the k-th distance: the answer is the
        # first k columns of a stable argsort, so the smallest ids win.
        rng = np.random.default_rng(8)
        for trial in range(50):
            points = rng.normal(size=(60, 4))
            copies = rng.choice(60, size=30, replace=False)
            points[copies] = points[copies[0]]
            queries = np.vstack([points[copies[0]], rng.normal(size=(3, 4))])
            for k in (1, 5, 29, 31):
                idx, dist = pairwise_topk(queries, points, k)
                full = euclidean(queries, points)
                expected = np.argsort(full, axis=1, kind="stable")[:, :k]
                np.testing.assert_array_equal(idx, expected)
                np.testing.assert_array_equal(dist, np.take_along_axis(full, expected, axis=1))

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, (12, 3), elements=st.floats(-100, 100)),
        st.integers(min_value=1, max_value=5),
    )
    def test_property_first_neighbor_is_argmin(self, points, k):
        idx, dist = pairwise_topk(points[:4], points, k)
        full = euclidean(points[:4], points)
        # Ties may be broken differently, so compare distances not indices.
        np.testing.assert_allclose(dist[:, 0], full.min(axis=1), atol=1e-9)
