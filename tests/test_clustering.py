"""Tests for DBSCAN, spectral clustering, metrics, and USP clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    DBSCAN,
    NOISE,
    SpectralClustering,
    UspClustering,
    adjusted_rand_index,
    normalized_mutual_information,
)
from repro.core import UspConfig
from repro.datasets import make_blobs, make_circles, make_moons
from repro.utils.exceptions import NotFittedError, ValidationError


class TestMetrics:
    def test_ari_perfect_and_permuted(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert adjusted_rand_index(labels, permuted) == pytest.approx(1.0)

    def test_ari_random_near_zero(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 500)
        predicted = rng.integers(0, 4, 500)
        assert abs(adjusted_rand_index(truth, predicted)) < 0.1

    @pytest.mark.parametrize(
        "truth, predicted, expected",
        [
            (np.random.default_rng(0).integers(0, 4, 500), None, -0.0037083459393837037),
            ([0, 0, 1, 1, 2, 2], [0, 0, 1, 2, 2, 2], 0.4444444444444444),
            ([0] * 5 + [1] * 5, [0] * 3 + [1] * 4 + [2] * 3, 0.25),
            (np.repeat(np.arange(7), 40000), np.random.default_rng(1).integers(0, 9, 280000),
             -2.796904615330296e-06),
            (np.zeros(10, int), np.zeros(10, int), 1.0),
            (np.zeros(10, int), np.arange(10) % 2, 0.0),
        ],
    )
    def test_ari_values_are_pinned(self, truth, predicted, expected):
        # The values the floating-point binomial form gave; the exact pair
        # counts reproduce them bit for bit.
        if predicted is None:
            rng = np.random.default_rng(0)
            truth, predicted = rng.integers(0, 4, 500), rng.integers(0, 4, 500)
        assert adjusted_rand_index(truth, predicted) == expected

    def test_nmi_bounds(self):
        labels = np.array([0, 0, 1, 1])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)
        assert normalized_mutual_information(labels, np.array([0, 1, 0, 1])) < 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=30))
    def test_property_ari_symmetric(self, labels):
        labels = np.array(labels)
        other = np.roll(labels, 1)
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(other, labels)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=30))
    def test_property_self_agreement_is_perfect(self, labels):
        labels = np.array(labels)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)


class TestDbscan:
    def test_recovers_moons(self):
        data = make_moons(300, noise=0.04, seed=0)
        labels = DBSCAN(eps=0.2, min_samples=5).fit_predict(data.points)
        mask = labels >= 0
        assert adjusted_rand_index(data.labels[mask], labels[mask]) > 0.95

    def test_detects_noise(self):
        data = make_blobs(100, n_clusters=2, dim=2, cluster_std=0.3, seed=0)
        points = np.vstack([data.points, [[100.0, 100.0]]])
        labels = DBSCAN(eps=1.0, min_samples=4).fit_predict(points)
        assert labels[-1] == NOISE

    def test_n_clusters_property(self):
        data = make_blobs(150, n_clusters=3, dim=2, cluster_std=0.3, seed=1)
        model = DBSCAN(eps=1.0, min_samples=4).fit(data.points)
        assert model.labels.max() + 1 >= 2

    def test_all_noise_when_eps_tiny(self, blob_points):
        model = DBSCAN(eps=1e-6, min_samples=3).fit(blob_points)
        assert (model.labels == NOISE).all()

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            DBSCAN(eps=0.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            _ = DBSCAN().labels


class TestSpectral:
    def test_recovers_circles(self):
        data = make_circles(240, noise=0.03, factor=0.4, seed=0)
        labels = SpectralClustering(2, affinity="knn", n_neighbors=8, seed=0).fit_predict(
            data.points
        )
        assert adjusted_rand_index(data.labels, labels) > 0.9

    def test_rbf_affinity_on_blobs(self, blob_points, blob_labels):
        labels = SpectralClustering(3, affinity="rbf", seed=0).fit_predict(blob_points)
        assert adjusted_rand_index(blob_labels, labels) > 0.9

    def test_invalid_affinity(self):
        with pytest.raises(ValidationError):
            SpectralClustering(2, affinity="poly")

    def test_too_many_clusters(self):
        with pytest.raises(ValidationError):
            SpectralClustering(10).fit(np.zeros((5, 2)))

    def test_embedding_stored(self, blob_points):
        model = SpectralClustering(3, seed=0).fit(blob_points)
        assert model.embedding_.shape == (len(blob_points), 3)


class TestUspClustering:
    def test_separated_blobs_recovered(self, blob_points, blob_labels):
        config = UspConfig(
            n_bins=3, k_prime=8, epochs=40, hidden_dim=32, eta=10.0,
            learning_rate=5e-3, max_batch_size=180, min_batch_size=60, seed=0,
        )
        labels = UspClustering(3, config=config).fit_predict(blob_points)
        assert adjusted_rand_index(blob_labels, labels) > 0.8

    def test_labels_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            _ = UspClustering(2).labels

    def test_fit_predict_labels_every_point_with_a_bin(self, blob_points):
        config = UspConfig(
            n_bins=3, k_prime=4, epochs=2, hidden_dim=16, max_batch_size=64, min_batch_size=32, seed=0,
        )
        model = UspClustering(3, config=config)
        labels = model.fit_predict(blob_points)
        assert labels.shape == (len(blob_points),)
        assert set(labels.tolist()) <= {0, 1, 2}
        np.testing.assert_array_equal(model.labels, labels)
