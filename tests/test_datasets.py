"""Tests for repro.datasets (synthetic generators, ANN datasets, IO)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    AnnDataset,
    available_datasets,
    compute_ground_truth,
    glove_like,
    load_dataset,
    make_blobs,
    make_circles,
    make_classification,
    make_gaussian_mixture,
    make_moons,
    mnist_like,
    read_fvecs,
    read_ivecs,
    sift_like,
    write_fvecs,
    write_ivecs,
)
from repro.utils.exceptions import DatasetError


class TestSyntheticGenerators:
    def test_blobs_shapes_and_labels(self):
        data = make_blobs(200, n_clusters=4, dim=3, seed=0)
        assert data.points.shape == (200, 3)
        assert data.labels.shape == (200,)
        assert data.n_clusters <= 4

    def test_moons_two_balanced_classes(self):
        data = make_moons(301, seed=0)
        counts = np.bincount(data.labels)
        assert counts.tolist() == [150, 151]
        assert data.dim == 2

    def test_moons_no_noise_on_unit_curves(self):
        data = make_moons(100, noise=0.0, seed=0)
        outer = data.points[data.labels == 0]
        radii = np.linalg.norm(outer, axis=1)
        np.testing.assert_allclose(radii, np.ones_like(radii), atol=1e-9)

    def test_circles_radius_separation(self):
        data = make_circles(200, noise=0.0, factor=0.4, seed=0)
        radii = np.linalg.norm(data.points, axis=1)
        assert radii[data.labels == 0].min() > radii[data.labels == 1].max()

    def test_circles_invalid_factor(self):
        with pytest.raises(DatasetError):
            make_circles(100, factor=1.5)

    def test_classification_cluster_count(self):
        data = make_classification(300, n_clusters=4, dim=2, seed=0)
        assert set(np.unique(data.labels)) <= set(range(4))

    def test_gaussian_mixture_weights_respected(self):
        data = make_gaussian_mixture(
            2000, n_components=2, dim=2, weights=[0.9, 0.1], seed=0
        )
        counts = np.bincount(data.labels, minlength=2)
        assert counts[0] > counts[1] * 4

    def test_gaussian_mixture_invalid_weights(self):
        with pytest.raises(DatasetError):
            make_gaussian_mixture(100, n_components=2, dim=2, weights=[1.0])

    def test_reproducibility(self):
        a = make_moons(50, seed=9).points
        b = make_moons(50, seed=9).points
        np.testing.assert_array_equal(a, b)

    def test_labeled_dataset_length_mismatch(self):
        from repro.datasets.synthetic import LabeledDataset

        with pytest.raises(DatasetError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2))


class TestGroundTruth:
    def test_matches_manual_argsort(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(60, 4))
        queries = rng.normal(size=(5, 4))
        gt = compute_ground_truth(base, queries, k=7)
        dists = np.linalg.norm(queries[:, None, :] - base[None, :, :], axis=2)
        np.testing.assert_array_equal(gt, np.argsort(dists, axis=1)[:, :7])

    def test_k_clipped(self):
        base = np.eye(3)
        gt = compute_ground_truth(base, base, k=10)
        assert gt.shape == (3, 3)


class TestAnnDatasets:
    def test_sift_like_properties(self):
        data = sift_like(n_points=500, n_queries=20, dim=32, n_clusters=8, seed=0)
        assert data.base.shape == (500, 32)
        assert data.queries.shape == (20, 32)
        assert data.ground_truth.shape[0] == 20
        assert data.base.min() >= 0.0  # descriptor-style non-negative values
        assert data.metric == "euclidean"

    def test_mnist_like_value_range(self):
        data = mnist_like(n_points=300, n_queries=10, dim=64, seed=0)
        assert data.base.min() >= 0.0
        assert data.base.max() <= 255.0
        assert data.dim == 64

    def test_glove_like_unit_norm(self):
        data = glove_like(n_points=200, n_queries=10, dim=25, n_clusters=8, seed=0)
        norms = np.linalg.norm(data.base, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)

    def test_ground_truth_is_exact(self):
        data = sift_like(n_points=400, n_queries=15, dim=16, n_clusters=4, seed=1)
        dists = np.linalg.norm(data.queries[:, None, :] - data.base[None, :, :], axis=2)
        np.testing.assert_array_equal(data.ground_truth[:, 0], dists.argmin(axis=1))

    def test_registry(self):
        assert "sift-like" in available_datasets()
        data = load_dataset("sift-like", n_points=100, n_queries=5, dim=8, n_clusters=4)
        assert isinstance(data, AnnDataset)

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            AnnDataset("bad", np.zeros((5, 3)), np.zeros((2, 4)), np.zeros((2, 1)))

    def test_gt_rows_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            AnnDataset("bad", np.zeros((5, 3)), np.zeros((2, 3)), np.zeros((3, 1)))


class TestIO:
    def test_fvecs_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(10, 6)).astype(np.float32)
        path = tmp_path / "vectors.fvecs"
        write_fvecs(path, vectors)
        loaded = read_fvecs(path)
        np.testing.assert_allclose(loaded, vectors, atol=1e-6)

    def test_ivecs_roundtrip(self, tmp_path):
        vectors = np.arange(12, dtype=np.int32).reshape(3, 4)
        path = tmp_path / "gt.ivecs"
        write_ivecs(path, vectors)
        np.testing.assert_array_equal(read_ivecs(path), vectors)

    def test_fvecs_max_rows(self, tmp_path):
        vectors = np.zeros((10, 4), dtype=np.float32)
        path = tmp_path / "v.fvecs"
        write_fvecs(path, vectors)
        assert read_fvecs(path, max_rows=3).shape == (3, 4)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_fvecs(tmp_path / "missing.fvecs")

class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=20, max_value=120), st.integers(min_value=2, max_value=5))
    def test_blobs_label_range(self, n_points, n_clusters):
        data = make_blobs(n_points, n_clusters=n_clusters, seed=0)
        assert data.points.shape[0] == n_points
        assert data.labels.min() >= 0
        assert data.labels.max() < n_clusters

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=50, max_value=150))
    def test_ground_truth_first_column_is_nearest(self, n_points):
        data = sift_like(n_points=n_points, n_queries=5, dim=8, n_clusters=4, seed=2)
        dists = np.linalg.norm(data.queries[:, None, :] - data.base[None, :, :], axis=2)
        chosen = dists[np.arange(5), data.ground_truth[:, 0]]
        np.testing.assert_allclose(chosen, dists.min(axis=1), atol=1e-9)
