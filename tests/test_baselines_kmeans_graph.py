"""Tests for the K-means baseline and the balanced graph partitioner."""

import numpy as np
import pytest

from repro.baselines import (
    GraphPartitionResult,
    KMeans,
    KMeansIndex,
    kmeans_plus_plus_init,
    partition_knn_graph,
)
from repro.core import build_knn_matrix
from repro.eval import knn_accuracy
from repro.utils.exceptions import NotFittedError, ValidationError


class TestKMeans:
    def test_labels_are_each_points_nearest_centroid(self, blob_points):
        model = KMeans(3, seed=0).fit(blob_points)
        nearest = np.linalg.norm(blob_points[:, None, :] - model.centroids[None], axis=2).argmin(axis=1)
        np.testing.assert_array_equal(model.labels, nearest)

    def test_recovers_separated_blobs(self, blob_points, blob_labels):
        model = KMeans(3, n_init=3, seed=0).fit(blob_points)
        # Each true cluster should map to exactly one predicted cluster.
        for cluster in range(3):
            predicted = model.labels[blob_labels == cluster]
            assert len(np.unique(predicted)) == 1

    def test_inertia_decreases_with_more_clusters(self, blob_points):
        inertia_2 = KMeans(2, seed=0).fit(blob_points).result.inertia
        inertia_6 = KMeans(6, seed=0).fit(blob_points).result.inertia
        assert inertia_6 < inertia_2

    def test_handles_duplicate_points(self):
        points = np.zeros((20, 3))
        model = KMeans(2, seed=0).fit(points)
        assert model.labels.shape == (20,)

    def test_n_clusters_exceeds_points(self):
        with pytest.raises(ValidationError):
            KMeans(10, seed=0).fit(np.zeros((3, 2)))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            _ = KMeans(2).centroids

    def test_plus_plus_init_spreads_centroids(self, blob_points):
        rng = np.random.default_rng(0)
        centroids = kmeans_plus_plus_init(blob_points, 3, rng)
        pairwise = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=2)
        assert pairwise[np.triu_indices(3, 1)].min() > 2.0

    def test_empty_cluster_repair(self):
        # Force an empty cluster: 3 clusters but only 2 distinct locations.
        points = np.vstack([np.zeros((10, 2)), np.ones((10, 2)) * 10])
        model = KMeans(3, seed=0).fit(points)
        assert model.result.inertia >= 0
        assert len(np.unique(model.labels)) <= 3


class TestKMeansIndex:
    def test_build_keeps_the_centroids_and_no_point_labels(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        assert index._kmeans.result is None  # the layout gives every point's cell
        assert index.centroids.shape == (4, tiny_dataset.dim)
        np.testing.assert_array_equal(index.bin_scores(index.centroids).argmax(axis=1), np.arange(4))

    def test_build_and_query(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        assert index.bin_sizes().sum() == tiny_dataset.n_points
        indices, _ = index.batch_query(tiny_dataset.queries, k=10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_bin_scores_prefer_nearest_centroid(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        scores = index.bin_scores(tiny_dataset.queries)
        assert scores.shape == (tiny_dataset.n_queries, 4)
        # Scores are negative squared distances: argmax == nearest centroid.
        nearest = np.linalg.norm(
            tiny_dataset.queries[:, None, :] - index.centroids[None], axis=2
        ).argmin(axis=1)
        np.testing.assert_array_equal(scores.argmax(axis=1), nearest)

    def test_num_parameters_is_centroid_table(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        assert index.num_parameters() == 4 * tiny_dataset.dim

    def test_assignments_match_kmeans_labels(self, tiny_dataset):
        index = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        model = KMeans(4, max_iterations=50, seed=0).fit(tiny_dataset.base)
        np.testing.assert_array_equal(index.assignments, model.labels)
        np.testing.assert_array_equal(index.centroids, model.centroids)


class TestGraphPartition:
    @pytest.fixture(scope="class")
    def knn_indices(self, tiny_dataset):
        return build_knn_matrix(tiny_dataset.base, 8).indices

    def test_balanced_partition(self, knn_indices):
        result = partition_knn_graph(knn_indices, 4, imbalance=0.05, seed=0)
        assert isinstance(result, GraphPartitionResult)
        sizes = np.bincount(result.labels, minlength=4)
        capacity = int(np.ceil(1.05 * len(knn_indices) / 4))
        assert sizes.max() <= capacity
        assert result.imbalance <= 0.06

    def test_every_vertex_assigned(self, knn_indices):
        result = partition_knn_graph(knn_indices, 4, seed=0)
        assert result.labels.min() >= 0
        assert result.labels.max() < 4
        assert result.labels.shape == (len(knn_indices),)

    def test_cut_better_than_random(self, knn_indices):
        result = partition_knn_graph(knn_indices, 4, seed=0)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 4, size=len(knn_indices))
        sources = np.repeat(np.arange(len(knn_indices)), knn_indices.shape[1])
        random_cut = int((random_labels[sources] != random_labels[knn_indices.reshape(-1)]).sum())
        assert result.edge_cut < random_cut

    def test_more_parts_than_vertices_rejected(self):
        with pytest.raises(ValidationError):
            partition_knn_graph(np.zeros((3, 1), dtype=int), 10)

    def test_deterministic_given_seed(self, knn_indices):
        a = partition_knn_graph(knn_indices, 4, seed=5)
        b = partition_knn_graph(knn_indices, 4, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
