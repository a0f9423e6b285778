"""Tests for the ANN back-ends: brute force, PQ, AVQ, IVF, HNSW, ScaNN."""

import json

import numpy as np
import pytest

from repro.ann import (
    AnisotropicQuantizer,
    BruteForceIndex,
    HnswIndex,
    IVFFlatIndex,
    IVFPQIndex,
    ProductQuantizer,
    ScannSearcher,
    kmeans_scann,
    usp_scann,
    vanilla_scann,
)
from repro.api import load_index
from repro.baselines import KMeansIndex
from repro.datasets import sift_like
from repro.eval import knn_accuracy
from repro.utils.exceptions import NotFittedError, ValidationError


class TestBruteForce:
    def test_exact_results(self, tiny_dataset):
        index = BruteForceIndex().build(tiny_dataset.base)
        indices, distances = index.batch_query(tiny_dataset.queries, 10)
        np.testing.assert_array_equal(indices, tiny_dataset.ground_truth[:, :10])
        assert (np.diff(distances, axis=1) >= -1e-12).all()

    def test_single_query(self, tiny_dataset):
        index = BruteForceIndex().build(tiny_dataset.base)
        indices, _ = index.query(tiny_dataset.queries[0], 5)
        np.testing.assert_array_equal(indices, tiny_dataset.ground_truth[0, :5])

    def test_not_built(self):
        with pytest.raises(NotFittedError):
            BruteForceIndex().query(np.zeros(4), 3)

    def test_k_beyond_the_dataset_pads(self):
        index = BruteForceIndex().build(np.eye(4))
        indices, distances = index.batch_query(np.eye(4), 100)
        assert indices.shape == distances.shape == (4, 100)
        assert (np.sort(indices[:, :4], axis=1) == np.arange(4)).all()
        assert (indices[:, 4:] == -1).all() and np.isinf(distances[:, 4:]).all()


def decode(pq, codes):
    """The rows ``codes`` stand for: each subspace's selected codeword, side by side."""
    return np.concatenate([pq.codebooks[s][codes[:, s]] for s in range(pq.n_subspaces)], axis=1)


def reconstruction_error(pq, points):
    """Mean squared error of ``points`` against their decoded codes."""
    return float(np.mean(np.sum((points - decode(pq, pq.encode(points))) ** 2, axis=1)))


def adc_distances(pq, query, codes):
    """Approximate squared distances read from the query's ADC table."""
    table = pq.distance_tables(query[None, :])[0]
    return table[np.arange(pq.n_subspaces)[None, :], codes].sum(axis=1)


class TestProductQuantizer:
    def test_reconstruction_better_with_more_codewords(self, tiny_dataset):
        small = ProductQuantizer(4, 4, seed=0).fit(tiny_dataset.base)
        large = ProductQuantizer(4, 64, seed=0).fit(tiny_dataset.base)
        assert reconstruction_error(large, tiny_dataset.base) < reconstruction_error(small, tiny_dataset.base)

    def test_codes_shape_and_range(self, tiny_dataset):
        pq = ProductQuantizer(4, 16, seed=0).fit(tiny_dataset.base)
        codes = pq.encode(tiny_dataset.base)
        assert codes.shape == (tiny_dataset.n_points, 4)
        assert codes.min() >= 0 and codes.max() < 16

    def test_adc_matches_decoded_distance(self, tiny_dataset):
        pq = ProductQuantizer(4, 16, seed=0).fit(tiny_dataset.base)
        codes = pq.encode(tiny_dataset.base[:50])
        query = tiny_dataset.queries[0]
        adc = adc_distances(pq, query, codes)
        decoded = decode(pq, codes)
        exact = ((decoded - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, exact, rtol=1e-9)

    def test_dimension_not_divisible_rejected(self):
        with pytest.raises(ValidationError):
            ProductQuantizer(5, 8).fit(np.zeros((10, 16)))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            ProductQuantizer(4, 8).encode(np.zeros((2, 16)))


class TestAnisotropicQuantizer:
    def test_eta_one_close_to_plain_pq_error(self, tiny_dataset):
        aq = AnisotropicQuantizer(4, 16, eta=1.0, iterations=3, seed=0).fit(tiny_dataset.base)
        pq = ProductQuantizer(4, 16, seed=0).fit(tiny_dataset.base)
        aq_err = reconstruction_error(aq, tiny_dataset.base)
        pq_err = reconstruction_error(pq, tiny_dataset.base)
        assert aq_err <= pq_err * 1.5

    def test_invalid_eta(self):
        with pytest.raises(ValidationError):
            AnisotropicQuantizer(4, 8, eta=0.5)

    def test_adc_distances_positive(self, tiny_dataset):
        aq = AnisotropicQuantizer(4, 8, iterations=2, seed=0).fit(tiny_dataset.base)
        codes = aq.encode(tiny_dataset.base[:20])
        dists = adc_distances(aq, tiny_dataset.queries[0], codes)
        assert (dists >= 0).all()


class TestIVF:
    def test_ivf_flat_high_recall_with_enough_probes(self, tiny_dataset):
        index = IVFFlatIndex(8, seed=0).build(tiny_dataset.base)
        indices, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=8)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_ivf_flat_recall_grows_with_probes(self, tiny_dataset):
        index = IVFFlatIndex(8, seed=0).build(tiny_dataset.base)
        one, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=1)
        four, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(four, tiny_dataset.ground_truth, 10) >= knn_accuracy(
            one, tiny_dataset.ground_truth, 10
        )

    def test_list_sizes_cover_dataset(self, tiny_dataset):
        index = IVFFlatIndex(8, seed=0).build(tiny_dataset.base)
        assert index.bin_sizes().sum() == tiny_dataset.n_points
        assert index.n_bins == 8

    def test_ivfpq_reasonable_recall(self, tiny_dataset):
        index = IVFPQIndex(8, n_subspaces=4, n_codewords=32, rerank_factor=8, seed=0).build(
            tiny_dataset.base
        )
        indices, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=8)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.8

    @pytest.mark.parametrize("seed", [7, 23])
    def test_ivf_flat_is_kmeans_under_ivf_names(self, seed):
        data = sift_like(n_points=1500, n_queries=40, dim=16, n_clusters=6, seed=seed)
        ivf = IVFFlatIndex(12, kmeans_iterations=10, seed=seed).build(data.base)
        kmeans = KMeansIndex(n_bins=12, max_iterations=10, seed=seed).build(data.base)
        np.testing.assert_array_equal(ivf.centroids, kmeans.centroids)
        np.testing.assert_array_equal(ivf.assignments, kmeans.assignments)
        for n_probes in (1, 2, 4, 12):
            ids, distances = ivf.batch_query(data.queries, 10, n_probes=n_probes)
            ref_ids, ref_distances = kmeans.batch_query(data.queries, 10, n_probes=n_probes)
            np.testing.assert_array_equal(ids, ref_ids)
            if n_probes == 1:
                np.testing.assert_array_equal(distances, ref_distances)
            else:
                np.testing.assert_allclose(distances, ref_distances, rtol=1e-12, atol=0)

    def test_ivf_flat_keeps_its_defaults(self, tiny_dataset):
        # four probes unless told otherwise, and never more cells than points
        index = IVFFlatIndex(8, seed=0).build(tiny_dataset.base)
        four = index.batch_query(tiny_dataset.queries, 10, n_probes=4)
        np.testing.assert_array_equal(index.batch_query(tiny_dataset.queries, 10)[0], four[0])
        np.testing.assert_array_equal(index.query(tiny_dataset.queries[0], 10)[0], four[0][0])
        small = IVFFlatIndex(64, seed=0).build(tiny_dataset.base[:10])
        assert (small.n_lists, small.n_bins) == (64, 10)

    @pytest.mark.parametrize(
        "index_cls, params, state_keys, array_keys",
        [
            (
                IVFFlatIndex,
                {},
                ["_layout", "build_seconds", "centroids", "metric"],
                ["_layout.bounds", "_layout.ids", "_layout.rows", "centroids"],
            ),
            (
                IVFPQIndex,
                dict(n_subspaces=4, n_codewords=16),
                ["_base", "_dim", "_n_points", "_pq", "build_seconds", "codes", "metric", "n_subspaces", "partitioner"],
                ["_pq.codebooks", "codes"],
            ),
        ],
        ids=["ivf-flat", "ivf-pq"],
    )
    def test_saved_format_is_the_inverted_file_one(
        self, tiny_dataset, tmp_path, index_cls, params, state_keys, array_keys
    ):
        """The cells are the ivf-flat's saved layout and K-means fit; ivf-pq saves one as its partitioner."""
        index = index_cls(8, seed=0, **params).build(tiny_dataset.base)
        index.save(tmp_path / "ivf")
        manifest = json.loads((tmp_path / "ivf" / "index.json").read_text())
        assert manifest["class"] == f"repro.ann.ivf.{index_cls.__name__}"
        assert manifest["arguments"]["n_lists"] == 8 and manifest["arguments"]["seed"] == 0
        assert sorted(manifest["state"]) == state_keys
        with np.load(tmp_path / "ivf" / "arrays.npz") as arrays:
            assert sorted(arrays.files) == array_keys
        cells = tmp_path / "ivf" / ("partitioner" if index_cls is IVFPQIndex else "")
        with np.load(cells / "arrays.npz") as arrays:
            np.testing.assert_array_equal(arrays["centroids"], index.centroids)
            np.testing.assert_array_equal(arrays["_layout.rows"], tiny_dataset.base[arrays["_layout.ids"]])
        assert not (tmp_path / "ivf" / "vectors").exists()
        loaded = load_index(tmp_path / "ivf")
        for n_probes in (1, 3):
            expected = index.batch_query(tiny_dataset.queries, 10, n_probes=n_probes)
            got = loaded.batch_query(tiny_dataset.queries, 10, n_probes=n_probes)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    def test_query_dim_mismatch(self, tiny_dataset):
        index = IVFFlatIndex(4, seed=0).build(tiny_dataset.base)
        with pytest.raises(ValidationError):
            index.query(np.zeros(3), 5)

    def test_not_built(self):
        with pytest.raises(NotFittedError):
            IVFFlatIndex(4).query(np.zeros(4), 5)


class TestHnsw:
    @pytest.fixture(scope="class")
    def hnsw_index(self, tiny_dataset):
        return HnswIndex(8, ef_construction=40, ef_search=40, seed=0).build(tiny_dataset.base)

    def test_high_recall(self, hnsw_index, tiny_dataset):
        indices, _ = hnsw_index.batch_query(tiny_dataset.queries, 10)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.9

    def test_recall_improves_with_ef(self, hnsw_index, tiny_dataset):
        low, _ = hnsw_index.batch_query(tiny_dataset.queries, 10, ef=10)
        high, _ = hnsw_index.batch_query(tiny_dataset.queries, 10, ef=80)
        assert knn_accuracy(high, tiny_dataset.ground_truth, 10) >= knn_accuracy(
            low, tiny_dataset.ground_truth, 10
        )

    def test_distances_sorted_and_consistent(self, hnsw_index, tiny_dataset):
        indices, distances = hnsw_index.query(tiny_dataset.queries[0], 5)
        valid = indices >= 0
        recomputed = np.linalg.norm(
            tiny_dataset.base[indices[valid]] - tiny_dataset.queries[0], axis=1
        )
        np.testing.assert_allclose(distances[valid], recomputed, atol=1e-9)
        assert (np.diff(distances[valid]) >= -1e-9).all()

    def test_every_point_reachable(self, hnsw_index, tiny_dataset):
        """Querying with a base point should find that point itself first."""
        for i in range(0, tiny_dataset.n_points, 97):
            indices, _ = hnsw_index.query(tiny_dataset.base[i], 1, ef=40)
            assert indices[0] == i

    def test_not_built(self):
        with pytest.raises(NotFittedError):
            HnswIndex().query(np.zeros(4), 3)


class TestScann:
    def test_vanilla_scann_near_exact(self, tiny_dataset):
        searcher = vanilla_scann(n_subspaces=4, n_codewords=32, rerank_factor=20, seed=0).build(
            tiny_dataset.base
        )
        indices, _ = searcher.batch_query(tiny_dataset.queries, 10)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.9

    def test_kmeans_scann_pipeline(self, tiny_dataset):
        searcher = kmeans_scann(4, n_subspaces=4, n_codewords=32, rerank_factor=20, seed=0).build(
            tiny_dataset.base
        )
        indices, _ = searcher.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.9

    def test_usp_scann_pipeline(self, tiny_dataset, fast_usp_config):
        searcher = usp_scann(
            fast_usp_config.with_updates(epochs=3),
            n_subspaces=4,
            n_codewords=32,
            rerank_factor=20,
            seed=0,
        ).build(tiny_dataset.base)
        indices, _ = searcher.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.9

    def test_prebuilt_partitioner_reused(self, tiny_dataset):
        partitioner = KMeansIndex(4, seed=0).build(tiny_dataset.base)
        searcher = ScannSearcher(partitioner, n_subspaces=4, n_codewords=16, seed=0).build(
            tiny_dataset.base
        )
        assert searcher.partitioner is partitioner

    def test_odd_dimension_subspace_fallback(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(200, 15))  # 15 is not divisible by 8
        searcher = vanilla_scann(n_subspaces=8, n_codewords=8, seed=0).build(base)
        indices, _ = searcher.batch_query(base[:3], 5)
        assert (indices[:, 0] == np.arange(3)).all()

    def test_not_built(self):
        with pytest.raises(NotFittedError):
            vanilla_scann().batch_query(np.zeros((1, 8)), 5)
