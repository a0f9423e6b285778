"""Integration tests: the paper's qualitative claims at test scale.

These exercise the full pipelines end to end (dataset -> offline phase ->
online phase -> evaluation) and assert the *shape* of the paper's results:
USP produces balanced partitions whose accuracy-vs-candidate-size frontier
is at least as good as K-means and data-oblivious LSH, ensembling does not
hurt, and USP+ScaNN beats vanilla ScaNN at matched probing.
"""

import numpy as np
import pytest

from repro.ann import usp_scann, vanilla_scann
from repro.baselines import CrossPolytopeLshIndex, KMeansIndex, NeuralLshIndex, NeuralLshConfig
from repro.core import (
    EnsembleConfig,
    UspConfig,
    UspEnsembleIndex,
    UspIndex,
    build_knn_matrix,
)
from repro.datasets import sift_like
from repro.eval import (
    accuracy_candidate_curve,
    candidate_stats,
    knn_accuracy,
    run_figure5,
)


@pytest.fixture(scope="module")
def medium_dataset():
    """Slightly larger dataset with overlapping clusters (harder than tiny)."""
    return sift_like(n_points=1500, n_queries=80, dim=32, n_clusters=10, gt_k=20, seed=5)


@pytest.fixture(scope="module")
def medium_knn(medium_dataset):
    return build_knn_matrix(medium_dataset.base, 10)


@pytest.fixture(scope="module")
def medium_usp(medium_dataset, medium_knn):
    config = UspConfig(
        n_bins=8, k_prime=10, eta=20.0, hidden_dim=64, epochs=15,
        max_batch_size=256, learning_rate=2e-3, seed=0,
    )
    return UspIndex(config).build(medium_dataset.base, knn=medium_knn)


class TestOfflinePhaseInvariants:
    def test_partition_is_reasonably_balanced(self, medium_usp, medium_dataset):
        sizes = medium_usp.bin_sizes()
        expected = medium_dataset.n_points / medium_usp.n_bins
        assert sizes.max() < 3.5 * expected
        assert (sizes > 0).sum() >= medium_usp.n_bins - 1

    def test_training_loss_decreased(self, medium_usp):
        history = medium_usp.history
        assert np.mean(history.total[-5:]) < np.mean(history.total[:5])

    def test_neighbors_tend_to_share_bins(self, medium_usp, medium_knn):
        """The quality objective: most k'-NN edges should stay within a bin."""
        assignments = medium_usp.assignments
        neighbor_bins = assignments[medium_knn.indices]
        same_bin_fraction = (neighbor_bins == assignments[:, None]).mean()
        assert same_bin_fraction > 1.0 / medium_usp.n_bins * 2


class TestFrontierOrdering:
    def test_usp_candidate_recall_beats_lsh_at_matched_size(self, medium_dataset, medium_usp):
        lsh = CrossPolytopeLshIndex(8, seed=0).build(medium_dataset.base)
        usp_curve = accuracy_candidate_curve(medium_usp, medium_dataset, k=10, probes=[1, 2, 4, 8])
        lsh_curve = accuracy_candidate_curve(lsh, medium_dataset, k=10, probes=[1, 2, 4, 8])
        # Compare at an 85% accuracy target: USP should need no more candidates.
        usp_size = usp_curve.candidate_size_at_accuracy(0.85)
        lsh_size = lsh_curve.candidate_size_at_accuracy(0.85)
        assert usp_size <= lsh_size * 1.1

    def test_usp_competitive_with_kmeans(self, medium_dataset, medium_usp):
        kmeans = KMeansIndex(8, seed=0).build(medium_dataset.base)
        usp_curve = accuracy_candidate_curve(medium_usp, medium_dataset, k=10, probes=[1, 2, 4, 8])
        km_curve = accuracy_candidate_curve(kmeans, medium_dataset, k=10, probes=[1, 2, 4, 8])
        usp_size = usp_curve.candidate_size_at_accuracy(0.9)
        km_size = km_curve.candidate_size_at_accuracy(0.9)
        assert usp_size <= km_size * 1.25

    def test_accuracy_increases_with_probes(self, medium_dataset, medium_usp):
        curve = accuracy_candidate_curve(medium_usp, medium_dataset, k=10, probes=[1, 2, 4, 8])
        accuracies = curve.accuracies()
        assert (np.diff(accuracies) >= -1e-9).all()
        assert accuracies[-1] == pytest.approx(1.0)


class TestEnsembleClaim:
    def test_ensemble_candidate_recall_not_worse(self, medium_dataset, medium_knn):
        base_config = UspConfig(
            n_bins=8, k_prime=10, eta=20.0, hidden_dim=32, epochs=8,
            max_batch_size=256, learning_rate=2e-3, seed=0,
        )
        single = UspIndex(base_config).build(medium_dataset.base, knn=medium_knn)
        ensemble = UspEnsembleIndex(EnsembleConfig(n_models=2, base=base_config)).build(
            medium_dataset.base, knn=medium_knn
        )
        queries, truth = medium_dataset.queries, medium_dataset.ground_truth
        _, single_recall = candidate_stats(single, queries, truth, 10, 1)
        _, ensemble_recall = candidate_stats(ensemble, queries, truth, 10, 1)
        assert ensemble_recall >= single_recall - 0.03

    def test_boosting_weights_focus_on_separated_points(self, medium_dataset, medium_knn):
        config = UspConfig(
            n_bins=8, k_prime=10, eta=20.0, hidden_dim=32, epochs=8,
            max_batch_size=256, seed=0,
        )
        ensemble = UspEnsembleIndex(EnsembleConfig(n_models=2, base=config)).build(
            medium_dataset.base, knn=medium_knn
        )
        weights_round2 = ensemble.weight_history[1]
        assignments = ensemble.members[0].assignments
        neighbor_bins = assignments[medium_knn.indices]
        mismatches = (neighbor_bins != assignments[:, None]).sum(axis=1)
        # Weights must equal the mismatch counts (first-round update).
        np.testing.assert_allclose(weights_round2, mismatches)


class TestScannPipelineClaim:
    def test_usp_scann_beats_vanilla_at_limited_budget(self, medium_dataset):
        codec = dict(n_subspaces=4, n_codewords=16, rerank_factor=4, seed=0)
        usp_pipe = usp_scann(
            UspConfig(n_bins=8, epochs=10, hidden_dim=32, eta=20.0, max_batch_size=256, seed=0),
            **codec,
        ).build(medium_dataset.base)
        vanilla = vanilla_scann(**codec).build(medium_dataset.base)
        usp_ids, _ = usp_pipe.batch_query(medium_dataset.queries, 10, n_probes=4)
        van_ids, _ = vanilla.batch_query(medium_dataset.queries, 10)
        usp_acc = knn_accuracy(usp_ids, medium_dataset.ground_truth, 10)
        van_acc = knn_accuracy(van_ids, medium_dataset.ground_truth, 10)
        # The partitioned pipeline scans ~half the codes yet should not lose
        # more than a little accuracy (the paper's speedup claim).
        assert usp_acc >= van_acc - 0.1


class TestFigureRunnersSmoke:
    def test_run_figure5_tiny(self):
        data = sift_like(n_points=500, n_queries=30, dim=16, n_clusters=6, seed=1)
        curves = run_figure5(data, n_bins=4, ensemble_size=1, epochs=4, probes=[1, 2, 4])
        methods = {c.method for c in curves}
        assert {"USP (1 model)", "Neural LSH", "K-means", "Cross-polytope LSH"} <= methods
        for curve in curves:
            assert len(curve.points) == 3

    def test_neural_lsh_runs_on_shared_knn(self, medium_dataset, medium_knn):
        index = NeuralLshIndex(
            NeuralLshConfig(n_bins=8, k_prime=10, hidden_dim=32, epochs=5, seed=0)
        ).build(medium_dataset.base, knn=medium_knn)
        indices, _ = index.batch_query(medium_dataset.queries, 10, n_probes=8)
        assert knn_accuracy(indices, medium_dataset.ground_truth, 10) == pytest.approx(1.0)
