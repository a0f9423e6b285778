"""Tests for Neural LSH, Regression LSH, LSH, trees, and the boosted forest."""

import copy

import numpy as np
import pytest

from repro.baselines import (
    BoostedSearchForestIndex,
    CrossPolytopeLshIndex,
    HyperplaneLshIndex,
    KdTreeIndex,
    NeuralLshConfig,
    NeuralLshIndex,
    PcaTreeIndex,
    RandomProjectionTreeIndex,
    RegressionLshIndex,
    TwoMeansTreeIndex,
)
from repro.baselines.neural_lsh import _build_classifier_module
from repro.core import PartitionModel
from repro.datasets import sift_like
from repro.eval import candidate_recall, knn_accuracy
from repro.nn import Adam, EpochBatchIterator
from repro.utils.exceptions import ValidationError
from repro.utils.rng import resolve_rng

from autodiff import cross_entropy, forward_logits


@pytest.fixture(scope="module")
def neural_lsh_index(tiny_dataset, tiny_knn):
    config = NeuralLshConfig(n_bins=4, k_prime=8, hidden_dim=32, epochs=20, seed=0)
    return NeuralLshIndex(config).build(tiny_dataset.base, knn=tiny_knn)


class TestNeuralLsh:
    def test_balanced_assignments(self, neural_lsh_index, tiny_dataset):
        sizes = neural_lsh_index.bin_sizes()
        assert sizes.sum() == tiny_dataset.n_points
        assert sizes.max() <= np.ceil(1.06 * tiny_dataset.n_points / 4)

    def test_classifier_agrees_with_partition_mostly(self, neural_lsh_index, tiny_dataset):
        """The routing classifier should reproduce the graph-partition labels
        on the training points much better than chance."""
        predicted = neural_lsh_index.model.predict_bins(tiny_dataset.base)
        agreement = (predicted == neural_lsh_index.assignments).mean()
        assert agreement > 0.5

    def test_query_accuracy_improves_with_probes(self, neural_lsh_index, tiny_dataset):
        one, _ = neural_lsh_index.batch_query(tiny_dataset.queries, 10, n_probes=1)
        four, _ = neural_lsh_index.batch_query(tiny_dataset.queries, 10, n_probes=4)
        acc_one = knn_accuracy(one, tiny_dataset.ground_truth, 10)
        acc_four = knn_accuracy(four, tiny_dataset.ground_truth, 10)
        assert acc_four >= acc_one
        assert acc_four == pytest.approx(1.0)

    def test_timing_breakdown_available(self, neural_lsh_index):
        assert neural_lsh_index.preprocessing_seconds() > 0
        assert neural_lsh_index.training_seconds() > 0
        assert neural_lsh_index.edge_cut is not None

    def test_num_parameters_matches_architecture(self, neural_lsh_index, tiny_dataset):
        dim, hidden, bins = tiny_dataset.dim, 32, 4
        expected = dim * hidden + hidden + 2 * hidden + hidden * bins + bins
        assert neural_lsh_index.num_parameters() == expected

    def test_config_overrides(self):
        index = NeuralLshIndex(NeuralLshConfig(n_bins=8), n_bins=16)
        assert index.config.n_bins == 16

    def test_logistic_variant(self, tiny_dataset, tiny_knn):
        config = NeuralLshConfig(n_bins=2, k_prime=8, model="logistic", epochs=5, seed=0)
        index = NeuralLshIndex(config).build(tiny_dataset.base, knn=tiny_knn)
        assert index.num_parameters() == tiny_dataset.dim * 2 + 2

    @pytest.mark.parametrize("model", ["mlp", "logistic"])
    def test_training_replays_the_autodiff_loop(self, model):
        """The shared training step against Neural LSH's cross-entropy loop on the tape.

        Same ``Adam``, ``EpochBatchIterator``, seeds and generator draws; only
        how each gradient is computed differs.  The ``mlp``'s first ``Linear``
        bias is left out of the parameter check: batch norm subtracts the
        batch mean, so that bias's true gradient is exactly 0, and Adam
        scales each side's rounding noise into its own lr-sized random walk.
        The running mean absorbs the walk, so the logits still agree.
        """
        data = sift_like(n_points=600, n_queries=1000, dim=16, n_clusters=6, gt_k=1, seed=5)
        config = NeuralLshConfig(
            n_bins=4, k_prime=8, hidden_dim=32, epochs=6, batch_size=96, model=model, seed=3
        )
        index = NeuralLshIndex(config).build(data.base)

        rng = resolve_rng(config.seed)
        reference = PartitionModel(
            _build_classifier_module(data.dim, config, rng=rng), dim=data.dim, n_bins=config.n_bins
        )
        optimizer = Adam(reference.parameters(), lr=config.learning_rate)
        iterator = EpochBatchIterator(data.base, config.batch_size, rng=rng)
        reference.train()
        for _ in range(config.epochs):
            for batch in iterator:
                optimizer.zero_grad()
                logits = forward_logits(reference, batch.points)
                cross_entropy(logits, index.assignments[batch.indices]).backward()
                optimizer.step()
        reference.eval()

        replayed = copy.copy(index)
        replayed.model = reference
        np.testing.assert_array_equal(index.top_bins(data.queries, 3), replayed.top_bins(data.queries, 3))
        np.testing.assert_allclose(
            forward_logits(index.model, data.queries).data,
            forward_logits(reference, data.queries).data,
            rtol=1e-9,
        )
        for (name, got), (_, want) in zip(
            index.model.module.named_parameters(), reference.module.named_parameters()
        ):
            if model == "mlp" and name == "0.bias":
                continue
            np.testing.assert_allclose(got.data, want.data, rtol=1e-9, err_msg=name)


class TestRegressionLsh:
    def test_build_and_query(self, tiny_dataset):
        index = RegressionLshIndex(depth=2, epochs=5, seed=0).build(tiny_dataset.base)
        assert index.n_bins == 4
        assert index.bin_sizes().sum() == tiny_dataset.n_points
        indices, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_leaf_scores_are_distribution(self, tiny_dataset):
        index = RegressionLshIndex(depth=2, epochs=3, seed=0).build(tiny_dataset.base)
        scores = index.bin_scores(tiny_dataset.queries)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(tiny_dataset.n_queries), atol=1e-6)

    def test_router_nodes_keep_no_rows_after_build_or_load(self, tmp_path):
        from repro.api import load_index

        data = np.random.default_rng(4).normal(size=(2000, 8))
        queries = np.random.default_rng(5).normal(size=(20, 8))
        built = RegressionLshIndex(depth=3, epochs=2, seed=0).build(data)
        built.save(tmp_path / "index")
        loaded = load_index(tmp_path / "index")
        for index in (built, loaded):
            nodes = [node for node in index._nodes if node is not None]
            assert len(nodes) == 7
            # each node is just its two-bin classifier: no index, no rows
            assert all(type(node) is PartitionModel for node in nodes)
            assert not any(hasattr(node, "_base") for node in nodes)
            assert all(node.n_bins == 2 and node.dim == 8 for node in nodes)
            assert index.num_parameters() == 7 * (8 * 2 + 2)
        for n_probes in (1, 3, 8):
            b_ids, b_dist = built.batch_query(queries, 10, n_probes=n_probes)
            l_ids, l_dist = loaded.batch_query(queries, 10, n_probes=n_probes)
            np.testing.assert_array_equal(b_ids, l_ids)
            np.testing.assert_array_equal(b_dist, l_dist)


class TestLsh:
    def test_cross_polytope_bins_and_query(self, tiny_dataset):
        index = CrossPolytopeLshIndex(8, seed=0).build(tiny_dataset.base)
        assert index.n_bins == 8
        indices, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=8)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_cross_polytope_odd_bins_rejected(self):
        with pytest.raises(ValidationError):
            CrossPolytopeLshIndex(7)

    def test_cross_polytope_too_many_projections(self):
        with pytest.raises(ValidationError):
            CrossPolytopeLshIndex(64, seed=0).build(np.random.default_rng(0).normal(size=(50, 8)))

    def test_cross_polytope_assignment_matches_best_score(self, tiny_dataset):
        index = CrossPolytopeLshIndex(8, seed=0).build(tiny_dataset.base)
        scores = index.bin_scores_raw(tiny_dataset.base)
        np.testing.assert_array_equal(index.assignments, scores.argmax(axis=1))

    def test_hyperplane_lsh_bucket_count(self, tiny_dataset):
        index = HyperplaneLshIndex(3, seed=0).build(tiny_dataset.base)
        assert index.n_bins == 8
        assert index.assignments.max() < 8

    def test_hyperplane_lsh_multiprobe_monotone(self, tiny_dataset):
        index = HyperplaneLshIndex(3, seed=0).build(tiny_dataset.base)
        one = index.candidate_sets(tiny_dataset.queries, 1)
        two = index.candidate_sets(tiny_dataset.queries, 2)
        assert all(len(b) >= len(a) for a, b in zip(one, two))

    def test_hyperplane_lsh_own_bucket_ranked_first(self, tiny_dataset):
        index = HyperplaneLshIndex(3, seed=0).build(tiny_dataset.base)
        # A base point used as query should rank its own bucket first.
        ranked = index.ranked_bins(tiny_dataset.base[:20])
        np.testing.assert_array_equal(ranked[:, 0], index.assignments[:20])

    def test_too_many_hyperplanes_rejected(self):
        with pytest.raises(ValidationError):
            HyperplaneLshIndex(25)


TREE_CLASSES = [PcaTreeIndex, RandomProjectionTreeIndex, KdTreeIndex, TwoMeansTreeIndex]


class TestHyperplaneTrees:
    @pytest.mark.parametrize("tree_class", TREE_CLASSES)
    def test_build_assigns_all_points(self, tree_class, tiny_dataset):
        index = tree_class(depth=3, seed=0).build(tiny_dataset.base)
        assert index.n_bins == 8
        assert index.bin_sizes().sum() == tiny_dataset.n_points

    @pytest.mark.parametrize("tree_class", TREE_CLASSES)
    def test_full_probe_perfect_recall(self, tree_class, tiny_dataset):
        index = tree_class(depth=2, seed=0).build(tiny_dataset.base)
        indices, _ = index.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_median_splits_are_balanced(self, tiny_dataset):
        index = PcaTreeIndex(depth=3, seed=0).build(tiny_dataset.base)
        sizes = index.bin_sizes()
        assert sizes.max() <= 2 * np.ceil(tiny_dataset.n_points / 8)

    def test_two_means_better_than_random_projection_on_clustered_data(self, tiny_dataset):
        two_means = TwoMeansTreeIndex(depth=3, seed=0).build(tiny_dataset.base)
        rp = RandomProjectionTreeIndex(depth=3, seed=0).build(tiny_dataset.base)
        tm_recall = candidate_recall(
            two_means.candidate_sets(tiny_dataset.queries, 1), tiny_dataset.ground_truth, 10
        )
        rp_recall = candidate_recall(
            rp.candidate_sets(tiny_dataset.queries, 1), tiny_dataset.ground_truth, 10
        )
        assert tm_recall >= rp_recall - 0.05

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            PcaTreeIndex(depth=20)

    def test_num_parameters(self, tiny_dataset):
        index = KdTreeIndex(depth=2, seed=0).build(tiny_dataset.base)
        # 3 internal nodes, each storing a normal (dim) and an offset.
        assert index.num_parameters() == 3 * (tiny_dataset.dim + 1)

    def test_duplicate_points_do_not_break_splits(self):
        points = np.ones((64, 4))
        index = RandomProjectionTreeIndex(depth=2, seed=0).build(points)
        assert index.bin_sizes().sum() == 64


class TestBoostedSearchForest:
    def test_build_and_query(self, tiny_dataset, tiny_knn):
        forest = BoostedSearchForestIndex(n_trees=2, depth=2, seed=0).build(
            tiny_dataset.base, knn=tiny_knn
        )
        assert forest.n_bins == 4
        indices, _ = forest.batch_query(tiny_dataset.queries, 10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) > 0.8

    def test_trees_differ(self, tiny_dataset, tiny_knn):
        forest = BoostedSearchForestIndex(n_trees=2, depth=2, seed=0).build(
            tiny_dataset.base, knn=tiny_knn
        )
        assert (forest.trees[0].assignments != forest.trees[1].assignments).any()

    def test_forest_recall_at_least_single_tree(self, tiny_dataset, tiny_knn):
        forest = BoostedSearchForestIndex(n_trees=3, depth=2, seed=0).build(
            tiny_dataset.base, knn=tiny_knn
        )
        forest_recall = candidate_recall(
            forest.candidate_sets(tiny_dataset.queries, 1), tiny_dataset.ground_truth, 10
        )
        single_recall = candidate_recall(
            forest.trees[0].candidate_sets(tiny_dataset.queries, 1),
            tiny_dataset.ground_truth,
            10,
        )
        assert forest_recall >= single_recall - 0.05

    def test_num_parameters(self, tiny_dataset, tiny_knn):
        forest = BoostedSearchForestIndex(n_trees=2, depth=2, seed=0).build(
            tiny_dataset.base, knn=tiny_knn
        )
        assert forest.num_parameters() == sum(t.num_parameters() for t in forest.trees)

    def test_not_built_error(self):
        from repro.utils.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            BoostedSearchForestIndex().batch_query(np.zeros((1, 4)), 5)
