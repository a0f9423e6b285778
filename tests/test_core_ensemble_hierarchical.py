"""Tests for the boosted ensemble and hierarchical partitioning."""

import numpy as np
import pytest

from repro.core import (
    EnsembleConfig,
    HierarchicalConfig,
    HierarchicalUspIndex,
    UspConfig,
    UspEnsembleIndex,
    boosting_weights,
    rerank_candidates,
)
from repro.eval import candidate_recall, knn_accuracy
from repro.utils.exceptions import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def ensemble_index(tiny_dataset, tiny_knn, fast_usp_config):
    config = EnsembleConfig(n_models=2, base=fast_usp_config.with_updates(epochs=4))
    return UspEnsembleIndex(config).build(tiny_dataset.base, knn=tiny_knn)


class TestEnsembleConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(n_models=0)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(combination="vote")


class TestBoostingWeights:
    def test_zero_for_perfectly_clustered_points(self, tiny_knn):
        # Assign every point and all its neighbours to bin 0 -> no mismatches.
        assignments = np.zeros(tiny_knn.n_points, dtype=np.int64)
        weights = boosting_weights(assignments, tiny_knn)
        np.testing.assert_array_equal(weights, np.zeros(tiny_knn.n_points))

    def test_counts_separated_neighbors(self):
        indices = np.array([[1, 2], [0, 2], [0, 1]])
        from repro.core import KnnMatrix

        knn = KnnMatrix(indices)
        assignments = np.array([0, 0, 1])
        weights = boosting_weights(assignments, knn)
        np.testing.assert_array_equal(weights, [1.0, 1.0, 2.0])

    def test_multiplies_previous_weights(self):
        indices = np.array([[1], [0]])
        from repro.core import KnnMatrix

        knn = KnnMatrix(indices)
        assignments = np.array([0, 1])
        weights = boosting_weights(assignments, knn, previous_weights=np.array([2.0, 3.0]))
        np.testing.assert_array_equal(weights, [2.0, 3.0])


class TestUspEnsembleIndex:
    def test_trains_requested_number_of_members(self, ensemble_index):
        assert ensemble_index.n_models == 2
        assert len(ensemble_index.weight_history) == 2
        np.testing.assert_array_equal(
            ensemble_index.weight_history[0], np.ones(ensemble_index.n_points)
        )

    def test_members_produce_different_partitions(self, ensemble_index):
        a = ensemble_index.members[0].assignments
        b = ensemble_index.members[1].assignments
        assert (a != b).any()

    def test_confidences_shape_and_range(self, ensemble_index, tiny_dataset):
        conf = ensemble_index.confidences(tiny_dataset.queries)
        assert conf.shape == (tiny_dataset.n_queries, 2)
        assert conf.min() > 0 and conf.max() <= 1.0

    def test_best_member_candidate_selected(self, ensemble_index, tiny_dataset):
        queries = tiny_dataset.queries[:5]
        best = ensemble_index.best_members(queries)
        candidates = ensemble_index.candidate_sets(queries, 1)
        for i in range(5):
            member_candidates = ensemble_index.members[int(best[i])].candidate_sets(
                queries[i : i + 1], 1
            )[0]
            np.testing.assert_array_equal(candidates[i], member_candidates)

    @pytest.mark.parametrize("combination", ["best", "union"])
    @pytest.mark.parametrize("n_probes", [1, 2, 9])
    def test_answers_equal_every_member_asked_separately(
        self, ensemble_index, tiny_dataset, combination, n_probes, monkeypatch
    ):
        """Bitwise the seed's answers: each member's own ``candidate_sets`` and
        ``confidence``, combined outside the ensemble, then re-ranked."""
        queries = tiny_dataset.queries
        members = ensemble_index.members
        per_member = [member.candidate_sets(queries, n_probes) for member in members]
        if combination == "union":
            expected = [
                np.unique(np.concatenate([sets[i] for sets in per_member]))
                for i in range(len(queries))
            ]
        else:
            best = np.column_stack([m.confidence(queries) for m in members]).argmax(axis=1)
            assert len(set(best.tolist())) == 2  # both members get chosen
            expected = [per_member[int(best[i])][i] for i in range(len(queries))]
        expected_ids, expected_distances = rerank_candidates(
            tiny_dataset.base, queries, expected, 10, metric=ensemble_index.metric
        )

        monkeypatch.setattr(
            ensemble_index,
            "config",
            EnsembleConfig(n_models=2, base=ensemble_index.config.base, combination=combination),
        )
        passes = []
        for member in members:
            monkeypatch.setattr(
                member, "bin_scores",
                lambda q, scores=member.bin_scores: passes.append(1) or scores(q),
            )
        candidates = ensemble_index.candidate_sets(queries, n_probes)
        assert len(passes) == len(members)  # one model pass per member
        for got, want in zip(candidates, expected):
            np.testing.assert_array_equal(got, want)
        ids, distances = ensemble_index.batch_query(queries, 10, n_probes=n_probes)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_array_equal(distances, expected_distances)

    def test_query_and_batch_query(self, ensemble_index, tiny_dataset):
        indices, distances = ensemble_index.query(tiny_dataset.queries[0], k=5, n_probes=2)
        assert indices.shape == (5,)
        batch_indices, _ = ensemble_index.batch_query(tiny_dataset.queries, k=5, n_probes=2)
        assert batch_indices.shape == (tiny_dataset.n_queries, 5)

    def test_union_combination_gives_larger_candidates(self, tiny_dataset, tiny_knn, fast_usp_config):
        base_config = fast_usp_config.with_updates(epochs=3)
        best = UspEnsembleIndex(
            EnsembleConfig(n_models=2, base=base_config, combination="best")
        ).build(tiny_dataset.base, knn=tiny_knn)
        union = UspEnsembleIndex(
            EnsembleConfig(n_models=2, base=base_config, combination="union")
        ).build(tiny_dataset.base, knn=tiny_knn)
        best_sizes = [len(c) for c in best.candidate_sets(tiny_dataset.queries[:10], 1)]
        union_sizes = [len(c) for c in union.candidate_sets(tiny_dataset.queries[:10], 1)]
        assert np.mean(union_sizes) >= np.mean(best_sizes)

    def test_ensemble_not_worse_than_single_member(self, ensemble_index, tiny_dataset):
        queries = tiny_dataset.queries
        single = ensemble_index.members[0].candidate_sets(queries, 1)
        combined = ensemble_index.candidate_sets(queries, 1)
        single_recall = candidate_recall(single, tiny_dataset.ground_truth, 10)
        combined_recall = candidate_recall(combined, tiny_dataset.ground_truth, 10)
        assert combined_recall >= single_recall - 0.05

    def test_introspection(self, ensemble_index):
        assert ensemble_index.num_parameters() == sum(
            m.num_parameters() for m in ensemble_index.members
        )
        assert ensemble_index.training_seconds() > 0
        assert ensemble_index.n_bins == 4

    def test_not_built_errors(self, fast_usp_config):
        index = UspEnsembleIndex(EnsembleConfig(n_models=2, base=fast_usp_config))
        with pytest.raises(NotFittedError):
            index.batch_query(np.zeros((1, 16)), 5)

    def test_constructor_overrides(self, fast_usp_config):
        index = UspEnsembleIndex(n_models=4, base_config=fast_usp_config)
        assert index.config.n_models == 4


class TestHierarchicalConfig:
    def test_total_bins(self):
        assert HierarchicalConfig(levels=(4, 4)).total_bins == 16
        assert HierarchicalConfig(levels=(2, 2, 2)).total_bins == 8

    def test_invalid_levels(self):
        with pytest.raises(ConfigurationError):
            HierarchicalConfig(levels=())
        with pytest.raises(ConfigurationError):
            HierarchicalConfig(levels=(4, 1))


class TestHierarchicalUspIndex:
    @pytest.fixture(scope="class")
    def hierarchical_index(self, tiny_dataset, fast_usp_config):
        config = HierarchicalConfig(
            levels=(2, 2), base=fast_usp_config.with_updates(epochs=4, n_bins=2)
        )
        return HierarchicalUspIndex(config).build(tiny_dataset.base)

    def test_total_bins_and_assignment_range(self, hierarchical_index, tiny_dataset):
        assert hierarchical_index.n_bins == 4
        assert hierarchical_index.assignments.min() >= 0
        assert hierarchical_index.assignments.max() < 4
        assert hierarchical_index.bin_sizes().sum() == tiny_dataset.n_points

    def test_leaf_scores_form_distribution(self, hierarchical_index, tiny_dataset):
        scores = hierarchical_index.bin_scores(tiny_dataset.queries)
        assert scores.shape == (tiny_dataset.n_queries, 4)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(tiny_dataset.n_queries), atol=1e-6)

    def test_query_quality_reasonable(self, hierarchical_index, tiny_dataset):
        indices, _ = hierarchical_index.batch_query(tiny_dataset.queries, k=10, n_probes=2)
        accuracy = knn_accuracy(indices, tiny_dataset.ground_truth, 10)
        assert accuracy > 0.5

    def test_full_probe_perfect_recall(self, hierarchical_index, tiny_dataset):
        indices, _ = hierarchical_index.batch_query(tiny_dataset.queries, k=10, n_probes=4)
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_num_parameters_positive(self, hierarchical_index):
        assert hierarchical_index.num_parameters() > 0
        assert hierarchical_index.depth() == 2
        assert hierarchical_index.training_seconds() > 0

    def test_not_built_error(self):
        with pytest.raises(NotFittedError):
            HierarchicalUspIndex().bin_scores(np.zeros((1, 4)))

    def test_tiny_subsets_handled(self):
        """Degenerate case: more leaf bins than points still builds and queries."""
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 4))
        config = HierarchicalConfig(
            levels=(4, 4),
            base=UspConfig(n_bins=4, k_prime=3, epochs=2, hidden_dim=8, max_batch_size=16, min_batch_size=8),
        )
        index = HierarchicalUspIndex(config).build(points)
        indices, _ = index.batch_query(points[:3], k=3, n_probes=16)
        assert (indices >= 0).all()
        # a node is fitted exactly when it holds at least max(2 * 4, 4) rows
        rows = index._rows_per_node()
        assert [node is not None for node in index._nodes] == [
            bool(rows[i] >= 8) for i in range(len(index._nodes))
        ]
        np.testing.assert_allclose(index.bin_scores(points).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # probing every leaf is exact search
        exact = np.argsort(((points[:3, None] - points[None]) ** 2).sum(axis=2), axis=1)[:, :3]
        np.testing.assert_array_equal(indices, exact)
