"""Tests for the boosted ensemble and hierarchical partitioning."""

import json

import numpy as np
import pytest

from repro.core import (
    EnsembleConfig,
    HierarchicalConfig,
    HierarchicalUspIndex,
    UspConfig,
    UspEnsembleIndex,
    boosting_weights,
)
from repro.api import load_index
from repro.eval import candidate_stats, knn_accuracy
from repro.utils.exceptions import ConfigurationError, NotFittedError, SerializationError


@pytest.fixture(scope="module")
def ensemble_index(tiny_dataset, tiny_knn, fast_usp_config):
    config = EnsembleConfig(n_models=2, base=fast_usp_config.with_updates(epochs=4))
    return UspEnsembleIndex(config).build(tiny_dataset.base, knn=tiny_knn)


class TestEnsembleConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(n_models=0)

    def test_zero_models_rejected_by_both_constructor_paths(self):
        with pytest.raises(ConfigurationError, match="n_models"):
            UspEnsembleIndex(n_models=0)
        with pytest.raises(ConfigurationError, match="n_models"):
            UspEnsembleIndex(EnsembleConfig(n_models=2), n_models=0)


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
        assert len(ensemble_index.members) == 2
        assert len(ensemble_index.weight_history) == 2
        np.testing.assert_array_equal(
            ensemble_index.weight_history[0], np.ones(ensemble_index.n_points)
        )

    def test_members_produce_different_partitions(self, ensemble_index):
        a = ensemble_index.members[0].assignments
        b = ensemble_index.members[1].assignments
        assert (a != b).any()

    def test_each_query_is_routed_to_its_best_member(self, ensemble_index, tiny_dataset):
        queries = tiny_dataset.queries
        confidences = np.column_stack(
            [member.bin_scores(queries).max(axis=1) for member in ensemble_index.members]
        )
        assert confidences.shape == (tiny_dataset.n_queries, 2)
        assert confidences.min() > 0 and confidences.max() <= 1.0
        best = confidences.argmax(axis=1)
        routes = ensemble_index.route(queries, 2)
        covered = np.concatenate([rows for _, rows, _ in routes])
        np.testing.assert_array_equal(np.sort(covered), np.arange(len(queries)))
        for member, rows, ranked in routes:
            m = ensemble_index.members.index(member)
            assert (best[rows] == m).all()
            np.testing.assert_array_equal(ranked, member.top_bins(queries, 2)[rows])

    @pytest.mark.parametrize("n_probes", [1, 2, 9])
    def test_answers_equal_the_chosen_members_own_rows(
        self, ensemble_index, tiny_dataset, n_probes, monkeypatch
    ):
        """Bit for bit, each answer row is the row the chosen member's own
        full-batch ``batch_query`` gives that query."""
        queries = tiny_dataset.queries
        members = ensemble_index.members
        best = np.column_stack([m.bin_scores(queries).max(axis=1) for m in members]).argmax(axis=1)
        assert len(set(best.tolist())) == 2  # both members get chosen
        own = [member.batch_query(queries, 10, n_probes=n_probes) for member in members]

        passes = []
        for member in members:
            monkeypatch.setattr(
                member, "bin_scores",
                lambda q, scores=member.bin_scores: passes.append(1) or scores(q),
            )
        ids, distances = ensemble_index.batch_query(queries, 10, n_probes=n_probes)
        assert len(passes) == len(members)  # one model pass per member
        for i, m in enumerate(best):
            np.testing.assert_array_equal(ids[i], own[m][0][i])
            np.testing.assert_array_equal(distances[i], own[m][1][i])

    def test_query_and_batch_query(self, ensemble_index, tiny_dataset):
        indices, distances = ensemble_index.query(tiny_dataset.queries[0], k=5, n_probes=2)
        assert indices.shape == (5,)
        batch_indices, _ = ensemble_index.batch_query(tiny_dataset.queries, k=5, n_probes=2)
        assert batch_indices.shape == (tiny_dataset.n_queries, 5)

    @pytest.mark.parametrize("mode", ["best", "union"])
    def test_saved_combination_keyword_is_refused(self, ensemble_index, tmp_path, mode):
        """Only Algorithm 4 remains: a manifest passing a combination mode names no keyword."""
        ensemble_index.save(tmp_path / "ens")
        manifest = tmp_path / "ens" / "index.json"
        metadata = json.loads(manifest.read_text())
        assert "combination" not in metadata["arguments"]
        metadata["arguments"]["combination"] = mode
        manifest.write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="combination"):
            load_index(tmp_path / "ens")

    def test_loaded_members_share_one_base(self, ensemble_index, tiny_dataset, tmp_path):
        # Each member's directory holds its own bin-major copy of the base
        # and the ensemble's none; after a load each member keeps its own
        # copy and the ensemble none beside them.
        ensemble_index.save(tmp_path / "ens")
        reloaded = load_index(tmp_path / "ens")
        assert not any(isinstance(value, np.ndarray) and value.ndim == 2 for value in vars(reloaded).values())
        for member in reloaded.members:
            np.testing.assert_array_equal(member.vectors(), tiny_dataset.base)
        np.testing.assert_array_equal(reloaded.vectors(), tiny_dataset.base)
        queries = tiny_dataset.queries
        for n_probes in range(1, reloaded.n_bins + 1):
            for built, loaded in [(ensemble_index, reloaded), *zip(ensemble_index.members, reloaded.members)]:
                ids, distances = built.batch_query(queries, 10, n_probes=n_probes)
                re_ids, re_distances = loaded.batch_query(queries, 10, n_probes=n_probes)
                np.testing.assert_array_equal(ids, re_ids)
                np.testing.assert_array_equal(distances, re_distances)

    def test_ensemble_not_worse_than_single_member(self, ensemble_index, tiny_dataset):
        queries, truth = tiny_dataset.queries, tiny_dataset.ground_truth
        _, single_recall = candidate_stats(ensemble_index.members[0], queries, truth, 10, 1)
        _, combined_recall = candidate_stats(ensemble_index, queries, truth, 10, 1)
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
        assert len(hierarchical_index.levels) == 2
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
