"""Tests for UspConfig, the partition models, the trainer, and UspIndex."""

import numpy as np
import pytest

from repro.api import load_index
from repro.core import (
    PartitionIndexBase,
    PartitionModel,
    UspConfig,
    UspIndex,
    UspTrainer,
    build_knn_matrix,
    build_partition_model,
    rerank_candidates,
)
from repro.eval import candidate_stats, knn_accuracy
from repro.nn import Linear, Sequential
from repro.utils.exceptions import ConfigurationError, NotFittedError, ValidationError

from autodiff import Tanh, Tensor, forward_logits


class TestUspConfig:
    def test_defaults_valid(self):
        config = UspConfig()
        assert config.n_bins == 16
        assert config.k_prime == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bins": 1},
            {"k_prime": 0},
            {"eta": -1.0},
            {"model": "transformer"},
            {"dropout": 1.5},
            {"epochs": 0},
            {"batch_fraction": 0.0},
            {"batch_fraction": 2.0},
            {"balance_term": "foo"},
            {"learning_rate": 0.0},
            {"hidden_dim": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            UspConfig(**kwargs)

    def test_batch_size_for_respects_fraction_and_caps(self):
        config = UspConfig(batch_fraction=0.04, min_batch_size=64, max_batch_size=256)
        assert config.batch_size_for(10_000) == 256  # capped
        assert config.batch_size_for(1_000) == 64  # floored at min
        assert config.batch_size_for(50) == 50  # capped at dataset size

    def test_with_updates_returns_new_config(self):
        config = UspConfig()
        updated = config.with_updates(n_bins=32)
        assert updated.n_bins == 32
        assert config.n_bins == 16


class TestPartitionModels:
    def test_mlp_output_shape_and_distribution(self):
        config = UspConfig(n_bins=8, hidden_dim=16)
        model = build_partition_model(dim=10, config=config)
        points = np.random.default_rng(0).normal(size=(20, 10))
        probs = model.predict_proba(points)
        assert probs.shape == (20, 8)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(20), atol=1e-9)
        assert probs.min() >= 0

    def test_logistic_model_parameter_count(self):
        config = UspConfig(n_bins=4, model="logistic")
        model = build_partition_model(dim=6, config=config)
        assert model.num_parameters() == 6 * 4 + 4

    def test_mlp_parameter_count_matches_formula(self):
        config = UspConfig(n_bins=8, hidden_dim=32)
        model = build_partition_model(dim=10, config=config)
        expected = 10 * 32 + 32 + 2 * 32 + 32 * 8 + 8  # linear + bn + output
        assert model.num_parameters() == expected

    def test_predict_bins_argmax_consistent(self):
        config = UspConfig(n_bins=5, hidden_dim=8)
        model = build_partition_model(dim=4, config=config)
        points = np.random.default_rng(1).normal(size=(15, 4))
        np.testing.assert_array_equal(
            model.predict_bins(points), model.predict_proba(points).argmax(axis=1)
        )

    def test_dimension_mismatch_raises(self):
        model = build_partition_model(dim=4, config=UspConfig(n_bins=4, hidden_dim=8))
        with pytest.raises(ConfigurationError):
            model.predict_proba(np.zeros((3, 7)))

    def test_same_seed_same_initialisation(self):
        config = UspConfig(n_bins=4, hidden_dim=8, seed=5)
        a = build_partition_model(dim=3, config=config)
        b = build_partition_model(dim=3, config=config)
        for (_, pa), (_, pb) in zip(a.module.named_parameters(), b.module.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestInferenceWithoutAutodiff:
    """``predict_proba`` / ``predict_bins`` against the module's own eval-mode forward."""

    @pytest.fixture(scope="class", params=["mlp", "logistic"])
    def trained_model(self, request, tiny_dataset, tiny_knn, fast_usp_config):
        # A few steps, so the batch-norm running statistics are not 0 / 1.
        config = fast_usp_config.with_updates(model=request.param, epochs=2)
        model, _ = UspTrainer(config).train(tiny_dataset.base, tiny_knn)
        return model

    @staticmethod
    def reference_proba(model, points):
        model.eval()
        return forward_logits(model, points).softmax(axis=-1).data

    def test_matches_the_eval_mode_forward(self, trained_model, tiny_dataset):
        points = np.vstack([tiny_dataset.queries, tiny_dataset.base[:50]])
        expected = self.reference_proba(trained_model, points)
        np.testing.assert_allclose(trained_model.predict_proba(points), expected, rtol=1e-12)
        np.testing.assert_array_equal(
            trained_model.predict_bins(points), expected.argmax(axis=1)
        )
        np.testing.assert_allclose(
            trained_model.predict_proba(points, batch_size=7), expected, rtol=1e-12
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_leaves_mode_alone_and_builds_no_graph(
        self, trained_model, tiny_dataset, training, monkeypatch
    ):
        trained_model.module.train(training)
        created = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        before = trained_model.predict_proba(tiny_dataset.queries)
        trained_model.predict_bins(tiny_dataset.queries)
        assert not created
        assert all(layer.training is training for layer in trained_model.module)
        assert trained_model.module.training is training
        # Inference reads the running statistics either way.
        trained_model.module.eval()
        np.testing.assert_array_equal(trained_model.predict_proba(tiny_dataset.queries), before)

    def test_wrong_dimension_still_rejected(self, trained_model):
        with pytest.raises(ConfigurationError):
            trained_model.predict_bins(np.zeros((3, 7)))

    def test_module_without_a_plain_numpy_form_is_rejected(self):
        model = PartitionModel(Sequential(Linear(4, 8), Tanh(), Linear(8, 3)), dim=4, n_bins=3)
        with pytest.raises(ConfigurationError):
            model.predict_proba(np.zeros((2, 4)))

    def test_saved_index_answers_bitwise_like_the_live_one(
        self, built_usp_index, tiny_dataset, tmp_path
    ):
        built_usp_index.save(tmp_path / "usp")
        loaded = load_index(tmp_path / "usp")
        for n_probes in (1, 2):
            live = built_usp_index.batch_query(tiny_dataset.queries, 10, n_probes=n_probes)
            again = loaded.batch_query(tiny_dataset.queries, 10, n_probes=n_probes)
            np.testing.assert_array_equal(live[0], again[0])
            np.testing.assert_array_equal(live[1], again[1])
        np.testing.assert_array_equal(
            built_usp_index.bin_scores(tiny_dataset.queries),
            loaded.bin_scores(tiny_dataset.queries),
        )


class TestTrainer:
    def test_training_reduces_loss(self, tiny_dataset, tiny_knn, fast_usp_config):
        trainer = UspTrainer(fast_usp_config)
        model, history = trainer.train(tiny_dataset.base, tiny_knn)
        assert history.n_iterations > 5
        first = np.mean(history.total[:3])
        last = np.mean(history.total[-3:])
        assert last < first

    def test_history_components_recorded(self, tiny_dataset, tiny_knn, fast_usp_config):
        trainer = UspTrainer(fast_usp_config.with_updates(epochs=2))
        _, history = trainer.train(tiny_dataset.base, tiny_knn)
        assert len(history.total) == len(history.quality) == len(history.balance)
        assert history.seconds > 0

    def test_knn_size_mismatch_rejected(self, tiny_dataset, fast_usp_config):
        other_knn = build_knn_matrix(tiny_dataset.base[:100], 5)
        with pytest.raises(ValidationError):
            UspTrainer(fast_usp_config).train(tiny_dataset.base, other_knn)

    def test_point_weights_validation(self, tiny_dataset, tiny_knn, fast_usp_config):
        trainer = UspTrainer(fast_usp_config.with_updates(epochs=1))
        with pytest.raises(ValidationError):
            trainer.train(tiny_dataset.base, tiny_knn, point_weights=np.ones(3))
        with pytest.raises(ValidationError):
            trainer.train(
                tiny_dataset.base, tiny_knn, point_weights=-np.ones(tiny_dataset.n_points)
            )

    def test_progress_callback_invoked(self, tiny_dataset, tiny_knn, fast_usp_config):
        calls = []
        trainer = UspTrainer(fast_usp_config.with_updates(epochs=1))
        trainer.train(
            tiny_dataset.base, tiny_knn, progress=lambda i, b: calls.append((i, b.total))
        )
        assert len(calls) > 0
        assert calls[0][0] == 0

    def test_deterministic_given_seed(self, tiny_dataset, tiny_knn, fast_usp_config):
        config = fast_usp_config.with_updates(epochs=2, dropout=0.0)
        model_a, _ = UspTrainer(config).train(tiny_dataset.base, tiny_knn)
        model_b, _ = UspTrainer(config).train(tiny_dataset.base, tiny_knn)
        np.testing.assert_allclose(
            model_a.predict_proba(tiny_dataset.queries),
            model_b.predict_proba(tiny_dataset.queries),
            atol=1e-9,
        )


class TestUspIndex:
    def test_not_fitted_errors(self):
        index = UspIndex(UspConfig(n_bins=4))
        with pytest.raises(NotFittedError):
            index.query(np.zeros(4), 5)
        with pytest.raises(NotFittedError):
            index.num_parameters()
        with pytest.raises(NotFittedError):
            _ = index.n_bins

    def test_build_assigns_every_point(self, built_usp_index, tiny_dataset):
        assert built_usp_index.assignments.shape == (tiny_dataset.n_points,)
        assert built_usp_index.bin_sizes().sum() == tiny_dataset.n_points
        assert built_usp_index.n_bins == 4

    def test_lookup_table_consistent_with_assignments(self, built_usp_index):
        for bin_id in range(built_usp_index.n_bins):
            members = built_usp_index.points_in_bin(bin_id)
            assert (built_usp_index.assignments[members] == bin_id).all()

    def test_bin_scores_are_probabilities(self, built_usp_index, tiny_dataset):
        scores = built_usp_index.bin_scores(tiny_dataset.queries)
        assert scores.shape == (tiny_dataset.n_queries, 4)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(tiny_dataset.n_queries), atol=1e-9)

    def test_candidate_sets_grow_with_probes(self, built_usp_index, tiny_dataset):
        small = built_usp_index.candidate_sets(tiny_dataset.queries, 1)
        large = built_usp_index.candidate_sets(tiny_dataset.queries, 3)
        assert all(len(l) >= len(s) for s, l in zip(small, large))

    def test_candidates_come_from_ranked_bins(self, built_usp_index, tiny_dataset):
        query = tiny_dataset.queries[:1]
        top_bin = np.argmax(built_usp_index.bin_scores(query)[0])
        candidates = built_usp_index.candidate_sets(query, 1)[0]
        assert set(candidates) == set(built_usp_index.points_in_bin(int(top_bin)))

    def test_query_returns_sorted_real_neighbors(self, built_usp_index, tiny_dataset):
        indices, distances = built_usp_index.query(tiny_dataset.queries[0], k=5, n_probes=2)
        valid = indices >= 0
        assert valid.sum() == 5
        assert (np.diff(distances[valid]) >= -1e-9).all()
        # Distances must match the actual base vectors.
        recomputed = np.linalg.norm(
            tiny_dataset.base[indices[valid]] - tiny_dataset.queries[0], axis=1
        )
        np.testing.assert_allclose(distances[valid], recomputed, atol=1e-9)

    def test_full_probe_reaches_perfect_recall(self, built_usp_index, tiny_dataset):
        indices, _ = built_usp_index.batch_query(
            tiny_dataset.queries, k=10, n_probes=built_usp_index.n_bins
        )
        assert knn_accuracy(indices, tiny_dataset.ground_truth, 10) == pytest.approx(1.0)

    def test_partition_beats_random_candidate_sets(self, built_usp_index, tiny_dataset):
        """The learned partition's candidate recall must beat a random partition's."""
        rng = np.random.default_rng(0)
        _, learned = candidate_stats(
            built_usp_index, tiny_dataset.queries, tiny_dataset.ground_truth, 10, 1
        )
        random_assignment = rng.integers(0, 4, size=tiny_dataset.n_points)
        random_recall = []
        for i in range(tiny_dataset.n_queries):
            bucket = np.where(random_assignment == rng.integers(0, 4))[0]
            random_recall.append(
                len(set(bucket) & set(tiny_dataset.ground_truth[i, :10])) / 10
            )
        assert learned > np.mean(random_recall)

    def test_training_seconds_and_parameters(self, built_usp_index):
        assert built_usp_index.training_seconds() > 0
        assert built_usp_index.num_parameters() > 0

    def test_invalid_bin_id(self, built_usp_index):
        with pytest.raises(ValidationError):
            built_usp_index.points_in_bin(99)

    def test_query_dim_mismatch(self, built_usp_index):
        with pytest.raises(ValidationError):
            built_usp_index.query(np.zeros(3), 5)


class TestRerankCandidates:
    def test_padding_when_fewer_than_k(self):
        base = np.random.default_rng(0).normal(size=(10, 3))
        queries = base[:2]
        indices, distances = rerank_candidates(base, queries, [np.array([1, 2]), np.array([], dtype=int)], k=5)
        assert (indices[0, 2:] == -1).all()
        assert (indices[1] == -1).all()
        assert np.isinf(distances[1]).all()

    def test_exact_order(self):
        base = np.array([[0.0], [1.0], [2.0], [3.0]])
        queries = np.array([[2.2]])
        indices, _ = rerank_candidates(base, queries, [np.arange(4)], k=2)
        np.testing.assert_array_equal(indices[0], [2, 3])


class TestPartitionIndexBaseValidation:
    def test_finalize_build_validations(self):
        index = PartitionIndexBase()
        with pytest.raises(ValidationError):
            index._finalize_build(np.zeros((5, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValidationError):
            index._finalize_build(np.zeros((5, 2)), np.full(5, 7), 2)

    def test_bin_scores_abstract(self):
        index = PartitionIndexBase()
        index._finalize_build(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2)
        with pytest.raises(NotImplementedError):
            index.bin_scores(np.zeros((1, 2)))
