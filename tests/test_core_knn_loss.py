"""Tests for the k'-NN matrix and the USP loss function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KnnMatrix,
    LossBreakdown,
    PartitionModel,
    balance_cost,
    build_mlp_module,
    build_knn_matrix,
    entropy_balance_cost,
    neighbor_bin_distribution,
    quality_cost,
    usp_loss,
)
from repro.nn import Tensor
from repro.utils.exceptions import ValidationError

from test_nn_tensor import numerical_gradient


class TestKnnMatrix:
    def test_shape_and_self_exclusion(self, tiny_dataset):
        knn = build_knn_matrix(tiny_dataset.base, 5)
        assert knn.indices.shape == (tiny_dataset.n_points, 5)
        for i in range(0, tiny_dataset.n_points, 37):
            assert i not in knn.indices[i]

    def test_neighbors_are_actually_nearest(self, tiny_dataset):
        base = tiny_dataset.base
        knn = build_knn_matrix(base, 3)
        i = 11
        dists = np.linalg.norm(base - base[i], axis=1)
        dists[i] = np.inf
        expected = set(np.argsort(dists)[:3].tolist())
        assert set(knn.neighbors_of(i).tolist()) == expected

    def test_keep_distances_sorted(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 4))
        knn = build_knn_matrix(points, 6, keep_distances=True)
        assert knn.distances.shape == (50, 6)
        assert (np.diff(knn.distances, axis=1) >= -1e-12).all()

    def test_gather(self):
        points = np.random.default_rng(0).normal(size=(30, 3))
        knn = build_knn_matrix(points, 4)
        batch = np.array([2, 7, 13])
        np.testing.assert_array_equal(knn.gather(batch), knn.indices[batch])

    def test_as_graph_edges(self):
        points = np.random.default_rng(0).normal(size=(20, 3))
        knn = build_knn_matrix(points, 3)
        edges = knn.as_graph_edges()
        assert edges.shape == (60, 2)
        np.testing.assert_array_equal(edges[:3, 0], [0, 0, 0])

    def test_k_prime_too_large(self):
        with pytest.raises(ValidationError):
            build_knn_matrix(np.zeros((5, 2)), 5)

    def test_validation_of_shapes(self):
        with pytest.raises(ValidationError):
            KnnMatrix(np.zeros(5))
        with pytest.raises(ValidationError):
            KnnMatrix(np.zeros((5, 3)), distances=np.zeros((5, 2)))


class TestNeighborBinDistribution:
    def test_soft_proportions(self):
        neighbor_bins = np.array([[0, 0, 1, 2], [3, 3, 3, 3]])
        dist = neighbor_bin_distribution(neighbor_bins, 4)
        np.testing.assert_allclose(dist[0], [0.5, 0.25, 0.25, 0.0])
        np.testing.assert_allclose(dist[1], [0.0, 0.0, 0.0, 1.0])

    def test_hard_majority(self):
        neighbor_bins = np.array([[0, 0, 1, 2]])
        dist = neighbor_bin_distribution(neighbor_bins, 3, soft=False)
        np.testing.assert_array_equal(dist, [[1.0, 0.0, 0.0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        neighbor_bins = rng.integers(0, 8, size=(40, 10))
        dist = neighbor_bin_distribution(neighbor_bins, 8)
        np.testing.assert_allclose(dist.sum(axis=1), np.ones(40))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            neighbor_bin_distribution(np.array([[0, 9]]), 4)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError):
            neighbor_bin_distribution(np.array([0, 1, 2]), 4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=12))
    def test_property_distribution(self, n_bins, k_prime):
        rng = np.random.default_rng(0)
        bins = rng.integers(0, n_bins, size=(10, k_prime))
        dist = neighbor_bin_distribution(bins, n_bins)
        assert dist.min() >= 0
        np.testing.assert_allclose(dist.sum(axis=1), np.ones(10), atol=1e-12)


class TestBalanceCost:
    def test_perfectly_balanced_confident_partition_scores_minus_one(self):
        # 8 points, 4 bins, 2 points confidently per bin.
        probs = np.zeros((8, 4))
        for i in range(8):
            probs[i, i % 4] = 1.0
        cost = balance_cost(Tensor(probs), 4)
        assert cost.item() == pytest.approx(-1.0)

    def test_collapsed_partition_scores_higher(self):
        # Everything in bin 0: only window-many rows contribute per column.
        collapsed = np.zeros((8, 4))
        collapsed[:, 0] = 1.0
        balanced = np.zeros((8, 4))
        for i in range(8):
            balanced[i, i % 4] = 1.0
        assert balance_cost(Tensor(collapsed), 4).item() > balance_cost(Tensor(balanced), 4).item()

    def test_gradient_flows_only_to_window_entries(self):
        probs_data = np.full((4, 2), 0.5)
        probs_data[0, 0] = 0.9
        probs_data[0, 1] = 0.1
        logits = Tensor(np.log(probs_data), requires_grad=True)
        probs = logits.softmax(axis=-1)
        cost = balance_cost(probs, 2)
        cost.backward()
        assert logits.grad is not None
        assert np.abs(logits.grad).sum() > 0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            balance_cost(Tensor(np.zeros((4, 3))), 2)

    def test_entropy_balance_cost_minimised_by_uniform_usage(self):
        uniform = np.full((8, 4), 0.25)
        skewed = np.zeros((8, 4))
        skewed[:, 0] = 1.0
        assert (
            entropy_balance_cost(Tensor(uniform), 4).item()
            < entropy_balance_cost(Tensor(skewed), 4).item()
        )


class TestUspLoss:
    def _setup(self, n=16, m=4, k=5, seed=0):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        neighbor_bins = rng.integers(0, m, size=(n, k))
        return logits, neighbor_bins

    def test_returns_scalar_and_breakdown(self):
        logits, neighbor_bins = self._setup()
        loss, breakdown = usp_loss(logits, neighbor_bins, 4, eta=5.0)
        assert loss.data.size == 1
        assert isinstance(breakdown, LossBreakdown)
        assert breakdown.total == pytest.approx(
            breakdown.quality + 5.0 * breakdown.balance, rel=1e-9
        )

    def test_eta_zero_is_quality_only(self):
        logits, neighbor_bins = self._setup()
        loss, breakdown = usp_loss(logits, neighbor_bins, 4, eta=0.0)
        assert breakdown.balance == 0.0
        assert loss.item() == pytest.approx(breakdown.quality)

    def test_balance_term_none(self):
        logits, neighbor_bins = self._setup()
        _, breakdown = usp_loss(logits, neighbor_bins, 4, eta=5.0, balance_term="none")
        assert breakdown.balance == 0.0

    def test_entropy_balance_variant(self):
        logits, neighbor_bins = self._setup()
        _, breakdown = usp_loss(logits, neighbor_bins, 4, eta=1.0, balance_term="entropy")
        assert breakdown.balance <= 0.0

    def test_gradient_exists(self):
        logits, neighbor_bins = self._setup()
        loss, _ = usp_loss(logits, neighbor_bins, 4, eta=5.0)
        loss.backward()
        assert logits.grad is not None
        assert np.abs(logits.grad).sum() > 0

    @pytest.mark.parametrize("balance_term", ["topk", "entropy"])
    def test_gradient_matches_central_finite_differences(self, balance_term):
        """Every parameter's analytic gradient of the full loss, checked numerically.

        The paper's network in miniature (Linear, BatchNorm in training
        mode, ReLU, Linear; dropout off so the loss is a function).  The
        neighbour bins are constants, as in training.
        """
        n_bins, batch, eta = 4, 12, 5.0
        rng = np.random.default_rng(3)
        model = PartitionModel(
            build_mlp_module(6, n_bins, hidden_dim=5, dropout=0.0, rng=rng),
            dim=6,
            n_bins=n_bins,
        )
        model.train()
        points = rng.normal(size=(batch, 6))
        neighbor_bins = rng.integers(0, n_bins, size=(batch, 3))

        def loss():
            return usp_loss(
                model.forward_logits(points), neighbor_bins, n_bins, eta,
                balance_term=balance_term,
            )[0]

        # The loss is only piecewise smooth: the top-k window picks rows
        # and ReLU picks sides.  Neither choice may flip within a step.
        probabilities = np.sort(
            model.forward_logits(points).softmax(axis=-1).data, axis=0
        )
        window = batch // n_bins
        assert (probabilities[-window] - probabilities[-window - 1]).min() > 1e-3
        hidden = model.module[1](model.module[0](Tensor(points))).data
        assert np.abs(hidden).min() > 1e-3

        loss().backward()
        for parameter in model.parameters():
            original = parameter.data.copy()

            def loss_at(value):
                parameter.data[...] = value
                return loss().item()

            numeric = numerical_gradient(loss_at, original)
            parameter.data[...] = original
            # atol: the first Linear's bias has gradient exactly 0 (BatchNorm
            # subtracts the batch mean), where a relative bound means nothing
            np.testing.assert_allclose(
                parameter.grad, numeric, rtol=1e-5, atol=1e-8, err_msg=parameter.name
            )

    def test_quality_zero_when_model_matches_neighbors_exactly(self):
        # All neighbours in bin 1 and the model predicts bin 1 with certainty.
        n, m = 8, 3
        logits_data = np.full((n, m), -50.0)
        logits_data[:, 1] = 50.0
        neighbor_bins = np.ones((n, 4), dtype=int)
        _, breakdown = usp_loss(Tensor(logits_data, requires_grad=True), neighbor_bins, m, eta=0.0)
        assert breakdown.quality == pytest.approx(0.0, abs=1e-6)

    def test_weights_emphasise_rows(self):
        n, m = 4, 2
        logits_data = np.array([[5.0, -5.0]] * 3 + [[-5.0, 5.0]])
        neighbor_bins = np.zeros((n, 3), dtype=int)  # neighbours all in bin 0
        logits = Tensor(logits_data, requires_grad=True)
        _, uniform = usp_loss(logits, neighbor_bins, m, eta=0.0)
        weights = np.array([0.0, 0.0, 0.0, 10.0])  # emphasise the misplaced row
        _, weighted = usp_loss(logits, neighbor_bins, m, eta=0.0, weights=weights)
        assert weighted.quality > uniform.quality

    def test_hard_labels_option(self):
        logits, neighbor_bins = self._setup()
        _, soft = usp_loss(logits, neighbor_bins, 4, eta=0.0, soft_labels=True)
        _, hard = usp_loss(logits, neighbor_bins, 4, eta=0.0, soft_labels=False)
        assert soft.quality != pytest.approx(hard.quality)

    def test_quality_cost_weighted_mean_matches_soft_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        targets = rng.random((6, 3))
        targets /= targets.sum(axis=1, keepdims=True)
        assert quality_cost(logits, targets).item() > 0
