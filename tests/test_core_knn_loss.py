"""Tests for the k'-NN matrix, the USP loss (on the autodiff oracle) and the training step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KnnMatrix,
    LossBreakdown,
    PartitionModel,
    UspConfig,
    UspTrainer,
    build_mlp_module,
    build_knn_matrix,
    build_partition_model,
    neighbor_bin_distribution,
)
from repro.core.knn_matrix import _certified_self_join
from repro.core.trainer import loss_and_gradients
from repro.nn import Adam, Linear, Sequential, UniformBatchSampler, clip_grad_norm
from repro.utils.distances import pairwise_topk
from repro.utils.exceptions import ConfigurationError, ValidationError

from autodiff import (
    Tanh,
    Tensor,
    balance_cost,
    cross_entropy,
    entropy_balance_cost,
    forward,
    forward_logits,
    quality_cost,
    usp_loss,
)
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
        assert set(knn.indices[i].tolist()) == expected

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
                forward_logits(model, points), neighbor_bins, n_bins, eta,
                balance_term=balance_term,
            )[0]

        # The loss is only piecewise smooth: the top-k window picks rows
        # and ReLU picks sides.  Neither choice may flip within a step.
        probabilities = np.sort(
            forward_logits(model, points).softmax(axis=-1).data, axis=0
        )
        window = batch // n_bins
        assert (probabilities[-window] - probabilities[-window - 1]).min() > 1e-3
        hidden = forward(model.module[1], forward(model.module[0], points)).data
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


def exact_self_join(points, k):
    """All-pairs difference-form oracle: ids and the first ``k + 1`` squared distances."""
    diff = points[:, None, :] - points[None, :, :]
    squared = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(squared, np.inf)
    order = np.argsort(squared, axis=1, kind="stable")[:, : k + 1]
    return order[:, :k], np.take_along_axis(squared, order, axis=1)


@st.composite
def join_inputs(draw):
    kind = draw(st.sampled_from(["random", "duplicates", "offset"]))
    n = draw(st.integers(min_value=3, max_value=70))
    dim = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(6, n - 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    points = rng.normal(size=(n, dim)) * 10.0 ** draw(st.integers(min_value=-2, max_value=2))
    if kind == "duplicates":
        points = points[rng.integers(0, max(2, n // 3), size=n)]
    elif kind == "offset":
        points = draw(st.floats(min_value=1.0, max_value=1e3)) + 1e-7 * rng.normal(size=(n, dim))
    return kind, points, k


class TestCertifiedJoin:
    """``build_knn_matrix`` against the float64 reference and an all-pairs oracle."""

    @settings(max_examples=150, deadline=None)
    @given(join_inputs())
    def test_property_exact_on_random_duplicate_and_offset_inputs(self, case):
        kind, points, k = case
        n, dim = points.shape
        knn = build_knn_matrix(points, k, keep_distances=True)
        assert (knn.indices != np.arange(n)[:, None]).all()
        assert (np.diff(knn.distances, axis=1) >= 0).all()

        def same_neighbours(reference_ids, rows):
            np.testing.assert_array_equal(
                np.sort(knn.indices[rows], axis=1), np.sort(reference_ids[rows], axis=1)
            )

        # Exact: the true k nearest, wherever "the k nearest" is one set
        # (the k-th and (k+1)-th differ by more than difference-form rounding).
        oracle_ids, oracle_squared = exact_self_join(points, k)
        np.testing.assert_allclose(knn.distances**2, oracle_squared[:, :k], rtol=1e-9, atol=0)
        if k < n - 1:
            gap = oracle_squared[:, k] - oracle_squared[:, k - 1]
            same_neighbours(oracle_ids, gap > 1e-12 * oracle_squared[:, k])
        else:
            same_neighbours(oracle_ids, slice(None))

        # The float64 norm-expansion reference agrees as far as its own
        # arithmetic reaches: each of its squared distances carries up to
        # ``rounding`` of cancellation error, so that is the tolerance, set
        # from the dtype; where nothing cancels it is far below rtol=1e-9.
        ref_ids, ref_distances = pairwise_topk(points, points, min(k + 1, n - 1), exclude_self=True)
        rounding = 4 * (dim + 4) * np.finfo(np.float64).eps * (points**2).sum(axis=1).max()
        assert np.abs(knn.distances**2 - ref_distances[:, :k] ** 2).max() <= 4 * rounding
        if kind == "random" and dim >= 4:
            np.testing.assert_allclose(knn.distances, ref_distances[:, :k], rtol=1e-9, atol=1e-12)
        if k < n - 1:
            gap = ref_distances[:, k] ** 2 - ref_distances[:, k - 1] ** 2
            same_neighbours(ref_ids[:, :k], gap > 4 * rounding)

    def test_common_offset_rows_fall_back_and_stay_exact(self):
        """Coordinates near 87.21312238 differing by ~1e-7: float32 sees one point.

        This is the input on which a float32 shortlist *without* a
        certificate returns wrong neighbours; float64 norm expansion
        cannot tell the rows apart either (|x|^2 ~ 2e4 against squared
        gaps ~ 1e-13), so every row has to reach the all-pairs pass.
        """
        rng = np.random.default_rng(11)
        points = 87.21312238 + 1e-7 * rng.normal(size=(40, 3))
        indices, squared, (after_float32, after_float64) = _certified_self_join(points, 2, 1024)
        assert after_float32 == 40
        assert after_float64 == 40
        oracle_ids, oracle_squared = exact_self_join(points, 2)
        np.testing.assert_array_equal(indices, oracle_ids)
        np.testing.assert_allclose(squared, oracle_squared[:, :2], rtol=1e-12, atol=0)
        knn = build_knn_matrix(points, 2, keep_distances=True)
        np.testing.assert_array_equal(knn.indices, oracle_ids)

    def test_well_separated_rows_need_no_fallback(self, tiny_dataset):
        indices, squared, unproven = _certified_self_join(tiny_dataset.base, 8, 1024)
        assert unproven == (0, 0)
        ref_ids, ref_distances = pairwise_topk(
            tiny_dataset.base, tiny_dataset.base, 8, exclude_self=True
        )
        np.testing.assert_array_equal(indices, ref_ids)
        np.testing.assert_allclose(np.sqrt(squared), ref_distances, rtol=1e-9, atol=1e-12)

    def test_tie_group_wider_than_the_shortlist(self):
        # 30 copies of one point: no shortlist of k' + 8 can hold the tie.
        rng = np.random.default_rng(5)
        points = np.vstack([np.tile(rng.normal(size=(1, 4)), (30, 1)), rng.normal(size=(30, 4))])
        indices, squared, (after_float32, after_float64) = _certified_self_join(points, 3, 1024)
        assert after_float32 >= 30 and after_float64 >= 30
        assert (squared[:30] == 0.0).all()
        assert (indices[:30] < 30).all()
        _, oracle_squared = exact_self_join(points, 3)
        np.testing.assert_allclose(squared, oracle_squared[:, :3], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [5, 12, 13])
    def test_shortlist_covers_every_other_point(self, n):
        # k' = 4: n = 5 is the smallest legal dataset, n <= 13 leaves no row off the shortlist.
        points = np.random.default_rng(n).normal(size=(n, 3))
        indices, squared, unproven = _certified_self_join(points, 4, 1024)
        assert unproven == (0, 0)
        oracle_ids, oracle_squared = exact_self_join(points, 4)
        np.testing.assert_array_equal(indices, oracle_ids)
        np.testing.assert_allclose(squared, oracle_squared[:, :4], rtol=1e-12, atol=0)

    def test_small_blocks_give_the_same_answer(self, tiny_dataset):
        whole = build_knn_matrix(tiny_dataset.base, 5, keep_distances=True)
        blocked = build_knn_matrix(tiny_dataset.base, 5, block_size=7, keep_distances=True)
        np.testing.assert_array_equal(whole.indices, blocked.indices)
        np.testing.assert_array_equal(whole.distances, blocked.distances)

    def test_sqeuclidean_is_the_square(self, tiny_dataset):
        plain = build_knn_matrix(tiny_dataset.base, 5, keep_distances=True)
        squared = build_knn_matrix(tiny_dataset.base, 5, metric="sqeuclidean", keep_distances=True)
        np.testing.assert_array_equal(plain.indices, squared.indices)
        np.testing.assert_allclose(plain.distances**2, squared.distances, rtol=1e-14)

    def test_cosine_still_goes_through_pairwise_topk(self, tiny_dataset):
        knn = build_knn_matrix(tiny_dataset.base, 5, metric="cosine", keep_distances=True)
        ref_ids, ref_distances = pairwise_topk(
            tiny_dataset.base, tiny_dataset.base, 5, metric="cosine", exclude_self=True
        )
        np.testing.assert_array_equal(knn.indices, ref_ids)
        np.testing.assert_array_equal(knn.distances, ref_distances)
        with pytest.raises(ValueError):
            build_knn_matrix(tiny_dataset.base, 5, metric="manhattan")


def twin_models(config, dim, seed=0):
    """Two identical models, each owning an identically seeded dropout generator."""
    models = [
        build_partition_model(dim, config, rng=np.random.default_rng(seed)) for _ in range(2)
    ]
    # Move off the initialisation (gamma = 1, beta = 0, zero biases) so no
    # gradient is correct by symmetry.
    jitter = np.random.default_rng(seed + 1)
    for left, right in zip(models[0].parameters(), models[1].parameters()):
        left.data += 0.1 * jitter.normal(size=left.data.shape)
        right.data[...] = left.data
    return models


def reference_neighbor_bins(model, neighbors):
    """The neighbours' bins through the autodiff graph in eval mode."""
    model.eval()
    probabilities = forward_logits(model, neighbors).softmax(axis=-1).data
    model.train()
    return probabilities.argmax(axis=1)


def usp_step(config, model, points, neighbor_bins, weights):
    """The call ``UspTrainer`` makes into the shared step, without the optimiser."""
    targets = neighbor_bin_distribution(neighbor_bins, config.n_bins, soft=config.soft_labels)
    return loss_and_gradients(
        model, points, targets, weights=weights, balance_term=config.balance_term, eta=config.eta
    )


class TestFusedStep:
    """The hand-written training step against ``usp_loss(...).backward()`` on the tape."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("soft_labels", [True, False])
    @pytest.mark.parametrize("balance_term", ["topk", "entropy", "none"])
    @pytest.mark.parametrize("architecture", ["mlp", "logistic"])
    def test_gradients_losses_and_running_stats_match_the_reference(
        self, architecture, balance_term, soft_labels, weighted, dropout
    ):
        n_bins, batch, dim = 4, 24, 6
        config = UspConfig(
            n_bins=n_bins, model=architecture, hidden_dim=7, dropout=dropout, eta=5.0,
            soft_labels=soft_labels, balance_term=balance_term,
        )
        rng = np.random.default_rng(8)
        points = rng.normal(size=(batch, dim))
        neighbor_bins = rng.integers(0, n_bins, size=(batch, 5))
        weights = rng.random(batch) if weighted else None
        reference, fused = twin_models(config, dim)

        reference.train()
        loss, expected = usp_loss(
            forward_logits(reference, points), neighbor_bins, n_bins, config.eta,
            weights=weights, soft_labels=soft_labels, balance_term=balance_term,
        )
        loss.backward()
        fused.train()
        breakdown = usp_step(config, fused, points, neighbor_bins, weights)

        for name in ("total", "quality", "balance"):
            assert getattr(breakdown, name) == pytest.approx(getattr(expected, name), rel=1e-10, abs=1e-15)
        for (name, want), (_, got) in zip(
            reference.module.named_parameters(), fused.module.named_parameters()
        ):
            # atol: batch norm subtracts the batch mean, so the first Linear's
            # bias has gradient exactly 0 and both sides hold rounding noise.
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-10, atol=1e-14, err_msg=name)
        for (name, want), (_, got) in zip(
            reference.module.named_buffers(), fused.module.named_buffers()
        ):
            np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=name)
            assert not np.array_equal(got, np.zeros_like(got)) and not np.array_equal(got, np.ones_like(got))

    def test_zero_eta_skips_the_balance_term(self):
        config = UspConfig(n_bins=3, hidden_dim=5, dropout=0.0, eta=0.0)
        rng = np.random.default_rng(2)
        points, neighbor_bins = rng.normal(size=(9, 4)), rng.integers(0, 3, size=(9, 2))
        reference, fused = twin_models(config, 4)
        loss, expected = usp_loss(forward_logits(reference, points), neighbor_bins, 3, 0.0)
        loss.backward()
        breakdown = usp_step(config, fused, points, neighbor_bins, None)
        assert breakdown.balance == expected.balance == 0.0
        assert breakdown.total == pytest.approx(expected.total, rel=1e-10)
        for want, got in zip(reference.parameters(), fused.parameters()):
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("architecture", ["mlp", "logistic"])
    def test_one_hot_targets_match_cross_entropy(self, architecture, dropout):
        """Neural LSH's call: one-hot labels, no balance term, against ``cross_entropy``."""
        n_bins, batch, dim = 4, 24, 6
        config = UspConfig(n_bins=n_bins, model=architecture, hidden_dim=7, dropout=dropout)
        rng = np.random.default_rng(9)
        points = rng.normal(size=(batch, dim))
        labels = rng.integers(0, n_bins, size=batch)
        reference, fused = twin_models(config, dim)

        reference.train()
        loss = cross_entropy(forward_logits(reference, points), labels)
        loss.backward()
        fused.train()
        breakdown = loss_and_gradients(fused, points, np.eye(n_bins)[labels])

        assert breakdown.balance == 0.0
        assert breakdown.total == breakdown.quality == pytest.approx(loss.item(), rel=1e-10)
        for (name, want), (_, got) in zip(
            reference.module.named_parameters(), fused.module.named_parameters()
        ):
            # atol: the first Linear's bias has gradient exactly 0 under batch norm.
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-10, atol=1e-14, err_msg=name)
        for (name, want), (_, got) in zip(
            reference.module.named_buffers(), fused.module.named_buffers()
        ):
            np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=name)

    @pytest.mark.parametrize("architecture", ["mlp", "logistic"])
    def test_training_run_assigns_the_same_bins_as_an_autodiff_loop(
        self, tiny_dataset, tiny_knn, architecture
    ):
        """40 steps of ``UspTrainer.train`` against the seed's step on the autodiff graph."""
        base = tiny_dataset.base
        config = UspConfig(
            n_bins=4, k_prime=8, eta=10.0, model=architecture, hidden_dim=32, epochs=4,
            min_batch_size=60, max_batch_size=60, learning_rate=3e-3, weight_decay=1e-4, seed=5,
        )
        model, history = UspTrainer(config).train(base, tiny_knn)
        assert history.n_iterations == 40

        rng = np.random.default_rng(config.seed)
        reference = build_partition_model(base.shape[1], config, rng=rng)
        reference.train()
        optimizer = Adam(
            reference.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
        )
        sampler = UniformBatchSampler(base, config.batch_size_for(len(base)), rng=rng)
        totals = []
        for _ in range(40):
            batch = sampler.sample()
            neighbors = tiny_knn.gather(batch.indices)
            unique, inverse = np.unique(neighbors, return_inverse=True)
            neighbor_bins = reference_neighbor_bins(reference, base[unique])[inverse].reshape(
                neighbors.shape
            )
            optimizer.zero_grad()
            loss, breakdown = usp_loss(
                forward_logits(reference, batch.points), neighbor_bins, config.n_bins, config.eta
            )
            loss.backward()
            clip_grad_norm(reference.parameters(), config.grad_clip)
            optimizer.step()
            totals.append(breakdown.total)

        np.testing.assert_allclose(history.total, totals, rtol=1e-9)
        np.testing.assert_array_equal(
            model.predict_bins(base), reference_neighbor_bins(reference, base)
        )

    def test_unclipped_unweighted_decay_paths(self, tiny_dataset, tiny_knn, fast_usp_config):
        config = fast_usp_config.with_updates(epochs=1, grad_clip=None, dropout=0.0)
        model, history = UspTrainer(config).train(tiny_dataset.base, tiny_knn)
        assert np.isfinite(history.total).all()
        # All-zero boosting weights fall back to the unweighted loss.
        _, zero_weighted = UspTrainer(config).train(
            tiny_dataset.base, tiny_knn, point_weights=np.zeros(tiny_dataset.n_points)
        )
        np.testing.assert_array_equal(zero_weighted.total, history.total)

    def test_rejects_a_module_it_has_no_step_for(self, tiny_dataset, tiny_knn, fast_usp_config):
        dim = tiny_dataset.base.shape[1]
        for module in (
            Sequential(Linear(dim, 8), Tanh(), Linear(8, 4)),
            Sequential(Linear(dim, 4, bias=False)),
            Linear(dim, 4),
        ):
            model = PartitionModel(module, dim=dim, n_bins=4)
            with pytest.raises(ConfigurationError):
                UspTrainer(fast_usp_config).train(tiny_dataset.base, tiny_knn, model=model)
