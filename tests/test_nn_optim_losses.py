"""Tests for the optimiser, the oracle's losses and batching."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    EpochBatchIterator,
    Linear,
    Sequential,
    UniformBatchSampler,
    clip_grad_norm,
)

from autodiff import (
    Tensor,
    as_tensor,
    binary_cross_entropy_with_logits,
    cross_entropy,
    forward,
    mse_loss,
    soft_cross_entropy,
)


def quadratic_loss(param):
    return ((as_tensor(param) - Tensor(np.array([3.0, -2.0]))) ** 2).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        from repro.nn.layers import Parameter

        param = Parameter(np.zeros(2))
        optimizer = Adam([param], lr=0.2)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        from repro.nn.layers import Parameter

        used = Parameter(np.zeros(1))
        unused = Parameter(np.array([5.0]))
        optimizer = Adam([used, unused], lr=0.1)
        optimizer.zero_grad()
        (as_tensor(used) * 2.0).sum().backward()
        optimizer.step()
        assert unused.data[0] == 5.0

    def test_invalid_betas(self):
        from repro.nn.layers import Parameter

        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.5, 0.9))

    def test_invalid_lr(self):
        from repro.nn.layers import Parameter

        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_trains_small_classifier(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 5))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        net = Sequential(Linear(5, 16, rng=1), Linear(16, 2, rng=2))
        optimizer = Adam(net.parameters(), lr=0.05)
        for _ in range(100):
            optimizer.zero_grad()
            loss = cross_entropy(forward(net, x), y)
            loss.backward()
            optimizer.step()
        predictions = forward(net, x).data.argmax(axis=1)
        assert (predictions == y).mean() > 0.9


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        from repro.nn.layers import Parameter

        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-6)

    def test_leaves_small_gradients(self):
        from repro.nn.layers import Parameter

        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        clip_grad_norm([param], max_norm=5.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])

    def test_empty_parameters(self):
        assert clip_grad_norm([], 1.0) == 0.0


class TestLosses:
    def test_soft_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]))
        targets = np.array([[0.2, 0.5, 0.3]])
        log_probs = logits.log_softmax().data
        expected = -(targets * log_probs).sum()
        assert soft_cross_entropy(logits, targets).item() == pytest.approx(expected)

    def test_soft_cross_entropy_weighted(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        targets = np.array([[1.0, 0.0], [1.0, 0.0]])
        uniform = soft_cross_entropy(logits, targets).item()
        # Weighting the well-classified row more should lower the loss.
        weighted = soft_cross_entropy(logits, targets, weights=np.array([10.0, 0.1])).item()
        assert weighted < uniform

    def test_soft_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            soft_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 2)))

    def test_soft_cross_entropy_bad_weights(self):
        logits = Tensor(np.zeros((2, 2)))
        targets = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            soft_cross_entropy(logits, targets, weights=np.zeros(3))
        with pytest.raises(ValueError):
            soft_cross_entropy(logits, targets, weights=np.zeros(2))

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        assert cross_entropy(logits, np.array([0, 1])).item() < 1e-4

    def test_cross_entropy_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_mse_loss(self):
        pred = Tensor(np.array([[1.0, 2.0]]))
        assert mse_loss(pred, np.array([[0.0, 0.0]])).item() == pytest.approx(2.5)

    def test_bce_with_logits_extremes(self):
        logits = Tensor(np.array([[20.0], [-20.0]]))
        targets = np.array([[1.0], [0.0]])
        assert binary_cross_entropy_with_logits(logits, targets).item() < 1e-4


class TestBatching:
    def test_uniform_sampler_respects_size(self):
        points = np.random.default_rng(0).normal(size=(100, 3))
        sampler = UniformBatchSampler(points, 16, rng=0)
        batch = sampler.sample()
        assert batch.indices.shape == (16,)
        assert batch.points.shape == (16, 3)
        np.testing.assert_array_equal(batch.points, points[batch.indices])

    def test_uniform_sampler_no_duplicates_within_batch(self):
        sampler = UniformBatchSampler(np.zeros((50, 2)), 30, rng=0)
        batch = sampler.sample()
        assert len(np.unique(batch.indices)) == 30

    def test_uniform_sampler_caps_at_dataset_size(self):
        sampler = UniformBatchSampler(np.zeros((10, 2)), 100, rng=0)
        assert sampler.batch_size == 10

    def test_epoch_iterator_covers_every_point(self):
        points = np.arange(20, dtype=float).reshape(10, 2)
        iterator = EpochBatchIterator(points, 3, rng=0)
        batches = list(iterator)
        seen = np.concatenate([b.indices for b in batches])
        assert sorted(seen.tolist()) == list(range(10))
        assert len(batches) == 4

    def test_epoch_iterator_reshuffles_each_epoch(self):
        iterator = EpochBatchIterator(np.zeros((30, 2)), 30, rng=0)
        (first,), (second,) = list(iterator), list(iterator)
        assert sorted(first.indices.tolist()) == sorted(second.indices.tolist()) == list(range(30))
        assert first.indices.tolist() != second.indices.tolist()
