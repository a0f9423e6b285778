"""Tests for repro.nn.layers and repro.nn.init (forward passes via the autodiff oracle)."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    glorot_uniform,
)

from autodiff import Softmax, Tanh, forward


class TestInitializers:
    def test_glorot_uniform_bounds(self):
        w = glorot_uniform(100, 50, rng=0)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= limit

    def test_initializers_reproducible(self):
        np.testing.assert_array_equal(glorot_uniform(5, 5, rng=3), glorot_uniform(5, 5, rng=3))


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(4, 3, rng=0)
        x = np.ones((2, 4))
        out = forward(layer, x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_parameter_count(self):
        assert Linear(10, 5, rng=0).num_parameters() == 55

    def test_gradients_reach_weight_and_bias(self):
        layer = Linear(3, 2, rng=0)
        out = forward(layer, np.random.default_rng(0).normal(size=(5, 3)))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 5.0))


class TestActivationsAndDropout:
    def test_relu_module(self):
        out = forward(ReLU(), np.array([[-1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0]])

    def test_tanh_module(self):
        out = forward(Tanh(), np.zeros((1, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_softmax_module_rows_sum_to_one(self):
        out = forward(Softmax(), np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_dropout_identity_in_eval(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = np.random.default_rng(0).normal(size=(10, 10))
        np.testing.assert_array_equal(forward(layer, x).data, x)

    def test_dropout_scales_in_train(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((2000, 10))
        out = forward(layer, x).data
        # Inverted dropout keeps the expectation: mean stays near 1.
        assert out.mean() == pytest.approx(1.0, abs=0.1)
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_dropout_zero_probability_is_identity(self):
        layer = Dropout(0.0)
        x = np.ones((3, 3))
        np.testing.assert_array_equal(forward(layer, x).data, x)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalizes_batch_in_training(self):
        bn = BatchNorm1d(4)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(256, 4))
        out = forward(bn, x).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-2)

    def test_running_stats_updated(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = np.full((8, 2), 10.0)
        forward(bn, x)
        assert bn._buffers["running_mean"][0] == pytest.approx(5.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2, momentum=1.0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 2)) * 2 + 3
        forward(bn, x)  # one training pass sets running stats
        bn.eval()
        out = forward(bn, x).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(2), atol=0.1)

    def test_gradients_flow_to_gamma_beta(self):
        bn = BatchNorm1d(3)
        out = forward(bn, np.random.default_rng(0).normal(size=(16, 3)))
        out.sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestModuleAndSequential:
    def _small_net(self):
        return Sequential(Linear(4, 8, rng=0), BatchNorm1d(8), ReLU(), Linear(8, 3, rng=1))

    def test_parameters_recursion(self):
        net = self._small_net()
        # 4*8+8 + (8+8) + 8*3+3 = 40 + 16 + 27
        assert net.num_parameters() == 83
        assert len(net.parameters()) == 6

    def test_named_parameters_have_prefixes(self):
        names = dict(self._small_net().named_parameters())
        assert "0.weight" in names and "3.bias" in names

    def test_train_eval_propagates(self):
        net = self._small_net()
        net.eval()
        assert all(not m.training for m in net)
        net.train()
        assert all(m.training for m in net)

    def test_zero_grad_clears(self):
        net = self._small_net()
        forward(net, np.ones((4, 4))).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_sequential_iteration_and_indexing(self):
        net = self._small_net()
        assert len(net) == 4
        assert isinstance(net[0], Linear)
        assert isinstance(list(net)[2], ReLU)

    def test_state_dict_roundtrip(self):
        net = self._small_net()
        other = self._small_net()
        # Perturb and restore.
        state = net.state_dict()
        for p in other.parameters():
            p.data += 1.0
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_rejects_unknown_key(self):
        net = self._small_net()
        with pytest.raises(KeyError):
            net.load_state_dict({"nope.weight": np.zeros((2, 2))})

    def test_load_state_dict_rejects_bad_shape(self):
        net = self._small_net()
        state = net.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    @pytest.mark.parametrize("key", ["0.weight", "__buffer__.1.running_mean"])
    def test_load_state_dict_rejects_a_missing_key(self, key):
        net = self._small_net()
        state = net.state_dict()
        del state[key]
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_a_bad_buffer_shape_and_writes_nothing(self):
        net = self._small_net()
        before = net.state_dict()
        state = {name: value + 1.0 for name, value in before.items()}
        state["__buffer__.1.running_var"] = np.ones(1)  # would broadcast into (8,)
        with pytest.raises(ValueError):
            net.load_state_dict(state)
        for name, value in net.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_custom_module_registration(self):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.scale = Parameter(np.array([2.0]))
                self.inner = Linear(2, 2, rng=0)

            def forward(self, x):
                return forward(self.inner, x) * self.scale

        module = Custom()
        assert len(module.parameters()) == 3
        out = forward(module, np.ones((1, 2)))
        out.sum().backward()
        assert module.scale.grad is not None
