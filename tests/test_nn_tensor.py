"""Tests for the test suite's autodiff oracle (tests/autodiff.py).

Every differentiable op is validated against a central-difference numerical
gradient; additional tests cover broadcasting, graph traversal, and the API
surface (detach/item/reshape/...).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodiff import Tensor, as_tensor, stack_rows


def numerical_gradient(fn, value, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += eps
        minus[i] -= eps
        grad_flat[i] = (fn(plus.reshape(value.shape)) - fn(minus.reshape(value.shape))) / (2 * eps)
    return grad


def check_gradient(build, value, atol=1e-5):
    """Compare autodiff and numerical gradients for ``loss = build(Tensor)``."""
    tensor = Tensor(value, requires_grad=True)
    loss = build(tensor)
    loss.backward()
    numeric = numerical_gradient(lambda v: float(build(Tensor(v, requires_grad=True)).data), value)
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


RNG = np.random.default_rng(0)


class TestBasicOps:
    def test_add_gradient(self):
        x = RNG.normal(size=(3, 4))
        check_gradient(lambda t: (t + 2.0).sum(), x)

    def test_sub_gradient(self):
        x = RNG.normal(size=(3, 4))
        check_gradient(lambda t: (5.0 - t).sum(), x)

    def test_mul_gradient(self):
        x = RNG.normal(size=(2, 5))
        other = RNG.normal(size=(2, 5))
        check_gradient(lambda t: (t * other).sum(), x)

    def test_div_gradient(self):
        x = RNG.normal(size=(4,)) + 3.0
        check_gradient(lambda t: (10.0 / t).sum(), x)

    def test_pow_gradient(self):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
        check_gradient(lambda t: (t**3).sum(), x)

    def test_neg_gradient(self):
        x = RNG.normal(size=(4,))
        check_gradient(lambda t: (-t).sum(), x)

    def test_matmul_gradient_left(self):
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda t: (t @ w).sum(), x)

    def test_matmul_gradient_right(self):
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), w)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestElementwiseFunctions:
    def test_exp_gradient(self):
        check_gradient(lambda t: t.exp().sum(), RNG.normal(size=(3, 3)))

    def test_log_gradient(self):
        check_gradient(lambda t: t.log().sum(), np.abs(RNG.normal(size=(5,))) + 0.5)

    def test_sqrt_gradient(self):
        check_gradient(lambda t: t.sqrt().sum(), np.abs(RNG.normal(size=(5,))) + 0.5)

    def test_relu_gradient(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.05] = 0.3  # keep away from the kink
        check_gradient(lambda t: t.relu().sum(), x)

    def test_relu_zeroes_negatives(self):
        out = Tensor([[-1.0, 2.0]]).relu()
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_tanh_gradient(self):
        check_gradient(lambda t: t.tanh().sum(), RNG.normal(size=(3, 2)))

    def test_sigmoid_gradient(self):
        check_gradient(lambda t: t.sigmoid().sum(), RNG.normal(size=(6,)))


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis0(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis1_keepdims(self):
        check_gradient(
            lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), RNG.normal(size=(3, 4))
        )

    def test_mean_gradient(self):
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), RNG.normal(size=(5, 3)))

    def test_mean_value(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        assert Tensor(x).mean().item() == pytest.approx(x.mean())

    def test_max_gradient_flows_to_argmax(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 1] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_max_splits_gradient_between_ties(self):
        x = np.array([[2.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestSoftmaxFamily:
    def test_log_softmax_gradient(self):
        x = RNG.normal(size=(4, 6))
        target = RNG.random((4, 6))
        check_gradient(lambda t: -(t.log_softmax(axis=-1) * target).sum(), x)

    def test_softmax_gradient(self):
        x = RNG.normal(size=(3, 5))
        weights = RNG.random((3, 5))
        check_gradient(lambda t: (t.softmax(axis=-1) * weights).sum(), x)

    def test_softmax_rows_sum_to_one(self):
        probs = Tensor(RNG.normal(size=(10, 7)) * 10).softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(10), atol=1e-12)

    def test_log_softmax_stable_for_large_logits(self):
        out = Tensor([[1e5, 0.0, -1e5]]).log_softmax(axis=-1)
        assert np.isfinite(out.data).all()

    def test_softmax_matches_log_softmax_exp(self):
        x = RNG.normal(size=(4, 4))
        np.testing.assert_allclose(
            Tensor(x).softmax().data, np.exp(Tensor(x).log_softmax().data), atol=1e-12
        )


class TestBroadcasting:
    def test_add_bias_broadcast(self):
        x = RNG.normal(size=(5, 3))
        bias = RNG.normal(size=(3,))
        t = Tensor(bias, requires_grad=True)
        (Tensor(x) + t).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 5.0))

    def test_scalar_times_matrix(self):
        t = Tensor(2.0, requires_grad=True)
        (t * Tensor(np.ones((3, 3)))).sum().backward()
        assert t.grad == pytest.approx(9.0)

    def test_column_broadcast(self):
        col = Tensor(np.ones((4, 1)), requires_grad=True)
        (col * Tensor(np.ones((4, 5)))).sum().backward()
        np.testing.assert_allclose(col.grad, np.full((4, 1), 5.0))


class TestShapeOps:
    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose_gradient(self):
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda t: (t.T @ w).sum(), RNG.normal(size=(4, 3)))

    def test_take_rows_gradient_scatter_adds(self):
        t = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        t.take_rows(np.array([0, 0, 2])).sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(t.grad, expected)


class TestGraphAndApi:
    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_gradient_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * 3.0 + t * 4.0
        y.sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array([1.5]), requires_grad=True)
        a = t * 2.0
        b = t * 3.0
        (a * b).sum().backward()
        # d/dt (6 t^2) = 12 t
        np.testing.assert_allclose(t.grad, [18.0])

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        loss = (t * Tensor(d.data)).sum()
        loss.backward()
        np.testing.assert_allclose(t.grad, np.ones(3))

    def test_item_and_len_and_repr(self):
        t = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        assert len(t) == 1
        assert "requires_grad" in repr(t)
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_stack_rows_gradients(self):
        rows = [Tensor(np.ones(3), requires_grad=True) for _ in range(4)]
        stacked = stack_rows(rows)
        assert stacked.shape == (4, 3)
        (stacked * 2.0).sum().backward()
        for row in rows:
            np.testing.assert_allclose(row.grad, np.full(3, 2.0))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    def test_property_softmax_is_distribution(self, values):
        probs = Tensor(np.array(values)).softmax(axis=-1).data
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    def test_property_sum_linearity(self, values):
        x = np.array(values)
        t = Tensor(x, requires_grad=True)
        (t * 2.0 + 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 2.0))
