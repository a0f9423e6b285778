"""The test suite's oracle: a reverse-mode autodiff tape and the losses on it.

The library trains every partition model with one closed-form step,
:func:`repro.core.trainer.loss_and_gradients`.  This module is what that
step is checked against: a small define-by-run autodiff engine on numpy
arrays (the stand-in for PyTorch's autograd, which the paper trains with),
the layers' forward passes written on it, and the paper's losses as
compositions of its primitives.  It covers

* elementwise arithmetic with numpy-style broadcasting,
* matrix multiplication,
* ``exp`` / ``log`` / ``sqrt`` / ``relu`` / ``tanh`` / ``sigmoid``,
* reductions (``sum`` / ``mean`` / ``max``) over an optional axis,
* ``log_softmax`` / ``softmax`` (implemented stably as primitives),
* shape ops (``reshape`` / ``transpose``) and row gathering.

Gradients are accumulated by a topological-order backward pass over the
recorded graph.  A :class:`repro.nn.Parameter` enters the graph as a leaf
that accumulates into ``param.grad``, so a model trained through this tape
and one trained by the library hold their gradients in the same place.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.loss import LossBreakdown, neighbor_bin_distribution
from repro.nn import BatchNorm1d, Dropout, Linear, Module, Parameter, ReLU, Sequential
from repro.utils.exceptions import ValidationError

ArrayLike = Union["Tensor", Parameter, np.ndarray, float, int]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return as_tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad @ other.data.T)
            other._accumulate(self.data.T @ grad)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(np.float64)
            # Split gradient evenly between ties, as PyTorch does for amax.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # softmax family
    # ------------------------------------------------------------------ #
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum_exp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum_exp
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-compatible alias
        return self.transpose()

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows ``self[indices]`` with scatter-add backward."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order: List[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    order.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class _ParameterLeaf(Tensor):
    """A :class:`Parameter` on the tape: shares its data, accumulates into ``param.grad``."""

    __slots__ = ("param",)

    def __init__(self, param: Parameter) -> None:
        super().__init__(param.data, requires_grad=True, name=param.name)
        self.param = param

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if self.param.grad is None:
            self.param.grad = grad.copy()
        else:
            self.param.grad += grad


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one).

    A :class:`Parameter` becomes a leaf whose gradient lands on the parameter.
    """
    if isinstance(value, Tensor):
        return value
    if isinstance(value, Parameter):
        return _ParameterLeaf(value)
    return Tensor(value, requires_grad=requires_grad)


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor along a new leading axis."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=0)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors))

    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            for i, t in enumerate(tensors):
                t._accumulate(grad[i])

        out._parents = tuple(tensors)
        out._backward = backward
    return out


# ---------------------------------------------------------------------- #
# the layers' forward passes
# ---------------------------------------------------------------------- #
class Tanh(Module):
    """Hyperbolic tangent activation (forward only; no library step trains it)."""

    def __repr__(self) -> str:
        return "Tanh()"


class Softmax(Module):
    """Softmax over the last axis (forward only)."""

    def __repr__(self) -> str:
        return "Softmax()"


def forward(module: Module, x: ArrayLike) -> Tensor:
    """``module`` applied to ``x`` on the tape, in the module's current mode.

    A training-mode ``BatchNorm1d`` updates its running statistics and a
    training-mode ``Dropout`` draws its mask from its own generator, as the
    library's training step does.  A module of any other type supplies its
    own ``forward(x)``.
    """
    x = as_tensor(x)
    if isinstance(module, Sequential):
        for layer in module:
            x = forward(layer, x)
        return x
    if isinstance(module, Linear):
        out = x @ module.weight
        return out if module.bias is None else out + module.bias
    if isinstance(module, ReLU):
        return x.relu()
    if isinstance(module, Tanh):
        return x.tanh()
    if isinstance(module, Softmax):
        return x.softmax(axis=-1)
    if isinstance(module, Dropout):
        if not module.training or module.p == 0.0:
            return x
        keep = 1.0 - module.p
        mask = (module._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)
    if isinstance(module, BatchNorm1d):
        return _batch_norm(module, x)
    return module.forward(x)


def _batch_norm(module: BatchNorm1d, x: Tensor) -> Tensor:
    running_mean = module._buffers["running_mean"]
    running_var = module._buffers["running_var"]
    if module.training:
        mean = x.mean(axis=0, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=0, keepdims=True)
        # update running statistics with detached batch statistics
        running_mean *= 1.0 - module.momentum
        running_mean += module.momentum * mean.data.reshape(-1)
        running_var *= 1.0 - module.momentum
        running_var += module.momentum * var.data.reshape(-1)
        normalized = centered / (var + module.eps).sqrt()
    else:
        mean = Tensor(running_mean[None, :])
        var = Tensor(running_var[None, :])
        normalized = (x - mean) / (var + module.eps).sqrt()
    return normalized * module.gamma + module.beta


def forward_logits(model, points: np.ndarray) -> Tensor:
    """A :class:`repro.core.PartitionModel`'s logits on the tape, in its current mode."""
    return forward(model.module, Tensor(np.asarray(points, dtype=np.float64)))


# ---------------------------------------------------------------------- #
# generic losses
# ---------------------------------------------------------------------- #
def soft_cross_entropy(
    logits: Tensor,
    soft_targets: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross entropy between row-wise soft target distributions and logits.

    Returns the (weighted) mean over rows of
    ``-sum_j targets[i, j] * log_softmax(logits)[i, j]``; ``weights`` are
    optional per-row weights (the ensemble boosting weights of Eq. 14).
    """
    soft_targets = np.asarray(soft_targets, dtype=np.float64)
    if soft_targets.shape != logits.shape:
        raise ValueError(
            f"soft_targets shape {soft_targets.shape} does not match logits {logits.shape}"
        )
    log_probs = logits.log_softmax(axis=-1)
    per_row = -(log_probs * Tensor(soft_targets)).sum(axis=1)
    if weights is None:
        return per_row.mean()
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.shape[0] != logits.shape[0]:
        raise ValueError(
            f"weights length {weights.shape[0]} does not match batch {logits.shape[0]}"
        )
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    normalized = weights / total
    return (per_row * Tensor(normalized)).sum()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Hard-label cross entropy (the Neural LSH classifier's loss)."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n_classes = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels out of range for the given logits")
    one_hot = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    one_hot[np.arange(labels.shape[0]), labels] = 1.0
    return soft_cross_entropy(logits, one_hot)


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=np.float64)
    diff = prediction - Tensor(target)
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross entropy on logits, with the probabilities clamped away from 0 and 1."""
    targets = np.asarray(targets, dtype=np.float64)
    probs_pos = logits.sigmoid()
    eps = 1e-12
    term_pos = (probs_pos + eps).log() * Tensor(targets)
    term_neg = (1.0 - probs_pos + eps).log() * Tensor(1.0 - targets)
    return -(term_pos + term_neg).mean()


# ---------------------------------------------------------------------- #
# the USP loss (Section 4.2.2)
# ---------------------------------------------------------------------- #
def quality_cost(
    logits: Tensor,
    soft_targets: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Quality cost ``U(R)`` for a batch (Eq. 10, weighted form Eq. 14)."""
    return soft_cross_entropy(logits, soft_targets, weights=weights)


def balance_cost(probabilities: Tensor, n_bins: int) -> Tensor:
    """Computation cost ``S(R)`` for a batch (Eq. 12–13), normalised to [-1, 0].

    The window ``w`` keeps the top ``batch/m`` probabilities per bin column;
    the cost is the negated window sum divided by the batch size, so a
    perfectly balanced, perfectly confident partition scores exactly ``-1``.
    """
    batch = probabilities.shape[0]
    if probabilities.ndim != 2 or probabilities.shape[1] != n_bins:
        raise ValidationError(
            f"probabilities must have shape (batch, {n_bins}), got {probabilities.shape}"
        )
    window = max(1, batch // n_bins)
    values = probabilities.data
    mask = np.zeros_like(values)
    # Select the `window` largest entries in each column.
    top_rows = np.argpartition(-values, kth=window - 1, axis=0)[:window, :]
    cols = np.tile(np.arange(n_bins), (window, 1))
    mask[top_rows, cols] = 1.0
    selected = probabilities * Tensor(mask)
    return -(selected.sum() / float(batch))


def entropy_balance_cost(probabilities: Tensor, n_bins: int) -> Tensor:
    """Ablation alternative to the paper's window cost.

    Negated entropy of the *average* bin assignment distribution; maximal
    entropy (uniform usage of all bins) gives the minimum value
    ``-log(n_bins)``.
    """
    if probabilities.ndim != 2 or probabilities.shape[1] != n_bins:
        raise ValidationError(
            f"probabilities must have shape (batch, {n_bins}), got {probabilities.shape}"
        )
    mean_assignment = probabilities.mean(axis=0)
    eps = 1e-12
    return (mean_assignment * (mean_assignment + eps).log()).sum()


def usp_loss(
    logits: Tensor,
    neighbor_bins: np.ndarray,
    n_bins: int,
    eta: float,
    *,
    weights: Optional[np.ndarray] = None,
    soft_labels: bool = True,
    balance_term: str = "topk",
) -> tuple[Tensor, LossBreakdown]:
    """Combined USP objective ``U(R) + eta * S(R)`` (Eq. 5) for one batch.

    ``neighbor_bins`` holds the ``(batch, k')`` most-likely bins of each
    batch point's neighbours (constants w.r.t. the loss); ``soft_labels``
    picks the neighbour bin distribution (paper) or the majority bin only;
    ``balance_term`` is ``"topk"`` (paper), ``"entropy"`` or ``"none"``.
    Returns the scalar tensor to backpropagate and its detached components.
    """
    targets = neighbor_bin_distribution(neighbor_bins, n_bins, soft=soft_labels)
    quality = quality_cost(logits, targets, weights=weights)
    if balance_term == "none" or eta == 0.0:
        balance = Tensor(0.0)
        total = quality
    else:
        probabilities = logits.softmax(axis=-1)
        if balance_term == "topk":
            balance = balance_cost(probabilities, n_bins)
        elif balance_term == "entropy":
            balance = entropy_balance_cost(probabilities, n_bins)
        else:
            raise ValidationError(f"unknown balance_term {balance_term!r}")
        total = quality + balance * float(eta)
    breakdown = LossBreakdown(
        total=float(total.data),
        quality=float(quality.data),
        balance=float(balance.data),
    )
    return total, breakdown
