"""Partition models (Section 5.2).

Two architectures are used in the paper:

* a small neural network — Linear → BatchNorm → ReLU → Dropout → Linear —
  with a softmax output over the ``m`` bins, and
* a plain logistic regression (softmax regression) model, used for the
  hyperplane/tree comparison where each model splits the data into 2 bins.

Both are wrapped in :class:`PartitionModel`, which adds batched inference
helpers that return numpy bin probabilities for the lookup table and the
query path.  Inference folds the eval-mode module into plain float64
affine stages once per call; training is
:func:`repro.core.trainer.loss_and_gradients`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..nn import BatchNorm1d, Dropout, Linear, Module, ReLU, Sequential
from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike, resolve_rng
from .config import UspConfig


def _eval_stages(module: Module) -> List[Tuple[np.ndarray, np.ndarray, bool]]:
    """``module`` in eval mode as ``(weight, bias, relu_after)`` affine stages.

    Eval-mode batch norm is an affine map of its input, so it folds into the
    ``Linear`` it follows; dropout is the identity.
    """
    if not isinstance(module, Sequential):
        raise ConfigurationError(f"expected a Sequential partition module, got {module!r}")
    stages: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    for layer in module:
        if isinstance(layer, Linear):
            bias = np.zeros(layer.out_features) if layer.bias is None else layer.bias.data
            stages.append((layer.weight.data, bias, False))
        elif isinstance(layer, BatchNorm1d) and stages and not stages[-1][2]:
            weight, bias, _ = stages[-1]
            buffers = dict(layer.named_buffers())
            scale = layer.gamma.data / np.sqrt(buffers["running_var"] + layer.eps)
            stages[-1] = (
                weight * scale,
                (bias - buffers["running_mean"]) * scale + layer.beta.data,
                False,
            )
        elif isinstance(layer, ReLU) and stages:
            stages[-1] = (*stages[-1][:2], True)
        elif not isinstance(layer, Dropout):
            raise ConfigurationError(f"no affine eval-mode form for {layer!r} of {module!r}")
    if not stages:
        raise ConfigurationError(f"{module!r} has no Linear layer")
    return stages


class PartitionModel:
    """A trainable model mapping points in R^d to a distribution over bins."""

    def __init__(self, module: Module, dim: int, n_bins: int) -> None:
        self.module = module
        self.dim = int(dim)
        self.n_bins = int(n_bins)

    # -- training-side API ------------------------------------------------ #
    def parameters(self):
        return self.module.parameters()

    def num_parameters(self) -> int:
        """Learnable parameter count (reported in the paper's Table 2)."""
        return self.module.num_parameters()

    def train(self) -> None:
        self.module.train()

    def eval(self) -> None:
        self.module.eval()

    # -- inference-side API ------------------------------------------------ #
    def _predict_logits(self, points: np.ndarray, batch_size: int) -> np.ndarray:
        """Eval-mode logits for each row of ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ConfigurationError(
                f"points have dimension {points.shape[1]}, model expects {self.dim}"
            )
        stages = _eval_stages(self.module)
        logits = np.empty((points.shape[0], self.n_bins), dtype=np.float64)
        for start in range(0, points.shape[0], batch_size):
            hidden = points[start : start + batch_size]
            for weight, bias, relu in stages:
                hidden = hidden @ weight
                hidden += bias
                if relu:
                    np.maximum(hidden, 0.0, out=hidden)
            logits[start : start + hidden.shape[0]] = hidden
        return logits

    def predict_proba(self, points: np.ndarray, *, batch_size: int = 4096) -> np.ndarray:
        """Bin probability distribution for each row of ``points`` (eval mode)."""
        out = self._predict_logits(points, batch_size)
        out -= out.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
        return out

    def predict_bins(self, points: np.ndarray, *, batch_size: int = 4096) -> np.ndarray:
        """Most likely bin for each row of ``points``."""
        return self._predict_logits(points, batch_size).argmax(axis=1)

    def state_dict(self):
        return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        self.module.load_state_dict(state)


def build_mlp_module(
    dim: int,
    n_bins: int,
    *,
    hidden_dim: int = 128,
    dropout: float = 0.1,
    rng: SeedLike = None,
) -> Module:
    """The paper's neural network: one hidden block plus a softmax head.

    The softmax itself is applied inside the loss (``log_softmax``) and in
    :meth:`PartitionModel.predict_proba`; the module outputs logits.
    """
    rng = resolve_rng(rng)
    return Sequential(
        Linear(dim, hidden_dim, rng=rng),
        BatchNorm1d(hidden_dim),
        ReLU(),
        Dropout(dropout, rng=rng),
        Linear(hidden_dim, n_bins, rng=rng),
    )


def build_logistic_module(dim: int, n_bins: int, *, rng: SeedLike = None) -> Module:
    """Softmax (multinomial logistic) regression: a single linear layer."""
    return Sequential(Linear(dim, n_bins, rng=resolve_rng(rng)))


def build_partition_model(dim: int, config: UspConfig, *, rng: SeedLike = None) -> PartitionModel:
    """Construct the model described by ``config`` for ``dim``-dimensional data."""
    rng = resolve_rng(rng if rng is not None else config.seed)
    if config.model == "mlp":
        module = build_mlp_module(
            dim,
            config.n_bins,
            hidden_dim=config.hidden_dim,
            dropout=config.dropout,
            rng=rng,
        )
    elif config.model == "logistic":
        module = build_logistic_module(dim, config.n_bins, rng=rng)
    else:  # pragma: no cover - guarded by UspConfig validation
        raise ConfigurationError(f"unknown model type {config.model!r}")
    return PartitionModel(module, dim=dim, n_bins=config.n_bins)
