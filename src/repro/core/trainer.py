"""Training loop for a single USP partition model (Algorithm 1, step 2).

Each iteration samples a uniform mini-batch of dataset points, looks up
their ``k'`` nearest neighbours in the precomputed k'-NN matrix, runs a
detached forward pass on the neighbours to obtain their current bin
assignments, and minimises the USP loss on the batch with Adam.

:func:`loss_and_gradients` is the library's only training step, written
out by hand for the two architectures
:func:`~repro.core.models.build_partition_model` makes: one float64
forward/backward in plain numpy that leaves each gradient on its
``Parameter``.  It takes the target distribution rather than the
neighbours, so the same step trains Neural LSH's classifier (one-hot
graph-partition labels, no balance term).  The test suite checks it
gradient by gradient against an autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..nn import (
    Adam,
    Batch,
    BatchNorm1d,
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    UniformBatchSampler,
    clip_grad_norm,
)
from ..utils.exceptions import ConfigurationError, ValidationError
from ..utils.rng import resolve_rng
from ..utils.timing import Stopwatch
from .config import UspConfig
from .knn_matrix import KnnMatrix
from .loss import LossBreakdown, neighbor_bin_distribution
from .models import PartitionModel, build_partition_model

#: Added inside the logarithm of the entropy balance term.
_ENTROPY_EPS = 1e-12


@dataclass
class TrainingHistory:
    """Per-iteration loss values recorded during training."""

    total: List[float] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    balance: List[float] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, breakdown: LossBreakdown) -> None:
        self.total.append(breakdown.total)
        self.quality.append(breakdown.quality)
        self.balance.append(breakdown.balance)

    @property
    def n_iterations(self) -> int:
        return len(self.total)


ProgressCallback = Callable[[int, LossBreakdown], None]


def _trainable_layers(
    module: Module,
) -> Tuple[Optional[Linear], Optional[BatchNorm1d], Optional[Dropout], Linear]:
    """``(hidden, norm, dropout, head)`` of an ``mlp``; a ``logistic`` has only the head."""
    layers = list(module) if isinstance(module, Sequential) else []
    kinds = [type(layer) for layer in layers]
    biased = all(layer.bias is not None for layer in layers if isinstance(layer, Linear))
    if biased and kinds == [Linear]:
        return None, None, None, layers[0]
    if biased and kinds == [Linear, BatchNorm1d, ReLU, Dropout, Linear]:
        return layers[0], layers[1], layers[3], layers[4]
    raise ConfigurationError(
        "the training step handles Linear->BatchNorm1d->ReLU->Dropout->Linear or a "
        f"single Linear (both with bias), got {module!r}"
    )


class UspTrainer:
    """Trains one partition model on a dataset with the USP loss."""

    def __init__(self, config: UspConfig) -> None:
        self.config = config

    def train(
        self,
        points: np.ndarray,
        knn: KnnMatrix,
        *,
        model: Optional[PartitionModel] = None,
        point_weights: Optional[np.ndarray] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> tuple[PartitionModel, TrainingHistory]:
        """Run Algorithm 1 step 2 and return the trained model plus history.

        Parameters
        ----------
        points:
            ``(n, d)`` dataset ``X``.
        knn:
            The k'-NN matrix built from ``points``.
        model:
            Optionally, a pre-built model to (continue to) train; by default
            a fresh model described by the config is created.
        point_weights:
            Optional per-point boosting weights ``w_i`` (ensemble training);
            defaults to uniform weights.
        progress:
            Optional callback invoked after every iteration.
        """
        points = np.asarray(points, dtype=np.float64)
        config = self.config
        if knn.n_points != points.shape[0]:
            raise ValidationError(
                f"k'-NN matrix covers {knn.n_points} points but the dataset has {points.shape[0]}"
            )
        if point_weights is not None:
            point_weights = np.asarray(point_weights, dtype=np.float64).reshape(-1)
            if point_weights.shape[0] != points.shape[0]:
                raise ValidationError("point_weights must have one entry per dataset point")
            if point_weights.min() < 0:
                raise ValidationError("point_weights must be non-negative")

        rng = resolve_rng(config.seed)
        if model is None:
            model = build_partition_model(points.shape[1], config, rng=rng)
        _trainable_layers(model.module)  # reject a foreign module before the first step
        model.train()

        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        batch_size = config.batch_size_for(points.shape[0])
        sampler = UniformBatchSampler(points, batch_size, rng=rng)
        iterations_per_epoch = max(1, points.shape[0] // batch_size)
        history = TrainingHistory()
        stopwatch = Stopwatch()

        with stopwatch.section("train"):
            iteration = 0
            for _epoch in range(config.epochs):
                for _ in range(iterations_per_epoch):
                    batch = sampler.sample()
                    breakdown = self._step(model, optimizer, points, knn, batch, point_weights)
                    history.record(breakdown)
                    if progress is not None:
                        progress(iteration, breakdown)
                    iteration += 1
        history.seconds = stopwatch.totals().get("train", 0.0)
        model.eval()
        return model, history

    def _step(
        self,
        model: PartitionModel,
        optimizer: Adam,
        points: np.ndarray,
        knn: KnnMatrix,
        batch: Batch,
        point_weights: Optional[np.ndarray],
    ) -> LossBreakdown:
        """One optimisation step on one mini-batch."""
        config = self.config
        neighbor_indices = knn.gather(batch.indices)  # (batch, k')

        # Detached forward pass over the (unique) neighbours to obtain their
        # current most-likely bins; these act as constants in the loss.
        unique_neighbors, inverse = np.unique(neighbor_indices, return_inverse=True)
        neighbor_bin_flat = model.predict_bins(points[unique_neighbors])
        neighbor_bins = neighbor_bin_flat[inverse].reshape(neighbor_indices.shape)

        weights = None
        if point_weights is not None:
            weights = point_weights[batch.indices]
            if weights.sum() <= 0:
                weights = None

        targets = neighbor_bin_distribution(
            neighbor_bins, config.n_bins, soft=config.soft_labels
        )
        breakdown = loss_and_gradients(
            model,
            batch.points,
            targets,
            weights=weights,
            balance_term=config.balance_term,
            eta=config.eta,
        )
        if config.grad_clip is not None:
            clip_grad_norm(model.parameters(), config.grad_clip)
        optimizer.step()
        return breakdown


def loss_and_gradients(
    model: PartitionModel,
    batch_points: np.ndarray,
    targets: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    balance_term: str = "none",
    eta: float = 0.0,
) -> LossBreakdown:
    """Training-mode loss on one batch; sets ``grad`` on every parameter.

    The loss is the (``weights``-weighted) mean cross entropy of the
    model's bin distribution against ``targets`` — ``(batch, n_bins)`` rows
    that sum to one — plus ``eta`` times the ``balance_term`` (``"topk"``,
    ``"entropy"`` or ``"none"``).  With neighbour-bin targets this is the
    USP loss ``U(R) + eta * S(R)``; with one-hot labels and no balance term
    it is a supervised classifier's cross entropy.

    Draws the dropout mask from the model's own ``Dropout`` generator and
    updates the batch-norm running statistics, as a training-mode
    forward through the module would.
    """
    hidden, norm, dropout, head = _trainable_layers(model.module)
    batch = batch_points.shape[0]
    per_row = 1.0 / batch

    features = batch_points
    if hidden is not None:
        pre = batch_points @ hidden.weight.data
        pre += hidden.bias.data
        mean = pre.sum(axis=0) * per_row
        centered = pre - mean
        variance = (centered * centered).sum(axis=0) * per_row
        running = dict(norm.named_buffers())
        for name, value in (("running_mean", mean), ("running_var", variance)):
            running[name] *= 1.0 - norm.momentum
            running[name] += norm.momentum * value
        std = np.sqrt(variance + norm.eps)
        normalized = centered / std
        scaled = normalized * norm.gamma.data + norm.beta.data
        gate = (scaled > 0.0).astype(np.float64)
        if dropout.p > 0.0:
            keep = 1.0 - dropout.p
            # The layer's own generator: the mask stream a forward through it would draw.
            gate *= (dropout._rng.random(gate.shape) < keep).astype(np.float64) / keep
        features = scaled * gate

    logits = features @ head.weight.data
    logits += head.bias.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    exp_sum = exp.sum(axis=1, keepdims=True)
    probabilities = exp / exp_sum
    log_probabilities = shifted - np.log(exp_sum)

    # Quality cost: (weighted) mean cross entropy against the targets.
    row_weights = (
        np.full(batch, per_row) if weights is None else weights / float(weights.sum())
    )
    quality = float((-(log_probabilities * targets).sum(axis=1) * row_weights).sum())
    grad_log = targets * -row_weights[:, None]
    grad_logits = grad_log - probabilities * grad_log.sum(axis=1, keepdims=True)

    balance = 0.0
    total = quality
    if balance_term != "none" and eta != 0.0:
        eta = float(eta)
        if balance_term == "topk":
            window = max(1, batch // targets.shape[1])
            top_rows = np.argpartition(-probabilities, kth=window - 1, axis=0)[:window]
            grad_prob = np.zeros_like(probabilities)
            np.put_along_axis(grad_prob, top_rows, 1.0, axis=0)
            balance = float(-((probabilities * grad_prob).sum() / batch))
            grad_prob *= -eta / batch
        else:
            usage = probabilities.sum(axis=0) * per_row
            log_usage = np.log(usage + _ENTROPY_EPS)
            balance = float((usage * log_usage).sum())
            grad_prob = (log_usage + usage / (usage + _ENTROPY_EPS)) * (eta * per_row)
        inner = (grad_prob * probabilities).sum(axis=1, keepdims=True)
        grad_logits += probabilities * (grad_prob - inner)
        total = quality + balance * eta

    head.weight.grad = features.T @ grad_logits
    head.bias.grad = grad_logits.sum(axis=0)
    if hidden is not None:
        grad = grad_logits @ head.weight.data.T
        grad *= gate
        grad_beta = grad.sum(axis=0)
        grad_gamma = (grad * normalized).sum(axis=0)
        norm.beta.grad = grad_beta
        norm.gamma.grad = grad_gamma
        # Batch norm: the batch mean and variance depend on every row.
        grad -= grad_beta * per_row
        grad -= normalized * (grad_gamma * per_row)
        grad *= norm.gamma.data / std
        hidden.weight.grad = batch_points.T @ grad
        hidden.bias.grad = grad.sum(axis=0)
    return LossBreakdown(total=total, quality=quality, balance=balance)
