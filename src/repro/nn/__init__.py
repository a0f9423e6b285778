"""Numpy-based neural network substrate (parameters, layers, optimisers).

This subpackage replaces PyTorch for the reproduction: it provides exactly
the pieces the paper's models need — parameters, fully connected layers
with batch normalisation and dropout, Glorot initialisation, the Adam
optimiser, gradient clipping and mini-batch sampling.  There is no
autodiff engine: :func:`repro.core.trainer.loss_and_gradients` computes
every gradient the library trains with in closed form.
"""

from .init import glorot_uniform, ones, zeros
from .layers import (
    BatchNorm1d,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .optim import Adam, Optimizer, clip_grad_norm
from .data import Batch, EpochBatchIterator, UniformBatchSampler

__all__ = [
    "glorot_uniform",
    "ones",
    "zeros",
    "BatchNorm1d",
    "Dropout",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "Batch",
    "EpochBatchIterator",
    "UniformBatchSampler",
]
