"""Parameter initialisation schemes.

The paper initialises both the neural network and the logistic regression
model with Glorot (Xavier) initialisation.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import SeedLike, resolve_rng


def glorot_uniform(fan_in: int, fan_out: int, rng: SeedLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a ``(fan_in, fan_out)`` matrix."""
    rng = resolve_rng(rng)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    """All-zeros initialisation (used for biases and BatchNorm shift)."""
    return np.zeros(shape, dtype=np.float64)


def ones(*shape: int) -> np.ndarray:
    """All-ones initialisation (used for BatchNorm scale)."""
    return np.ones(shape, dtype=np.float64)

