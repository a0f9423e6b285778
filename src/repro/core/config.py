"""Configuration objects for the USP partitioner.

The fields mirror the tunable parameters listed in Section 5.1.4 of the
paper: ``k'`` (neighbours in the k'-NN matrix), ``m`` (number of bins),
``e`` (ensemble size), model complexity (hidden size / architecture), and
``eta`` (the balance weight in the loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class UspConfig:
    """Hyper-parameters for training a single USP partition model.

    Parameters
    ----------
    n_bins:
        ``m`` — number of bins the dataset is partitioned into.
    k_prime:
        ``k'`` — neighbours per point in the k'-NN matrix (paper default 10).
    eta:
        Balance weight in the loss ``U(R) + eta * S(R)`` (paper Table 3 uses
        7–30 depending on dataset/bins).
    model:
        ``"mlp"`` (the paper's small neural network: one hidden layer with
        batch norm, ReLU and dropout) or ``"logistic"`` (plain softmax
        regression, used for the hyperplane/tree experiments).
    hidden_dim:
        Hidden layer width for the MLP (paper uses 128).
    dropout:
        Dropout probability (paper uses 0.1).
    epochs:
        Number of passes over the dataset (paper trains ~100 epochs for the
        MLP and <50 for logistic regression; the defaults here are smaller
        because the reproduction datasets are smaller).
    batch_fraction:
        Fraction of the dataset sampled per mini-batch (paper: ~4% is
        enough); the actual batch size is also capped by ``max_batch_size``.
    max_batch_size:
        Upper bound on the mini-batch size.
    learning_rate:
        Adam learning rate.
    soft_labels:
        If True (paper behaviour) the quality cost uses the neighbour bin
        *distribution* as a soft target; if False it uses the single
        majority bin (ablation).
    seed:
        Seed controlling initialisation and batch sampling.
    """

    n_bins: int = 16
    k_prime: int = 10
    eta: float = 7.0
    model: str = "mlp"
    hidden_dim: int = 128
    dropout: float = 0.1
    epochs: int = 30
    batch_fraction: float = 0.04
    max_batch_size: int = 1024
    min_batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: Optional[float] = 5.0
    soft_labels: bool = True
    balance_term: str = "topk"  # "topk" (paper), "entropy", or "none" (ablations)
    metric: str = "euclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bins < 2:
            raise ConfigurationError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.k_prime < 1:
            raise ConfigurationError(f"k_prime must be >= 1, got {self.k_prime}")
        if self.eta < 0:
            raise ConfigurationError(f"eta must be non-negative, got {self.eta}")
        if self.model not in ("mlp", "logistic"):
            raise ConfigurationError(f"model must be 'mlp' or 'logistic', got {self.model!r}")
        if self.hidden_dim < 1:
            raise ConfigurationError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ConfigurationError(
                f"batch_fraction must be in (0, 1], got {self.batch_fraction}"
            )
        if self.balance_term not in ("topk", "entropy", "none"):
            raise ConfigurationError(
                f"balance_term must be 'topk', 'entropy' or 'none', got {self.balance_term!r}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )

    def batch_size_for(self, n_points: int) -> int:
        """Resolve the mini-batch size for a dataset of ``n_points`` rows."""
        size = int(round(self.batch_fraction * n_points))
        size = max(self.min_batch_size, size)
        size = min(self.max_batch_size, size, n_points)
        # The balance window needs at least one row per bin to be meaningful.
        return max(size, min(n_points, self.n_bins))

    def with_updates(self, **kwargs) -> "UspConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EnsembleConfig:
    """Hyper-parameters for the boosted ensemble (Section 4.4.1)."""

    n_models: int = 3
    base: UspConfig = field(default_factory=UspConfig)

    def __post_init__(self) -> None:
        if self.n_models < 1:
            raise ConfigurationError(f"n_models must be >= 1, got {self.n_models}")


@dataclass(frozen=True)
class HierarchicalConfig:
    """Hyper-parameters for hierarchical partitioning (Section 4.4.2).

    ``levels`` lists the branching factor at each level; the total number of
    bins is their product (e.g. ``(16, 16)`` reproduces the paper's 256-bin
    configuration built from two 16-way levels).
    """

    levels: Tuple[int, ...] = (16, 16)
    base: UspConfig = field(default_factory=UspConfig)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("levels must contain at least one branching factor")
        if any(level < 2 for level in self.levels):
            raise ConfigurationError(f"all branching factors must be >= 2, got {self.levels}")
