"""Mini-batch sampling utilities.

The USP loss is defined over a *batch* of points (the balance term needs a
population of outputs, not a single row), so the trainer samples uniform
random batches rather than iterating a fixed shuffled epoch.  Both styles
are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import as_float_matrix, check_positive_int


@dataclass
class Batch:
    """A mini-batch: row indices into the dataset plus the row vectors."""

    indices: np.ndarray
    points: np.ndarray


class UniformBatchSampler:
    """Sample fixed-size batches uniformly at random with replacement.

    This matches the paper's batching caveat (Section 4.2.2): as long as
    sampling is uniform, a small batch (~4% of the dataset) approximates the
    dataset distribution well enough for the balance term.
    """

    def __init__(self, points, batch_size: int, *, rng: SeedLike = None) -> None:
        self.points = as_float_matrix(points)
        self.batch_size = min(check_positive_int(batch_size, "batch_size"), len(self.points))
        self._rng = resolve_rng(rng)

    def sample(self) -> Batch:
        indices = self._rng.choice(len(self.points), size=self.batch_size, replace=False)
        return Batch(indices=indices, points=self.points[indices])


class EpochBatchIterator:
    """Iterate the dataset once per epoch in shuffled fixed-size batches."""

    def __init__(self, points, batch_size: int, *, rng: SeedLike = None) -> None:
        self.points = as_float_matrix(points)
        self.batch_size = min(check_positive_int(batch_size, "batch_size"), len(self.points))
        self._rng = resolve_rng(rng)

    def __iter__(self) -> Iterator[Batch]:
        order = self._rng.permutation(len(self.points))
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            yield Batch(indices=indices, points=self.points[indices])

