"""Input validation helpers shared across the library."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .exceptions import ValidationError


def as_float_matrix(points, name: str = "points") -> np.ndarray:
    """Coerce ``points`` to a contiguous 2-D float64 array.

    Raises
    ------
    ValidationError
        If the input is not 2-dimensional, is empty, or contains NaN/Inf.
    """
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or Inf values")
    return arr


def as_query_matrix(queries, dim: int, name: str = "queries") -> np.ndarray:
    """Coerce queries to 2-D float64 and check dimensionality against ``dim``."""
    arr = as_float_matrix(queries, name=name)
    if arr.shape[1] != dim:
        raise ValidationError(
            f"{name} has dimension {arr.shape[1]}, expected {dim}"
        )
    return arr


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    ivalue = int(value)
    if ivalue <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {value}")
    return ivalue


def check_labels(labels, n_points: Optional[int] = None, name: str = "labels") -> np.ndarray:
    """Coerce cluster/bin labels to a 1-D int64 array (and check length)."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if n_points is not None and arr.shape[0] != n_points:
        raise ValidationError(
            f"{name} has length {arr.shape[0]}, expected {n_points}"
        )
    return arr.astype(np.int64)
