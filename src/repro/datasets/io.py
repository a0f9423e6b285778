"""Readers/writers for the on-disk vector formats used by ANN benchmarks.

The SIFT-1M distribution uses ``.fvecs`` (float vectors) and ``.ivecs``
(integer vectors, used for ground truth).  Each record is a little-endian
``int32`` dimensionality ``d`` followed by ``d`` values.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import numpy as np

from ..utils.exceptions import DatasetError


def read_fvecs(path: str | os.PathLike, *, max_rows: Optional[int] = None) -> np.ndarray:
    """Read an ``.fvecs`` file into a ``(n, d)`` float64 array."""
    return _read_vecs(path, np.float32, max_rows=max_rows).astype(np.float64)


def read_ivecs(path: str | os.PathLike, *, max_rows: Optional[int] = None) -> np.ndarray:
    """Read an ``.ivecs`` file into a ``(n, d)`` int64 array."""
    return _read_vecs(path, np.int32, max_rows=max_rows).astype(np.int64)


def _read_vecs(path: str | os.PathLike, dtype, *, max_rows: Optional[int]) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"vector file not found: {path}")
    raw = np.fromfile(path, dtype=np.int32)
    if raw.size == 0:
        raise DatasetError(f"vector file is empty: {path}")
    dim = int(raw[0])
    if dim <= 0:
        raise DatasetError(f"invalid dimensionality {dim} in {path}")
    record = dim + 1
    if raw.size % record != 0:
        raise DatasetError(f"file size of {path} is not a multiple of the record size")
    n_rows = raw.size // record
    if max_rows is not None:
        n_rows = min(n_rows, int(max_rows))
    data = raw[: n_rows * record].reshape(n_rows, record)[:, 1:]
    return data.view(np.int32).astype(dtype) if dtype == np.int32 else data.view(np.float32)


def write_fvecs(path: str | os.PathLike, vectors: np.ndarray) -> None:
    """Write a ``(n, d)`` array as ``.fvecs``."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise DatasetError("vectors must be 2-dimensional")
    n, dim = vectors.shape
    out = np.empty((n, dim + 1), dtype=np.float32)
    out[:, 0] = np.frombuffer(np.full(n, dim, dtype=np.int32).tobytes(), dtype=np.float32)
    out[:, 1:] = vectors
    out.tofile(path)


def write_ivecs(path: str | os.PathLike, vectors: np.ndarray) -> None:
    """Write a ``(n, d)`` int array as ``.ivecs``."""
    vectors = np.asarray(vectors, dtype=np.int32)
    if vectors.ndim != 2:
        raise DatasetError("vectors must be 2-dimensional")
    n, dim = vectors.shape
    out = np.empty((n, dim + 1), dtype=np.int32)
    out[:, 0] = dim
    out[:, 1:] = vectors
    out.tofile(path)

