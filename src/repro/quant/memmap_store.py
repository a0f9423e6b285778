"""Memory-mapped full-precision vector storage for the re-rank stage.

A :class:`VectorStore` is a directory holding one row-major ``.npy``
file plus a JSON header describing it::

    path/
      store.json    -- format name/version, dtype, shape
      vectors.npy   -- the (n, dim) matrix, row-major

Opening a store memory-maps the ``.npy`` file read-only, so fetching the
rows of a candidate list is O(1) in resident memory: only the pages
backing the requested rows are faulted in.  That is what lets a
quantized index serve a collection whose full-precision footprint
exceeds RAM — the scan touches codes, and the exact re-rank touches just
``rerank`` rows per query through the mapping.

The header is deliberately redundant with the ``.npy`` header: the two
are cross-checked at open time, so a swapped or hand-edited artifact
fails with a typed :class:`~repro.utils.exceptions.SerializationError`
instead of silently re-ranking against the wrong matrix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Tuple

import numpy as np

from ..utils.exceptions import SerializationError

STORE_FORMAT = "repro-vector-store"
STORE_FORMAT_VERSION = 1
HEADER_FILE = "store.json"
VECTORS_FILE = "vectors.npy"


class VectorStore:
    """Read-only memmapped view over a saved row-major vector matrix."""

    def __init__(self, path: Path, vectors: np.ndarray) -> None:
        self.path = Path(path)
        self._vectors = vectors

    # ------------------------------------------------------------------ #
    # creation / opening
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, path, vectors: np.ndarray) -> "VectorStore":
        """Write ``vectors`` to the directory ``path`` and open the result.

        The ``.npy`` file and the header are each written to a temporary
        name and renamed into place, so re-saving over an existing store
        (including one this process currently has mapped) never exposes
        a half-written file; the old mapping keeps reading the replaced
        inode until it is closed.
        """
        vectors = np.ascontiguousarray(vectors)
        if vectors.ndim != 2:
            raise SerializationError(
                f"vector stores hold 2-D matrices, got ndim={vectors.ndim}"
            )
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        header = {
            "format": STORE_FORMAT,
            "format_version": STORE_FORMAT_VERSION,
            "dtype": str(vectors.dtype),
            "shape": [int(vectors.shape[0]), int(vectors.shape[1])],
        }
        tmp_vectors = root / (VECTORS_FILE + ".tmp")
        tmp_header = root / (HEADER_FILE + ".tmp")
        try:
            with open(tmp_vectors, "wb") as handle:
                np.save(handle, vectors)
            tmp_header.write_text(json.dumps(header, indent=2, sort_keys=True))
            os.replace(tmp_vectors, root / VECTORS_FILE)
            os.replace(tmp_header, root / HEADER_FILE)
        except OSError as exc:
            raise SerializationError(
                f"could not write vector store at {root}: {exc}"
            ) from exc
        finally:
            tmp_vectors.unlink(missing_ok=True)
            tmp_header.unlink(missing_ok=True)
        return cls.open(root)

    @classmethod
    def open(cls, path) -> "VectorStore":
        """Memory-map the store at ``path`` (read-only).

        Raises :class:`SerializationError` when the header is missing or
        unreadable, the ``.npy`` file is missing or truncated, or the two
        headers disagree about dtype/shape.
        """
        root = Path(path)
        header_file = root / HEADER_FILE
        if not header_file.is_file():
            raise SerializationError(
                f"{root} is not a vector store (missing {HEADER_FILE})"
            )
        try:
            header = json.loads(header_file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(f"could not read {header_file}: {exc}") from exc
        if header.get("format") != STORE_FORMAT:
            raise SerializationError(f"{header_file} is not a {STORE_FORMAT} header")
        if int(header.get("format_version", 0)) > STORE_FORMAT_VERSION:
            raise SerializationError(
                f"{header_file} uses format version "
                f"{header.get('format_version')}, supported up to "
                f"{STORE_FORMAT_VERSION}"
            )
        vectors_file = root / VECTORS_FILE
        if not vectors_file.is_file():
            raise SerializationError(
                f"{root} is missing {VECTORS_FILE}; the store is incomplete"
            )
        try:
            vectors = np.load(vectors_file, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:
            # A truncated .npy surfaces as a failed header parse or a
            # short mmap depending on where the file was cut; either way
            # the matrix cannot be trusted.
            raise SerializationError(
                f"could not map {vectors_file} (truncated or corrupt): {exc}"
            ) from exc
        expected_shape = tuple(int(value) for value in header.get("shape", ()))
        expected_dtype = str(header.get("dtype", ""))
        if vectors.ndim != 2 or vectors.shape != expected_shape:
            raise SerializationError(
                f"vector store header at {root} declares shape "
                f"{expected_shape} but {VECTORS_FILE} holds {vectors.shape}; "
                "the header and the data do not belong together"
            )
        if str(vectors.dtype) != expected_dtype:
            raise SerializationError(
                f"vector store header at {root} declares dtype "
                f"{expected_dtype!r} but {VECTORS_FILE} holds {vectors.dtype}"
            )
        return cls(root, vectors)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def vectors(self) -> np.ndarray:
        """The full matrix as a read-only memmap (fancy-index to fetch rows)."""
        return self._vectors

    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self._vectors.shape[0]), int(self._vectors.shape[1]))

    @property
    def n_rows(self) -> int:
        return int(self._vectors.shape[0])

    @property
    def file_bytes(self) -> int:
        """On-disk (mapped, not resident) size of the vector file."""
        try:
            return int(os.path.getsize(self.path / VECTORS_FILE))
        except OSError:
            return 0

    def rows(self, ids) -> np.ndarray:
        """Materialise the requested rows (touches only their pages)."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        return np.asarray(self._vectors[ids])

    def __len__(self) -> int:
        return self.n_rows
