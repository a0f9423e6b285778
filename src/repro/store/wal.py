"""The write-ahead log: append-only, length-prefixed, checksummed records.

Durability in :mod:`repro.store` follows the classic database discipline:
every mutation is appended to this log (and optionally fsynced) *before*
it is applied to the in-memory index, so an acknowledged operation
survives any crash.  The file format is deliberately minimal and
dependency-free:

::

    file   := header record*
    header := b"RWAL0001"                        (8 bytes, magic + version)
    record := u32 payload_crc32 | u32 payload_len | payload
    payload := u32 json_len | json_bytes | raw array bytes...

``json_bytes`` is a UTF-8 JSON object describing the operation (its
``seq`` number, the op name, JSON-able arguments) plus a descriptor per
binary array (name, dtype, shape); the arrays' raw bytes follow in
descriptor order.  All integers are little-endian.

Crash semantics on replay:

* a record whose header or payload is cut off by end-of-file is a **torn
  tail** — the write that crashed before completing.  It was never
  acknowledged, so replay stops there and (by default) truncates the file
  back to the last complete record;
* a checksum mismatch on a record *followed by more data* cannot be a
  torn write — appends are sequential — so it is real corruption and
  raises :class:`~repro.utils.exceptions.StorageError` instead of
  silently dropping acknowledged operations.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from ..utils.exceptions import StorageError, ValidationError

MAGIC = b"RWAL0001"
_HEADER = struct.Struct("<II")  # (crc32, payload length) per record
_U32 = struct.Struct("<I")

#: fsync policies: "always" fsyncs every append (durable ack), "never"
#: leaves flushing to the OS (benchmarks, bulk loads, tests).
SYNC_MODES = ("always", "never")

#: refuse to allocate buffers for absurd length fields on corrupt files
MAX_RECORD_BYTES = 1 << 31


def _encode_payload(record: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bytes:
    descriptors = []
    blobs = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        descriptors.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        )
        blobs.append(array.tobytes())
    try:
        header = json.dumps(
            {**record, "arrays": descriptors}, sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"WAL record is not JSON-able: {exc}") from exc
    return b"".join([_U32.pack(len(header)), header] + blobs)


def _decode_payload(payload: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    if len(payload) < _U32.size:
        raise StorageError("WAL payload shorter than its JSON length prefix")
    (json_len,) = _U32.unpack_from(payload)
    header_end = _U32.size + json_len
    if header_end > len(payload):
        raise StorageError("WAL payload JSON header extends past the record")
    try:
        record = json.loads(payload[_U32.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"WAL record header is not valid JSON: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    offset = header_end
    for descriptor in record.pop("arrays", []):
        dtype = np.dtype(descriptor["dtype"])
        shape = tuple(int(n) for n in descriptor["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if offset + nbytes > len(payload):
            raise StorageError(
                f"WAL record array {descriptor['name']!r} extends past the record"
            )
        arrays[descriptor["name"]] = np.frombuffer(
            payload[offset : offset + nbytes], dtype=dtype
        ).reshape(shape).copy()
        offset += nbytes
    return record, arrays


class WriteAheadLog:
    """One append-only log file of checksummed operation records.

    Parameters
    ----------
    path:
        Log file location; created (with the magic header) if absent.
    sync:
        ``"always"`` fsyncs after every append — an acknowledged
        operation is on disk before the caller regains control.
        ``"never"`` trades that guarantee for throughput (the OS flushes
        eventually); a crash may then lose a *suffix* of acknowledged
        operations, but replay still recovers a consistent prefix.
    """

    def __init__(self, path: str | os.PathLike, *, sync: str = "always") -> None:
        if sync not in SYNC_MODES:
            raise ValidationError(
                f"unknown WAL sync mode {sync!r}; expected one of {SYNC_MODES}"
            )
        self.path = Path(path)
        self.sync = sync
        self.n_records = 0
        existing = self.path.is_file()
        self._handle = open(self.path, "ab")
        if not existing or self.path.stat().st_size == 0:
            self._handle.write(MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._good_offset = len(MAGIC)
        else:
            # Count the complete records already present so n_records and
            # append offsets continue where the previous process stopped.
            # A torn tail is trimmed *now*: appending after torn bytes
            # would turn them into mid-file corruption on the next replay.
            # ``decode=False`` checksums every frame without paying the
            # JSON/array decode — Collection.open() replays once more,
            # with decoding, to actually apply the operations.
            for _ in self.replay(truncate_torn=True, decode=False):
                self.n_records += 1
            self._good_offset = int(self.path.stat().st_size)

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    @property
    def n_bytes(self) -> int:
        """Current file size (header + every complete record)."""
        self._handle.flush()
        return int(self.path.stat().st_size)

    def append(
        self, record: Dict[str, Any], arrays: Optional[Dict[str, np.ndarray]] = None
    ) -> int:
        """Append one record; returns its 0-based position in the log.

        The record is on disk (fsynced) when this returns under
        ``sync="always"`` — the caller may acknowledge the operation.
        """
        payload = _encode_payload(record, arrays or {})
        frame = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        self._handle.write(frame)
        self._handle.flush()
        if self.sync == "always":
            os.fsync(self._handle.fileno())
        position = self.n_records
        self.n_records += 1
        self._good_offset += len(frame)
        return position

    def rollback(self) -> None:
        """Trim everything after the last fully appended record.

        Called when an :meth:`append` raised mid-write: the partial frame
        it may have left would read as a torn tail now, but would become
        unrecoverable mid-file corruption the moment a later append lands
        after it.
        """
        self._truncate_to(self._good_offset)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(
        self, *, truncate_torn: bool = True, decode: bool = True
    ) -> Iterator[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """Yield every complete record in append order.

        A torn final record (incomplete header, payload cut off by EOF,
        or a checksum mismatch on the very last record) ends the
        iteration; with ``truncate_torn`` the file is trimmed back to the
        last complete record so later appends start clean.  A checksum
        mismatch *before* the end of the file is corruption, not a torn
        write, and raises :class:`StorageError`.

        ``decode=False`` yields ``(None, None)`` per record: every frame
        is still read and checksummed, but the JSON/array decode is
        skipped — for callers that only count or validate.
        """
        self._handle.flush()
        with open(self.path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise StorageError(
                    f"{self.path} is not a write-ahead log (bad magic {magic!r})"
                )
            size = os.fstat(handle.fileno()).st_size
            offset = len(MAGIC)
            while offset < size:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break  # torn: header itself incomplete
                crc, length = _HEADER.unpack(header)
                if length > MAX_RECORD_BYTES:
                    raise StorageError(
                        f"{self.path}: record at byte {offset} claims "
                        f"{length} bytes; the log is corrupt"
                    )
                payload = handle.read(length)
                if len(payload) < length:
                    break  # torn: payload cut off by EOF
                if zlib.crc32(payload) != crc:
                    if offset + _HEADER.size + length >= size:
                        break  # torn: bad bytes are the final record
                    raise StorageError(
                        f"{self.path}: checksum mismatch at byte {offset} with "
                        "further records after it — the log is corrupt, not torn"
                    )
                yield _decode_payload(payload) if decode else (None, None)
                offset += _HEADER.size + length
        if truncate_torn and offset < size:
            self._truncate_to(offset)

    def iter_from(
        self, seq: int, *, truncate_torn: bool = False
    ) -> Iterator[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """Yield complete records whose ``seq`` field exceeds ``seq``.

        The tailing primitive behind replication: a follower at sequence
        ``seq`` pulls exactly the acknowledged records after it, in
        append order, each one checksum-verified by the underlying
        :meth:`replay`.  Unlike recovery, the default here is
        ``truncate_torn=False`` — a torn tail on a *live* log may be an
        append in progress on another handle, and a tailer must never
        trim it; iteration simply stops at the last complete record.
        """
        seq = int(seq)
        for record, arrays in self.replay(truncate_torn=truncate_torn, decode=True):
            if int(record.get("seq", -1)) > seq:
                yield record, arrays

    def _truncate_to(self, offset: int) -> None:
        self._handle.flush()
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        # Reposition the append handle past the truncation point.
        self._handle.close()
        self._handle = open(self.path, "ab")
        self._good_offset = int(offset)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            if self.sync == "always":
                os.fsync(self._handle.fileno())
            self._handle.close()


# Public aliases: the replication wire format (repro.replica.wire) ships
# WAL records as exactly these payload bytes, so a record is covered by
# one codec and one checksum from the primary's log to the follower's.
encode_record_payload = _encode_payload
decode_record_payload = _decode_payload


def fsync_directory(path: str | os.PathLike) -> None:
    """fsync a directory entry so renames/creates inside it are durable.

    Best-effort on platforms whose directories cannot be opened for
    reading (the metadata write still happened; only its ordering
    guarantee is weaker there).
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
