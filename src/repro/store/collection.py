"""Durable collections: a named index + attribute store behind a WAL.

A :class:`Collection` is the storage layer's unit of durability: one
named directory owning a mutable index (today that is
:class:`repro.shard.ShardedIndex`, the registry's mutable backend — any
future ``capabilities.mutable`` backend works the same way) together
with its :class:`repro.filter.AttributeStore`.  Every mutation —
``add`` / ``remove`` / ``set_attributes`` — is validated, appended to the
collection's :class:`~repro.store.wal.WriteAheadLog` (fsynced under the
default ``sync="always"`` policy), and only then applied in memory and
acknowledged to the caller.  Kill the process at any point and
:meth:`Collection.open` recovers exactly the acknowledged state: newest
valid snapshot + WAL tail replay, tolerating a torn final record.

Checkpoints (:meth:`checkpoint`, usually driven by the
:class:`~repro.store.maintenance.MaintenanceLoop`) fold the log into a
new snapshot generation and start a fresh WAL, bounding recovery time.

The add path journals the vectors *and* their attribute rows in one
record, so the index and its metadata can never disagree after a crash —
either both sides of an upsert survive or neither does.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..utils.exceptions import (
    BootstrapRequired,
    ReadOnlyError,
    StorageError,
    ValidationError,
)
from ..utils.validation import as_float_matrix
from .snapshot import (
    candidate_generations,
    generation_dir,
    load_snapshot,
    set_current,
    sweep,
    wal_name,
    write_snapshot,
)
from .wal import SYNC_MODES, WriteAheadLog

COLLECTION_FORMAT = "repro-collection"
COLLECTION_FORMAT_VERSION = 1
COLLECTION_FILE = "collection.json"

#: operations the write-ahead log records
WAL_OPS = ("add", "remove", "set_attributes")

#: snapshot-bootstrap bundle format (replication; see snapshot_bundle)
BOOTSTRAP_FORMAT = "repro-replica-bootstrap"
BOOTSTRAP_FORMAT_VERSION = 1


def is_collection_dir(path) -> bool:
    """Whether ``path`` holds a collection (its manifest file exists)."""
    return (Path(path) / COLLECTION_FILE).is_file()


class Collection:
    """A durable, named unit: mutable index + attributes + write-ahead log.

    Construct through :meth:`create` (new directory from a built index)
    or :meth:`open` (recover an existing directory); the constructor
    itself only assembles an already-recovered state.

    Concurrency model: mutations and checkpoints serialise on one writer
    lock; queries run lock-free against the index, which guarantees
    torn-free reads under a single writer (see
    :class:`~repro.shard.ShardedIndex`).
    """

    def __init__(
        self,
        path: Path,
        index,
        *,
        name: str,
        generation: int,
        last_seq: int,
        wal: WriteAheadLog,
        sync: str,
        keep_generations: int,
        read_only: bool = False,
    ) -> None:
        self.path = Path(path)
        self.index = index
        self.name = str(name)
        self.generation = int(generation)
        self.sync = str(sync)
        self.keep_generations = int(keep_generations)
        self._last_seq = int(last_seq)
        # The state already folded into the current snapshot generation:
        # the live WAL holds exactly the records with seq > _wal_base_seq.
        self._wal_base_seq = int(last_seq)
        self._wal: Optional[WriteAheadLog] = wal
        self._write_lock = threading.RLock()
        self._failed: Optional[str] = None
        self._read_only = bool(read_only)

    # ------------------------------------------------------------------ #
    # lifecycle: create / open / close
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        path,
        index,
        *,
        name: Optional[str] = None,
        sync: str = "always",
        keep_generations: int = 2,
    ) -> "Collection":
        """Turn a built mutable index into a durable collection at ``path``.

        Writes the collection manifest, materialises generation 0 (the
        index exactly as handed in, attribute store included), and starts
        an empty WAL.  Refuses to overwrite an existing collection.
        """
        if sync not in SYNC_MODES:
            raise ValidationError(
                f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}"
            )
        if not type(index).capabilities.mutable:
            raise ValidationError(
                f"collections need a mutable index; {type(index).__name__} "
                "does not declare capabilities.mutable"
            )
        if not index.is_built:
            raise ValidationError(
                f"collections need a built index; build() this "
                f"{type(index).__name__} first"
            )
        root = Path(path)
        if is_collection_dir(root):
            raise StorageError(
                f"{root} already holds a collection; Collection.open() it "
                "instead of creating over it"
            )
        root.mkdir(parents=True, exist_ok=True)
        name = str(name) if name else root.name
        manifest = {
            "format": COLLECTION_FORMAT,
            "format_version": COLLECTION_FORMAT_VERSION,
            "name": name,
            "sync": sync,
            "keep_generations": int(keep_generations),
            "created_at": time.time(),
        }
        write_snapshot(root, index, generation=0, last_seq=0, collection=name)
        (root / COLLECTION_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        set_current(root, 0)
        wal = WriteAheadLog(root / wal_name(0), sync=sync)
        return cls(
            root,
            index,
            name=name,
            generation=0,
            last_seq=0,
            wal=wal,
            sync=sync,
            keep_generations=keep_generations,
        )

    @classmethod
    def open(
        cls, path, *, sync: Optional[str] = None, read_only: bool = False
    ) -> "Collection":
        """Recover the collection at ``path``: snapshot + WAL tail replay.

        Loads the newest snapshot that still loads (the ``CURRENT``
        generation first, older survivors as fall-backs), then replays
        the generation's WAL in order, tolerating — and trimming — a torn
        final record.  The recovered collection answers queries exactly
        as the crashed process would have for every acknowledged
        operation.

        With ``read_only=True`` local mutations are refused with
        :class:`~repro.utils.exceptions.ReadOnlyError`; only replicated
        records (:meth:`apply_replicated`) may change the collection.
        That is how replica followers open their copy — the mode is an
        in-process guard, not an on-disk flag, and :meth:`promote` lifts
        it during failover.
        """
        root = Path(path)
        manifest_file = root / COLLECTION_FILE
        if not manifest_file.is_file():
            raise StorageError(f"{root} is not a collection (missing {COLLECTION_FILE})")
        try:
            manifest = json.loads(manifest_file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"could not read {manifest_file}: {exc}") from exc
        if manifest.get("format") != COLLECTION_FORMAT:
            raise StorageError(f"{manifest_file} is not a {COLLECTION_FORMAT} manifest")
        if int(manifest.get("format_version", 0)) > COLLECTION_FORMAT_VERSION:
            raise StorageError(
                f"{manifest_file} uses collection format "
                f"{manifest.get('format_version')}, supported up to "
                f"{COLLECTION_FORMAT_VERSION}"
            )
        candidates = candidate_generations(root)
        if not candidates:
            raise StorageError(f"{root} has no snapshot generations to recover from")
        index = snapshot = generation = None
        failures: List[str] = []
        for candidate in candidates:
            try:
                index, snapshot = load_snapshot(root, candidate)
                generation = candidate
                break
            except StorageError as exc:
                failures.append(str(exc))
        if index is None:
            raise StorageError(
                f"{root}: no generation could be loaded: " + "; ".join(failures)
            )
        sync = sync or str(manifest.get("sync", "always"))
        wal = WriteAheadLog(root / wal_name(generation), sync=sync)
        collection = cls(
            root,
            index,
            name=str(manifest.get("name", root.name)),
            generation=generation,
            last_seq=int(snapshot.get("last_seq", 0)),
            wal=wal,
            sync=sync,
            keep_generations=int(manifest.get("keep_generations", 2)),
            read_only=read_only,
        )
        collection._replay(wal)
        # Only now that the recovered state is live: drop generations the
        # current one obsoletes, plus orphans of crashed checkpoints.
        sweep(root, current=generation, keep=collection.keep_generations)
        return collection

    def close(self) -> None:
        """Flush and close the WAL (the collection becomes read-only)."""
        with self._write_lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # ------------------------------------------------------------------ #
    # gauges
    # ------------------------------------------------------------------ #

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest acknowledged operation."""
        return self._last_seq

    @property
    def wal_base_seq(self) -> int:
        """State already folded into the current snapshot generation.

        The live WAL holds exactly the records with
        ``wal_base_seq < seq <= last_seq``; a replica asking for history
        before this point needs a snapshot bootstrap, not log shipping.
        """
        return self._wal_base_seq

    @property
    def read_only(self) -> bool:
        """Whether local mutations are refused (replica-follower mode)."""
        return self._read_only

    @property
    def wal_ops(self) -> int:
        """Operations journaled since the last checkpoint (replay length)."""
        return self._wal.n_records if self._wal is not None else 0

    @property
    def wal_bytes(self) -> int:
        """Size of the live WAL file (checkpoint-pressure gauge)."""
        return self._wal.n_bytes if self._wal is not None else 0

    @property
    def attributes(self):
        """The index's attached :class:`repro.filter.AttributeStore` (or None)."""
        return self.index.attributes

    def stats(self) -> Dict[str, Any]:
        """Durability gauges plus the owned index's own ``stats()``."""
        return {
            "collection": self.name,
            "path": str(self.path),
            "generation": self.generation,
            "last_seq": self._last_seq,
            "wal_base_seq": self._wal_base_seq,
            "wal_ops": self.wal_ops,
            "wal_bytes": self.wal_bytes,
            "sync": self.sync,
            "read_only": self._read_only,
            "index": self.index.stats(),
        }

    # ------------------------------------------------------------------ #
    # queries (lock-free delegation)
    # ------------------------------------------------------------------ #
    def query(self, query: np.ndarray, k: int = 10, **kwargs):
        return self.index.query(query, k, **kwargs)

    def batch_query(self, queries: np.ndarray, k: int = 10, **kwargs):
        return self.index.batch_query(queries, k, **kwargs)

    # ------------------------------------------------------------------ #
    # mutations: journal first, apply second, acknowledge last
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._failed is not None:
            raise StorageError(
                f"collection {self.name!r} is failed ({self._failed}); "
                "reopen it to recover the durable state"
            )
        if self._wal is None:
            raise StorageError(f"collection {self.name!r} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self._read_only:
            raise ReadOnlyError(
                f"collection {self.name!r} is read-only (replica follower); "
                "writes go to the primary — promote() this copy to make it "
                "writable during failover"
            )

    def add(
        self,
        vectors: np.ndarray,
        attributes: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> np.ndarray:
        """Durably insert vectors (with optional attribute rows); returns ids.

        The vectors and their attribute rows travel in **one** WAL record:
        recovery can never resurrect a vector without its metadata or
        vice versa.  The call returns — acknowledging the ids — only
        after the record is on the log.
        """
        with self._write_lock:
            self._check_writable()
            vectors = as_float_matrix(vectors, name="vectors")
            dim = int(self.index.dim)
            if vectors.shape[1] != dim:
                raise ValidationError(
                    f"added vectors have dim {vectors.shape[1]}, collection has {dim}"
                )
            start = self.index.total_rows
            rows = None
            if attributes is not None:
                rows = self._canonical_rows(attributes, expected=vectors.shape[0])
                # Attribute rows align with ids by position: row i of the
                # store describes id i.  If the store lags behind the
                # index, extending it now would attach this batch's
                # metadata to *older* ids.
                if self.attributes.n_rows != start:
                    raise ValidationError(
                        f"attribute store has {self.attributes.n_rows} rows but "
                        f"new ids start at {start}; catch the store up "
                        "with set_attributes() before adding with attributes"
                    )
            record: Dict[str, Any] = {
                "seq": self._last_seq + 1,
                "op": "add",
                "n": int(vectors.shape[0]),
                "start_id": start,
            }
            if rows is not None:
                record["rows"] = rows
            self._append(record, {"vectors": vectors})
            return self._apply_add(record, vectors)

    def remove(self, ids) -> int:
        """Durably tombstone ids; acknowledged only after the WAL append."""
        with self._write_lock:
            self._check_writable()
            ids = np.unique(np.asarray(ids, dtype=np.int64).reshape(-1))
            if ids.size == 0:
                return 0
            alive = np.asarray(self.index.contains(ids), dtype=bool)
            if not alive.all():
                raise ValidationError(
                    f"ids not present (unknown or already removed): "
                    f"{ids[~alive][:8].tolist()}"
                )
            record = {"seq": self._last_seq + 1, "op": "remove"}
            self._append(record, {"ids": ids})
            return self._apply_remove(record, ids)

    def set_attributes(self, rows: Mapping[str, Sequence[Any]]) -> "Collection":
        """Durably append attribute rows for previously added vectors.

        ``rows`` maps every existing column to one value per new row, as
        :meth:`repro.filter.AttributeStore.extend` takes them — used when
        vectors were added ahead of their metadata and the store needs to
        catch up.
        """
        with self._write_lock:
            self._check_writable()
            canonical = self._canonical_rows(rows, expected=None)
            count = len(next(iter(canonical.values())))
            total = self.index.total_rows
            if self.attributes.n_rows + count > total:
                raise ValidationError(
                    f"extending the attribute store by {count} rows would pass "
                    f"the index ({self.attributes.n_rows} + {count} > {total} "
                    "ids); attribute rows describe already-added vectors"
                )
            record = {
                "seq": self._last_seq + 1,
                "op": "set_attributes",
                "rows": canonical,
            }
            self._append(record, {})
            self._apply_set_attributes(record)
            return self

    def _canonical_rows(
        self, rows: Mapping[str, Sequence[Any]], *, expected: Optional[int]
    ) -> Dict[str, List[Any]]:
        """Validate attribute rows and coerce them to their JSON-able form.

        :meth:`AttributeStore.canonical_rows` performs every check
        :meth:`~AttributeStore.extend` would, so a journaled record is
        guaranteed to apply — both now and at replay.
        """
        store = self.attributes
        if store is None:
            raise ValidationError(
                f"collection {self.name!r} has no attribute store; attach one "
                "with index.set_attributes(...) before journaling attributes"
            )
        return store.canonical_rows(rows, expected=expected)

    # ------------------------------------------------------------------ #
    # journal + apply plumbing (shared by the live path and replay)
    # ------------------------------------------------------------------ #
    def _append(self, record: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
        try:
            self._wal.append(record, arrays)
        except OSError as exc:
            # Nothing was acknowledged and nothing was applied — but the
            # failed write may have left a partial frame that a *later*
            # append would bury as unrecoverable mid-file corruption.
            # Trim back to the last good record; only if even that fails
            # is the log untrustworthy and the collection stops writing.
            try:
                self._wal.rollback()
            except OSError as rollback_exc:
                self._fail(rollback_exc)
            raise StorageError(
                f"collection {self.name!r}: WAL append failed: {exc}"
            ) from exc

    def _apply_add(self, record: Dict[str, Any], vectors: np.ndarray) -> np.ndarray:
        try:
            ids = np.asarray(self.index.add(vectors), dtype=np.int64)
            start = record.get("start_id")
            if start is not None and (
                ids.size != int(record["n"]) or int(ids[0]) != int(start)
            ):
                raise StorageError(
                    f"index assigned ids starting at {int(ids[0]) if ids.size else '?'}, "
                    f"journal recorded {start}: replay would diverge"
                )
            rows = record.get("rows")
            if rows is not None:
                self.attributes.extend(rows)
        except Exception as exc:
            self._fail(exc)
            raise
        self._last_seq = int(record["seq"])
        return ids

    def _apply_remove(self, record: Dict[str, Any], ids: np.ndarray) -> int:
        try:
            removed = int(self.index.remove(ids))
        except Exception as exc:
            self._fail(exc)
            raise
        self._last_seq = int(record["seq"])
        return removed

    def _apply_set_attributes(self, record: Dict[str, Any]) -> None:
        try:
            self.attributes.extend(record["rows"])
        except Exception as exc:
            self._fail(exc)
            raise
        self._last_seq = int(record["seq"])

    def _fail(self, exc: Exception) -> None:
        """Mark memory as ahead of (or behind) the journal: stop writes.

        Reached only if an apply step failed *after* its record hit the
        log — pre-validation makes that a bug, not an input error — so
        the safe stance is to refuse further mutations and point the
        operator at reopen-based recovery.
        """
        if self._failed is None:
            self._failed = f"{type(exc).__name__}: {exc}"

    def _replay(self, wal: WriteAheadLog) -> int:
        """Apply every complete WAL record on top of the loaded snapshot."""
        replayed = 0
        for record, arrays in wal.replay(truncate_torn=True):
            seq = int(record.get("seq", -1))
            if seq != self._last_seq + 1:
                raise StorageError(
                    f"collection {self.name!r}: WAL replay expected seq "
                    f"{self._last_seq + 1}, found {seq}; the log does not "
                    "continue this snapshot"
                )
            op = record.get("op")
            if op == "add":
                self._apply_add(record, np.asarray(arrays["vectors"], dtype=np.float64))
            elif op == "remove":
                self._apply_remove(record, np.asarray(arrays["ids"], dtype=np.int64))
            elif op == "set_attributes":
                self._apply_set_attributes(record)
            else:
                raise StorageError(
                    f"collection {self.name!r}: unknown WAL op {op!r} "
                    f"(expected one of {WAL_OPS})"
                )
            replayed += 1
        return replayed

    # ------------------------------------------------------------------ #
    # replication primitives (see repro.replica for the protocol on top)
    # ------------------------------------------------------------------ #
    def wal_records_since(
        self, seq: int, *, max_records: Optional[int] = None
    ) -> Tuple[List[Tuple[Dict[str, Any], Dict[str, np.ndarray]]], int]:
        """Acknowledged WAL records with ``record seq > seq``, plus ``last_seq``.

        The primary-side tailing read.  Runs under the writer lock so a
        concurrent checkpoint cannot swap or delete the log mid-read,
        and the returned batch is a consistent prefix of the stream as
        of the returned ``last_seq``.  Raises
        :class:`~repro.utils.exceptions.BootstrapRequired` when ``seq``
        predates the live WAL (a checkpoint folded that history into the
        snapshot) and :class:`StorageError` when ``seq`` is *ahead* of
        this collection — a diverged replica, not a lagging one.
        """
        with self._write_lock:
            self._check_open()
            seq = int(seq)
            if seq > self._last_seq:
                raise StorageError(
                    f"collection {self.name!r}: replica at seq {seq} is ahead "
                    f"of this primary (last_seq {self._last_seq}); the stream "
                    "has diverged — exactly one copy may be promoted"
                )
            if seq < self._wal_base_seq:
                raise BootstrapRequired(
                    f"collection {self.name!r}: WAL starts after seq "
                    f"{self._wal_base_seq} (generation {self.generation} "
                    f"snapshot); records since {seq} must come from a "
                    "snapshot bootstrap"
                )
            out: List[Tuple[Dict[str, Any], Dict[str, np.ndarray]]] = []
            for record, arrays in self._wal.iter_from(seq, truncate_torn=False):
                out.append((record, arrays))
                if max_records is not None and len(out) >= int(max_records):
                    break
            return out, self._last_seq

    def apply_replicated(
        self, record: Dict[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Journal-then-apply one record shipped from a primary.

        The follower-side write path: the record keeps the *primary's*
        sequence number and goes through the same discipline as a local
        mutation — appended (fsynced) to this collection's own WAL first,
        applied in memory second — so a follower directory is bitwise
        recoverable exactly like a primary at the same seq, and
        :meth:`promote` needs no new machinery.  Allowed on read-only
        collections: replication is their one writer.  A sequence gap
        raises :class:`StorageError` (an acknowledged write would
        otherwise be silently lost).
        """
        with self._write_lock:
            self._check_open()
            seq = int(record.get("seq", -1))
            if seq != self._last_seq + 1:
                raise StorageError(
                    f"collection {self.name!r}: replicated record has seq "
                    f"{seq}, expected {self._last_seq + 1}; a gap in the "
                    "stream would lose acknowledged writes"
                )
            op = record.get("op")
            if op not in WAL_OPS:
                raise StorageError(
                    f"collection {self.name!r}: unknown replicated op {op!r} "
                    f"(expected one of {WAL_OPS})"
                )
            self._append(record, dict(arrays))
            if op == "add":
                self._apply_add(record, np.asarray(arrays["vectors"], dtype=np.float64))
            elif op == "remove":
                self._apply_remove(record, np.asarray(arrays["ids"], dtype=np.int64))
            else:
                self._apply_set_attributes(record)

    def promote(self) -> "Collection":
        """Flip a read-only replica writable (failover); idempotent.

        Recovery to the last contiguous acknowledged seq already
        happened — either at :meth:`open` (snapshot + WAL-tail replay,
        torn tail trimmed) or because this in-memory copy applied every
        record it acknowledged — so promotion is just lifting the
        read-only guard.  Callers are responsible for ensuring the old
        primary is dead: two writable copies of one collection diverge.
        """
        with self._write_lock:
            self._check_open()
            self._read_only = False
            return self

    def snapshot_bundle(self) -> Dict[str, Any]:
        """A JSON-able clone of the current snapshot generation.

        The bootstrap payload for new or hopelessly lagging replicas:
        the manifest fields plus every file of the ``CURRENT`` generation
        directory, base64-encoded.  ``last_seq`` is the *snapshot's*
        sequence number (:attr:`wal_base_seq`) — the receiver pulls
        everything after it over the record stream.  Taken under the
        writer lock so a checkpoint cannot delete the generation
        mid-read.
        """
        with self._write_lock:
            self._check_open()
            gen_dir = generation_dir(self.path, self.generation)
            files: Dict[str, str] = {}
            for directory, _, names in os.walk(gen_dir):
                for filename in names:
                    file_path = Path(directory) / filename
                    rel = file_path.relative_to(self.path).as_posix()
                    files[rel] = base64.b64encode(file_path.read_bytes()).decode("ascii")
            return {
                "format": BOOTSTRAP_FORMAT,
                "format_version": BOOTSTRAP_FORMAT_VERSION,
                "name": self.name,
                "generation": self.generation,
                "last_seq": self._wal_base_seq,
                "sync": self.sync,
                "keep_generations": self.keep_generations,
                "files": files,
            }

    @classmethod
    def clone_from_bundle(
        cls,
        path,
        bundle: Mapping[str, Any],
        *,
        sync: Optional[str] = None,
        read_only: bool = True,
    ) -> "Collection":
        """Materialise a :meth:`snapshot_bundle` as a fresh collection.

        Writes the generation files and a collection manifest, flips
        ``CURRENT``, and opens the result (read-only by default — this
        is how followers bootstrap).  Refuses to overwrite an existing
        collection directory.
        """
        if bundle.get("format") != BOOTSTRAP_FORMAT:
            raise ValidationError(
                f"not a {BOOTSTRAP_FORMAT} bundle: format={bundle.get('format')!r}"
            )
        if int(bundle.get("format_version", 0)) > BOOTSTRAP_FORMAT_VERSION:
            raise ValidationError(
                f"bootstrap bundle format {bundle.get('format_version')} is "
                f"newer than supported {BOOTSTRAP_FORMAT_VERSION}"
            )
        root = Path(path)
        if is_collection_dir(root):
            raise StorageError(
                f"{root} already holds a collection; refusing to bootstrap "
                "over it"
            )
        root.mkdir(parents=True, exist_ok=True)
        for rel, encoded in bundle["files"].items():
            parts = Path(rel).parts
            if Path(rel).is_absolute() or ".." in parts:
                raise ValidationError(
                    f"bootstrap bundle path {rel!r} escapes the collection root"
                )
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(base64.b64decode(encoded))
        manifest = {
            "format": COLLECTION_FORMAT,
            "format_version": COLLECTION_FORMAT_VERSION,
            "name": str(bundle.get("name", root.name)),
            "sync": str(bundle.get("sync", "always")),
            "keep_generations": int(bundle.get("keep_generations", 2)),
            "created_at": time.time(),
        }
        (root / COLLECTION_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        set_current(root, int(bundle["generation"]))
        return cls.open(root, sync=sync, read_only=read_only)

    # ------------------------------------------------------------------ #
    # checkpoint / compaction
    # ------------------------------------------------------------------ #
    def checkpoint(self, *, force: bool = False) -> int:
        """Fold the WAL into a new snapshot generation; returns its number.

        write-new → fsync → rename → truncate: the next generation
        directory is fully written and fsynced, ``CURRENT`` flips
        atomically, and only then is the old WAL deleted and a fresh one
        started.  A no-op (returning the current generation) when the WAL
        is empty, unless ``force``.
        """
        with self._write_lock:
            # _check_open, not _check_writable: a read-only follower may
            # checkpoint — folding the log changes no logical content,
            # and followers need bounded recovery exactly like primaries.
            self._check_open()
            if self._wal.n_records == 0 and not force:
                return self.generation
            generation = self.generation + 1
            # Everything fallible happens *before* the CURRENT flip: the
            # snapshot directory and the next generation's (empty) WAL.
            # A failure here leaves the old generation fully live — the
            # orphan artifacts are swept by the next successful
            # checkpoint or open().  Flipping first would open a window
            # where new appends land in a WAL that recovery, reading the
            # new CURRENT, never replays.
            write_snapshot(
                self.path,
                self.index,
                generation=generation,
                last_seq=self._last_seq,
                collection=self.name,
                extra={"checkpointed_ops": int(self._wal.n_records)},
            )
            new_wal = WriteAheadLog(self.path / wal_name(generation), sync=self.sync)
            set_current(self.path, generation)
            old_wal, self._wal = self._wal, new_wal
            self.generation = generation
            self._wal_base_seq = self._last_seq
            # Post-flip cleanup is best-effort: the state is already
            # durable and consistent, so a failing fsync/unlink here must
            # not take the collection down.
            try:
                old_wal.close()
                sweep(self.path, current=generation, keep=self.keep_generations)
            except OSError:
                pass
            return generation

    def compact(self) -> "Collection":
        """Compact the owned index (fold pending adds and tombstones).

        Not journaled: compaction reorganises the index without changing
        its logical content, so replaying the same log over the previous
        snapshot reaches an equivalent state.
        """
        with self._write_lock:
            self._check_open()
            self.index.compact()
            return self

    def __repr__(self) -> str:
        return (
            f"Collection(name={self.name!r}, path={str(self.path)!r}, "
            f"generation={self.generation}, last_seq={self._last_seq}, "
            f"wal_ops={self.wal_ops})"
        )
