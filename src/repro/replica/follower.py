"""The follower side of replication: apply the stream, serve reads, fail over.

A :class:`Follower` owns a **read-only** :class:`~repro.store.Collection`
and a replication source — anything with ``poll(since_seq, ...)`` and
``bootstrap_bundle()``: an in-process
:class:`~repro.replica.primary.Primary` or an
:class:`~repro.replica.transport.HttpReplicationSource` pulling a remote
``/replicate`` endpoint.  Each :meth:`sync` pulls the records after the
follower's own ``last_seq`` and applies them through
:meth:`Collection.apply_replicated` — journal-then-apply into the
follower's *own* WAL, keeping the primary's sequence numbers — so a
follower directory is recoverable exactly like a primary directory at
the same seq:

* crash a follower, :meth:`attach` its directory again, and sync resumes
  from its last durable record;
* lose the primary, call :meth:`promote`, and the collection flips
  writable at its last contiguous acknowledged seq — nothing the
  follower acknowledged is lost, which the replica test suite asserts
  bitwise against a never-killed reference.

If the primary checkpointed past this follower (the poll raises
:class:`~repro.utils.exceptions.BootstrapRequired`), :meth:`sync`
re-bootstraps from a fresh snapshot bundle automatically (count in
``resyncs``; disable with ``auto_resync=False``).

:class:`ReplicationLoop` drives ``sync()`` on a daemon thread, the same
idiom as :class:`~repro.store.MaintenanceLoop` — or call :meth:`sync`
directly for deterministic tests and benchmarks.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs.trace import span
from ..store.collection import Collection
from ..utils.exceptions import BootstrapRequired, ValidationError
from .wire import decode_wire_record


class Follower:
    """Apply one primary's replication stream to a read-only collection."""

    def __init__(
        self,
        collection,
        source,
        *,
        auto_resync: bool = True,
        service_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not collection.read_only:
            raise ValidationError(
                f"collection {collection.name!r} is writable; followers must "
                "open their copy read-only (the stream is the one writer)"
            )
        self.collection = collection
        self.source = source
        self.auto_resync = bool(auto_resync)
        #: the primary's last_seq as of the most recent poll (lag gauge)
        self.primary_last_seq = int(collection.last_seq)
        self.records_applied = 0
        self.polls = 0
        self.resyncs = 0
        self._service_kwargs = dict(service_kwargs or {})
        self._service = None
        # Serialises pollers: a ReplicationLoop and a staleness-waiting
        # read may both call sync(); interleaved polls at the same seq
        # would race to apply the same records.
        self._sync_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def bootstrap(
        cls, path, source, *, sync: Optional[str] = None, **kwargs
    ) -> "Follower":
        """New follower at ``path`` from the source's snapshot bundle.

        The bundle covers the primary's current snapshot generation; the
        first :meth:`sync` then pulls everything journaled after it.
        """
        collection = Collection.clone_from_bundle(
            path, source.bootstrap_bundle(), sync=sync, read_only=True
        )
        return cls(collection, source, **kwargs)

    @classmethod
    def attach(cls, path, source, *, sync: Optional[str] = None, **kwargs) -> "Follower":
        """Reopen an existing follower directory (crash recovery) and resume.

        :meth:`Collection.open` replays the follower's own WAL to its
        last contiguous record — exactly the primary-side recovery path —
        so syncing continues from the last durably applied seq.
        """
        collection = Collection.open(path, sync=sync, read_only=True)
        return cls(collection, source, **kwargs)

    # ------------------------------------------------------------------ #
    # gauges
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.collection.name

    @property
    def last_applied_seq(self) -> int:
        """Newest primary sequence number durably applied here."""
        return int(self.collection.last_seq)

    @property
    def lag(self) -> int:
        """Sequence distance behind the primary as of the last poll."""
        return max(0, self.primary_last_seq - self.last_applied_seq)

    # ------------------------------------------------------------------ #
    # the pull loop body
    # ------------------------------------------------------------------ #
    def sync(self, *, max_records: Optional[int] = None) -> int:
        """Pull and apply one batch; returns how many records were applied.

        Each record is CRC-verified, journaled to the follower's own WAL
        (fsynced under the collection's sync policy), and only then
        applied in memory — the follower acknowledges nothing it could
        not replay after a crash.
        """
        with self._sync_lock, span("replica.sync", follower=self.name) as sync_span:
            try:
                batch = self.source.poll(self.last_applied_seq, max_records=max_records)
            except BootstrapRequired:
                if not self.auto_resync:
                    raise
                self._resync_locked()
                batch = self.source.poll(self.last_applied_seq, max_records=max_records)
            self.polls += 1
            applied = 0
            for wire in batch.records:
                record, arrays = decode_wire_record(wire)
                self.collection.apply_replicated(record, arrays)
                applied += 1
            self.records_applied += applied
            self.primary_last_seq = max(int(batch.last_seq), self.last_applied_seq)
            sync_span.set(applied=applied, lag_seq=self.lag)
            return applied

    def resync(self) -> "Follower":
        """Discard the local copy and re-bootstrap from a fresh bundle."""
        with self._sync_lock:
            self._resync_locked()
        return self

    def _resync_locked(self) -> None:
        path = Path(self.collection.path)
        sync = self.collection.sync
        self.collection.close()
        shutil.rmtree(path)
        self.collection = Collection.clone_from_bundle(
            path, self.source.bootstrap_bundle(), sync=sync, read_only=True
        )
        self._service = None
        self.resyncs += 1

    # ------------------------------------------------------------------ #
    # serving + failover
    # ------------------------------------------------------------------ #
    def service(self, **kwargs):
        """A :class:`~repro.service.SearchService` over this follower's copy.

        Cached, and rebuilt automatically when a resync replaced the
        underlying collection object.  Mutation endpoints on it surface
        the collection's typed
        :class:`~repro.utils.exceptions.ReadOnlyError`.
        """
        from ..service.service import SearchService

        if self._service is None or self._service.collection is not self.collection:
            merged = {**self._service_kwargs, **kwargs}
            self._service = SearchService(self.collection, **merged)
        return self._service

    def promote(self) -> Collection:
        """Fail over: flip this follower's collection writable and return it.

        The collection already holds every record the follower durably
        acknowledged (journal-then-apply), replayed to the last
        contiguous seq if this copy was just :meth:`attach`-ed after a
        crash.  The caller must ensure the old primary is dead — two
        writable copies diverge.
        """
        with self._sync_lock:
            return self.collection.promote()

    def stats(self) -> Dict[str, Any]:
        return {
            "role": "follower",
            "name": self.name,
            "last_applied_seq": self.last_applied_seq,
            "primary_last_seq": int(self.primary_last_seq),
            "lag_seq": self.lag,
            "generation": int(self.collection.generation),
            "records_applied": int(self.records_applied),
            "polls": int(self.polls),
            "resyncs": int(self.resyncs),
            "read_only": bool(self.collection.read_only),
        }

    def __repr__(self) -> str:
        return (
            f"Follower(name={self.name!r}, last_applied_seq={self.last_applied_seq}, "
            f"lag={self.lag}, resyncs={self.resyncs})"
        )


class ReplicationLoop:
    """Drive :meth:`Follower.sync` on a daemon thread (or via ``run_once``).

    The follower-side analogue of
    :class:`~repro.store.MaintenanceLoop`: ``start()`` / ``stop()`` for
    background tailing at ``interval_seconds``, :meth:`run_once` for
    deterministic schedules in tests and benchmarks.  A sync that raises
    (dead source, poisoned collection) records ``last_error`` and stands
    down instead of spinning.
    """

    def __init__(
        self,
        follower: Follower,
        *,
        interval_seconds: float = 0.05,
        max_records: Optional[int] = None,
    ) -> None:
        if float(interval_seconds) <= 0:
            raise ValidationError("interval_seconds must be positive")
        if max_records is not None and int(max_records) < 1:
            raise ValidationError("max_records must be positive (or None)")
        self.follower = follower
        self.interval_seconds = float(interval_seconds)
        self.max_records = None if max_records is None else int(max_records)
        self.syncs = 0
        self.records = 0
        self.last_error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def run_once(self) -> int:
        applied = self.follower.sync(max_records=self.max_records)
        self.syncs += 1
        self.records += applied
        return applied

    def start(self) -> "ReplicationLoop":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"replication-{self.follower.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.run_once()
            except Exception as exc:  # pragma: no cover - timing dependent
                self.last_error = f"{type(exc).__name__}: {exc}"
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "ReplicationLoop":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
