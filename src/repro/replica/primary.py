"""The primary side of replication: tail the WAL, ship acknowledged records.

A :class:`Primary` wraps a *writable* :class:`~repro.store.Collection`
and answers two pulls:

* :meth:`poll` — the incremental stream: every acknowledged WAL record
  after the follower's sequence number, in order, each frame CRC-wrapped
  by :mod:`~repro.replica.wire`.  The read happens under the
  collection's writer lock (via
  :meth:`~repro.store.Collection.wal_records_since`), so a batch is a
  consistent prefix of the log and a concurrent checkpoint can never
  swap the file mid-read.
* :meth:`bootstrap_bundle` — the snapshot path for brand-new followers,
  and for laggards whose requested history a checkpoint already folded
  away (``poll`` then raises
  :class:`~repro.utils.exceptions.BootstrapRequired` and the follower
  re-bootstraps).

The primary is passive — followers pull, in process or through the
``/replicate`` endpoint of :class:`repro.net.SearchServer`.  Pull keeps
the failure model simple: a dead or slow follower costs the primary
nothing, and restart/rewind logic lives entirely on the follower side.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..utils.exceptions import ValidationError
from .wire import ShippedBatch, encode_wire_record


class Primary:
    """Stream one collection's acknowledged writes to pulling followers."""

    def __init__(self, collection, *, name: Optional[str] = None) -> None:
        if collection.read_only:
            raise ValidationError(
                f"collection {collection.name!r} is read-only; a replication "
                "primary needs the writable copy"
            )
        self.collection = collection
        self.name = str(name) if name else collection.name
        self.records_shipped = 0
        self.polls = 0
        self.bootstraps = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the stream
    # ------------------------------------------------------------------ #
    @property
    def last_seq(self) -> int:
        return int(self.collection.last_seq)

    @property
    def wal_base_seq(self) -> int:
        return int(self.collection.wal_base_seq)

    @property
    def generation(self) -> int:
        return int(self.collection.generation)

    def poll(
        self, since_seq: int, *, max_records: Optional[int] = None
    ) -> ShippedBatch:
        """Acknowledged records after ``since_seq`` as a :class:`ShippedBatch`.

        Raises :class:`~repro.utils.exceptions.BootstrapRequired` when the
        live WAL no longer reaches back to ``since_seq`` and
        :class:`~repro.utils.exceptions.StorageError` when the caller is
        *ahead* of this primary (a diverged replica).
        """
        pairs, last_seq = self.collection.wal_records_since(
            since_seq, max_records=max_records
        )
        records = [encode_wire_record(record, arrays) for record, arrays in pairs]
        with self._lock:
            self.polls += 1
            self.records_shipped += len(records)
        return ShippedBatch(
            records=records,
            last_seq=last_seq,
            base_seq=self.wal_base_seq,
            generation=self.generation,
        )

    def bootstrap_bundle(self) -> Dict[str, Any]:
        """The current snapshot generation as a JSON-able bootstrap bundle."""
        bundle = self.collection.snapshot_bundle()
        with self._lock:
            self.bootstraps += 1
        return bundle

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counters = {
                "records_shipped": self.records_shipped,
                "polls": self.polls,
                "bootstraps": self.bootstraps,
            }
        return {
            "role": "primary",
            "name": self.name,
            "last_seq": self.last_seq,
            "wal_base_seq": self.wal_base_seq,
            "generation": self.generation,
            **counters,
        }
