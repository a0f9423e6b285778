"""Durable storage: collections with a write-ahead log and crash recovery.

The serving (:mod:`repro.service`), composition (:mod:`repro.shard`), and
filter (:mod:`repro.filter`) layers made indexes mutable — but every
mutation lived only in process memory.  This package adds the missing
durability discipline, the same WAL + snapshot + recovery design
in-database vector systems treat as table stakes:

* :class:`Collection` — a named directory owning a mutable index and its
  attribute store.  ``add`` / ``remove`` / ``set_attributes`` are
  appended to a checksummed :class:`WriteAheadLog` (fsynced before the
  caller is acknowledged) and then applied in memory; vectors and their
  attribute rows share one record, so neither can outlive the other.
* :mod:`~repro.store.snapshot` — checkpoints materialise the state as an
  atomic generation directory through the PR-1 persistence format
  (write-new → fsync → rename ``CURRENT`` → truncate WAL).
* :meth:`Collection.open` — crash recovery: load the newest valid
  snapshot, replay the WAL tail (tolerating a torn final record), and
  answer queries bitwise-identically to the pre-crash process for every
  acknowledged operation.
* :class:`MaintenanceLoop` — a background thread (or explicit
  ``run_once()``) driving auto-checkpoint and index compaction from the
  stack's mutation-pressure gauges.

Example
-------
>>> from repro.store import Collection
>>> collection = Collection.create("/data/products", index)
>>> ids = collection.add(vectors, attributes={"price": prices, ...})
>>> # ... process dies ...
>>> collection = Collection.open("/data/products")   # identical answers
"""

from ..utils.exceptions import BootstrapRequired, ReadOnlyError
from .collection import COLLECTION_FILE, Collection, is_collection_dir
from .maintenance import MaintenanceLoop
from .snapshot import (
    CURRENT_FILE,
    GENERATIONS_DIR,
    generation_name,
    list_generations,
    read_current,
    wal_name,
)
from .wal import SYNC_MODES, WriteAheadLog

__all__ = [
    "BootstrapRequired",
    "COLLECTION_FILE",
    "Collection",
    "ReadOnlyError",
    "is_collection_dir",
    "MaintenanceLoop",
    "CURRENT_FILE",
    "GENERATIONS_DIR",
    "generation_name",
    "list_generations",
    "read_current",
    "wal_name",
    "SYNC_MODES",
    "WriteAheadLog",
]
