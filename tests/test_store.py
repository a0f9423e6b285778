"""Tests for the durable storage layer (repro.store).

The central guarantees:

* **WAL integrity** — records are length-prefixed and checksummed; a torn
  final record (the write that crashed) is tolerated and trimmed, while
  mid-log corruption raises a loud typed error instead of silently
  dropping acknowledged operations;
* **crash recovery** — for randomized interleavings of ``add`` /
  ``remove`` / ``set_attributes`` with a simulated crash at an arbitrary
  point (including a WAL truncated mid-record), ``Collection.open()``
  recovers, and filtered + unfiltered queries are bitwise-identical to an
  uncrashed reference applying the same acknowledged operations;
* **checkpoint atomicity** — write-new → fsync → rename → truncate: a
  checkpoint that never completed leaves the previous generation fully
  authoritative;
* **maintenance** — the loop drives checkpoints and compaction from the
  stack's mutation-pressure gauges;
* **serving** — SearchService/Router serve collections, mutating
  endpoints journal before acknowledging, and deployments round-trip.
"""

import shutil
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filter import Range, random_attribute_store
from repro.service import QueryRequest, Router, SearchService
from repro.shard import ShardedIndex
from repro.store import (
    Collection,
    MaintenanceLoop,
    WriteAheadLog,
    is_collection_dir,
    list_generations,
    read_current,
    wal_name,
)
from repro.utils.exceptions import StorageError, ValidationError

DIM = 8


def make_base(n: int = 120, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, DIM))


def build_index(base: np.ndarray, *, with_store: bool = True) -> ShardedIndex:
    index = ShardedIndex(3, compact_threshold=None).build(base)
    if with_store:
        index.set_attributes(random_attribute_store(base.shape[0], seed=11))
    return index


def attribute_rows(n: int, *, offset: int = 0) -> dict:
    return {
        "price": [float(10 * (offset + i) % 97) for i in range(n)],
        "shop": [f"shop-{(offset + i) % 3}" for i in range(n)],
        "labels": [["new"] if (offset + i) % 2 else [] for i in range(n)],
    }


# ---------------------------------------------------------------------- #
# the write-ahead log
# ---------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"seq": 1, "op": "add", "n": 2}, {"vectors": np.eye(2)})
            wal.append({"seq": 2, "op": "remove"}, {"ids": np.array([7, 9])})
            assert wal.n_records == 2
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 2  # reopen continues the count
            records = list(wal.replay())
        assert [r["op"] for r, _ in records] == ["add", "remove"]
        np.testing.assert_array_equal(records[0][1]["vectors"], np.eye(2))
        np.testing.assert_array_equal(records[1][1]["ids"], [7, 9])

    def test_torn_tail_is_tolerated_and_trimmed(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"seq": 1, "op": "add"}, {"vectors": np.ones((1, 4))})
        with open(path, "ab") as handle:
            handle.write(b"\x13\x37")  # a write that died mid-header
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 1
            # the torn bytes were trimmed: appending again stays valid
            wal.append({"seq": 2, "op": "remove"}, {"ids": np.array([0])})
            assert [r["seq"] for r, _ in wal.replay()] == [1, 2]

    def test_truncation_mid_record_drops_only_the_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"seq": 1, "op": "a"}, {})
            wal.append({"seq": 2, "op": "b"}, {"x": np.arange(64.0)})
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 17)  # cut into the final record
        with WriteAheadLog(path) as wal:
            assert [r["seq"] for r, _ in wal.replay()] == [1]

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"seq": 1, "op": "a"}, {"x": np.arange(32.0)})
            first_record_end = wal.n_bytes
            wal.append({"seq": 2, "op": "b"}, {})
        raw = bytearray(path.read_bytes())
        raw[first_record_end - 3] ^= 0xFF  # flip a byte inside record 1
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="corrupt, not torn"):
            list(WriteAheadLog(path).replay())

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"definitely not a wal file")
        with pytest.raises(StorageError, match="bad magic"):
            list(WriteAheadLog(path).replay())

    def test_unknown_sync_mode(self, tmp_path):
        with pytest.raises(ValidationError, match="sync mode"):
            WriteAheadLog(tmp_path / "wal.log", sync="sometimes")

    def test_rollback_trims_a_partial_append(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "a"}, {})
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 7)  # what a failed append leaves behind
        wal.rollback()
        wal.append({"seq": 2, "op": "b"}, {})
        assert [r["seq"] for r, _ in wal.replay()] == [1, 2]


# ---------------------------------------------------------------------- #
# collection basics
# ---------------------------------------------------------------------- #
class TestCollectionBasics:
    def test_create_requires_built_mutable_index(self, tmp_path):
        from repro.api import make_index

        immutable = make_index("bruteforce").build(make_base(30))
        with pytest.raises(ValidationError, match="mutable"):
            Collection.create(tmp_path / "a", immutable)
        with pytest.raises(ValidationError, match="built"):
            Collection.create(tmp_path / "b", ShardedIndex(2))

    def test_create_refuses_existing_collection(self, tmp_path):
        base = make_base()
        Collection.create(tmp_path / "c", build_index(base)).close()
        assert is_collection_dir(tmp_path / "c")
        with pytest.raises(StorageError, match="already holds a collection"):
            Collection.create(tmp_path / "c", build_index(base))

    def test_mutations_apply_immediately_and_are_acknowledged(self, tmp_path):
        base = make_base()
        collection = Collection.create(tmp_path / "c", build_index(base))
        ids = collection.add(np.ones((2, DIM)), attributes=attribute_rows(2))
        assert ids.tolist() == [120, 121]
        assert collection.wal_ops == 1 and collection.last_seq == 1
        got, _ = collection.query(np.ones(DIM), 1)
        assert got[0] in (120, 121)
        assert collection.remove([int(ids[0])]) == 1
        got, _ = collection.query(np.ones(DIM), 1)
        assert got[0] == 121
        assert collection.wal_ops == 2

    def test_invalid_operations_are_not_journaled(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        with pytest.raises(ValidationError, match="dim"):
            collection.add(np.ones((1, DIM + 3)))
        with pytest.raises(ValidationError, match="not present"):
            collection.remove([10_000])
        with pytest.raises(ValidationError, match="missing columns"):
            collection.add(np.ones((1, DIM)), attributes={"price": [1.0]})
        with pytest.raises(ValidationError, match="ragged"):
            collection.add(
                np.ones((2, DIM)),
                attributes={**attribute_rows(2), "price": [1.0]},
            )
        assert collection.wal_ops == 0  # nothing invalid reached the log

    def test_attribute_alignment_is_enforced(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        collection.add(np.ones((2, DIM)))  # store now lags two ids behind
        with pytest.raises(ValidationError, match="catch the store up"):
            collection.add(np.ones((1, DIM)), attributes=attribute_rows(1))
        with pytest.raises(ValidationError, match="would pass the index"):
            collection.set_attributes(attribute_rows(3))
        collection.set_attributes(attribute_rows(2))  # exact catch-up works
        assert collection.attributes.n_rows == 122

    def test_set_attributes_requires_a_store(self, tmp_path):
        collection = Collection.create(
            tmp_path / "c", build_index(make_base(), with_store=False)
        )
        with pytest.raises(ValidationError, match="no attribute store"):
            collection.set_attributes(attribute_rows(1))

    def test_closed_collection_refuses_writes(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        collection.close()
        with pytest.raises(StorageError, match="closed"):
            collection.add(np.ones((1, DIM)))

    def test_open_rejects_non_collections(self, tmp_path):
        with pytest.raises(StorageError, match="not a collection"):
            Collection.open(tmp_path)


# ---------------------------------------------------------------------- #
# crash recovery: the acceptance property
# ---------------------------------------------------------------------- #
def scripted_state(base_rows: int) -> dict:
    return {
        "total": base_rows,
        "store_rows": base_rows,
        "live": set(range(base_rows)),
    }


def apply_scripted_ops(rng: np.random.Generator, target, n_ops: int, state: dict):
    """Apply a deterministic random op sequence; works for collections and
    for the bare reference index.  ``state`` carries id bookkeeping across
    segments so a checkpoint can be interleaved between two calls."""
    is_collection = isinstance(target, Collection)
    index = target.index if is_collection else target
    store = target.attributes
    for _ in range(n_ops):
        op = rng.choice(["add", "add_attrs", "remove", "set_attributes"])
        if op == "remove" and len(state["live"]) > DIM:
            victims = rng.choice(
                sorted(state["live"]), size=int(rng.integers(1, 3)), replace=False
            )
            state["live"] -= set(int(v) for v in victims)
            if is_collection:
                target.remove(victims)
            else:
                index.remove(victims)
        elif op == "set_attributes" and state["store_rows"] < state["total"]:
            count = int(min(state["total"] - state["store_rows"], rng.integers(1, 3)))
            rows = attribute_rows(count, offset=state["store_rows"])
            if is_collection:
                target.set_attributes(rows)
            else:
                store.extend(rows)
            state["store_rows"] += count
        else:
            count = int(rng.integers(1, 4))
            vectors = rng.normal(size=(count, DIM))
            with_attrs = op == "add_attrs" and state["store_rows"] == state["total"]
            rows = attribute_rows(count, offset=state["total"]) if with_attrs else None
            if is_collection:
                ids = target.add(vectors, attributes=rows)
            else:
                ids = index.add(vectors)
                if rows is not None:
                    store.extend(rows)
            start = state["total"]
            assert ids.tolist() == list(range(start, start + count))
            state["live"] |= set(range(start, start + count))
            state["total"] += count
            if with_attrs:
                state["store_rows"] += count


class TestCrashRecovery:
    """Acceptance: recovery is bitwise-identical to the acknowledged state."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_ops=st.integers(min_value=0, max_value=14),
        checkpoint_after=st.integers(min_value=-1, max_value=14),
        torn_tail=st.booleans(),
    )
    def test_recovered_queries_match_uncrashed_reference(
        self, tmp_path_factory, seed, n_ops, checkpoint_after, torn_tail
    ):
        root = tmp_path_factory.mktemp("crash") / "collection"
        base = make_base(seed=seed % 7)
        collection = Collection.create(root, build_index(base))
        rng = np.random.default_rng(seed)
        # Interleave an explicit checkpoint into the op stream so crashes
        # land on every side of a generation flip.
        before = min(checkpoint_after, n_ops) if checkpoint_after >= 0 else n_ops
        state = scripted_state(base.shape[0])
        apply_scripted_ops(rng, collection, before, state)
        if checkpoint_after >= 0:
            collection.checkpoint()
            apply_scripted_ops(rng, collection, n_ops - before, state)
        # -- crash: the process dies without close(); optionally a torn
        # record (a write that never completed) sits at the log's tail.
        if torn_tail:
            with open(root / wal_name(collection.generation), "ab") as handle:
                handle.write(b"\xde\xad\xbe")
        recovered = Collection.open(root)

        # -- uncrashed reference: the same acknowledged ops (a checkpoint
        # is logically a no-op), applied straight to index + store.
        reference = build_index(base)
        reference_rng = np.random.default_rng(seed)
        reference_state = scripted_state(base.shape[0])
        apply_scripted_ops(reference_rng, reference, n_ops, reference_state)

        queries = np.random.default_rng(seed + 1).normal(size=(6, DIM))
        expected_ids, expected_d = reference.batch_query(queries, 10)
        got_ids, got_d = recovered.batch_query(queries, 10)
        np.testing.assert_array_equal(expected_ids, got_ids)
        np.testing.assert_array_equal(expected_d, got_d)
        predicate = Range("price", high=50.0)
        expected_ids, expected_d = reference.batch_query(queries, 10, filter=predicate)
        got_ids, got_d = recovered.batch_query(queries, 10, filter=predicate)
        np.testing.assert_array_equal(expected_ids, got_ids)
        np.testing.assert_array_equal(expected_d, got_d)
        assert recovered.last_seq == collection.last_seq
        recovered.close()

    def test_truncation_mid_record_loses_only_the_unacked_tail(self, tmp_path):
        base = make_base()
        collection = Collection.create(tmp_path / "c", build_index(base))
        collection.add(np.ones((1, DIM)))
        snapshot_before = collection.batch_query(np.ones((1, DIM)), 5)
        wal_path = tmp_path / "c" / wal_name(0)
        acked_size = wal_path.stat().st_size
        collection.add(np.full((1, DIM), 2.0))
        with open(wal_path, "r+b") as handle:
            handle.truncate(acked_size + 9)  # the final record dies mid-write
        recovered = Collection.open(tmp_path / "c")
        # the first add survives, the torn second one never happened
        assert recovered.last_seq == 1
        got = recovered.batch_query(np.ones((1, DIM)), 5)
        np.testing.assert_array_equal(snapshot_before[0], got[0])

    def test_recovery_of_10k_op_wal_is_fast(self, tmp_path):
        base = make_base(400)
        collection = Collection.create(
            tmp_path / "c", build_index(base, with_store=False), sync="never"
        )
        vectors = np.random.default_rng(0).normal(size=(10_000, DIM))
        for row in range(0, 10_000, 10):
            collection.add(vectors[row : row + 10])
        assert collection.wal_ops == 1000 and collection.last_seq == 1000
        collection.close()
        start = time.perf_counter()
        recovered = Collection.open(tmp_path / "c")
        elapsed = time.perf_counter() - start
        assert recovered.last_seq == 1000
        assert recovered.index.n_points == 400 + 10_000
        assert elapsed < 30.0, f"recovery took {elapsed:.1f}s"


# ---------------------------------------------------------------------- #
# checkpoints and generations
# ---------------------------------------------------------------------- #
class TestCheckpoints:
    def test_checkpoint_flips_generation_and_truncates_wal(self, tmp_path):
        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        collection.add(np.ones((2, DIM)))
        assert collection.checkpoint() == 1
        assert read_current(root) == 1
        assert collection.wal_ops == 0
        assert (root / wal_name(1)).is_file()
        assert not (root / wal_name(0)).is_file()
        # empty WAL -> checkpoint is a no-op unless forced
        assert collection.checkpoint() == 1
        assert collection.checkpoint(force=True) == 2

    def test_keep_generations_prunes_old_snapshots(self, tmp_path):
        root = tmp_path / "c"
        collection = Collection.create(
            root, build_index(make_base()), keep_generations=2
        )
        for _ in range(4):
            collection.add(np.ones((1, DIM)))
            collection.checkpoint()
        assert list_generations(root) == [3, 4]

    def test_orphan_generation_from_crashed_checkpoint_is_ignored(self, tmp_path):
        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        ids = collection.add(np.ones((1, DIM)))
        collection.close()
        # a checkpoint that died before the CURRENT flip: directory
        # exists, snapshot.json (written last) does not
        orphan = root / "generations" / "gen-0000000001"
        orphan.mkdir()
        (orphan / "half-written").write_text("junk")
        recovered = Collection.open(root)
        assert recovered.generation == 0
        assert recovered.last_seq == 1
        assert recovered.index.contains(ids).all()
        assert list_generations(root) == [0]  # the orphan was swept

    def test_corrupt_current_falls_back_to_previous_generation(self, tmp_path):
        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        collection.add(np.ones((1, DIM)))
        collection.checkpoint()
        collection.close()
        # generation 1 goes bad on disk; generation 0 still loads
        shutil.rmtree(root / "generations" / "gen-0000000001" / "index")
        recovered = Collection.open(root)
        assert recovered.generation == 0
        assert recovered.index.n_points == 120

    def test_failed_append_rolls_back_and_collection_stays_usable(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        collection.add(np.ones((1, DIM)))

        original = WriteAheadLog.append

        def exploding(self, record, arrays=None):
            self._handle.write(b"\x01\x02\x03")  # a partial frame, then death
            raise OSError("disk full")

        monkeypatch.setattr(WriteAheadLog, "append", exploding)
        with pytest.raises(StorageError, match="append failed"):
            collection.add(np.ones((1, DIM)))
        monkeypatch.setattr(WriteAheadLog, "append", original)
        # the partial frame was rolled back: later appends do not bury it
        # as mid-file corruption, and recovery sees exactly the acked ops
        collection.add(np.full((1, DIM), 2.0))
        recovered = Collection.open(root)
        assert recovered.last_seq == 2
        assert recovered.index.n_points == 122

    def test_failed_checkpoint_leaves_old_generation_live(
        self, tmp_path, monkeypatch
    ):
        import repro.store.collection as collection_module

        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        collection.add(np.ones((1, DIM)))

        def exploding(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(collection_module, "write_snapshot", exploding)
        with pytest.raises(OSError):
            collection.checkpoint()
        monkeypatch.undo()
        # nothing flipped: generation 0 is still live, writes still ack,
        # and recovery replays every acknowledged operation
        assert collection.generation == 0 and read_current(root) == 0
        collection.add(np.full((1, DIM), 2.0))
        recovered = Collection.open(root)
        assert recovered.last_seq == 2
        assert recovered.generation == 0

    def test_reopened_collection_continues_the_journal(self, tmp_path):
        root = tmp_path / "c"
        collection = Collection.create(root, build_index(make_base()))
        collection.add(np.ones((1, DIM)))
        collection.close()
        reopened = Collection.open(root)
        reopened.add(np.full((1, DIM), 2.0))
        assert reopened.last_seq == 2
        again = Collection.open(root)
        assert again.last_seq == 2
        assert again.index.n_points == 122


# ---------------------------------------------------------------------- #
# the maintenance loop
# ---------------------------------------------------------------------- #
class TestMaintenance:
    def test_run_once_checkpoints_on_wal_pressure(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        loop = MaintenanceLoop(
            collection, checkpoint_ops=3, compact_pressure=None
        )
        for _ in range(2):
            collection.add(np.ones((1, DIM)))
        assert loop.run_once()["checkpointed"] is False
        collection.add(np.ones((1, DIM)))
        actions = loop.run_once()
        assert actions["checkpointed"] is True and actions["generation"] == 1
        assert collection.wal_ops == 0
        assert loop.checkpoints == 1

    def test_run_once_compacts_on_mutation_pressure(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        loop = MaintenanceLoop(
            collection, checkpoint_ops=None, checkpoint_bytes=None, compact_pressure=0.1
        )
        collection.add(np.random.default_rng(0).normal(size=(30, DIM)))
        assert collection.index.n_pending == 30
        actions = loop.run_once()
        assert actions["compacted"] is True
        assert collection.index.n_pending == 0
        assert loop.run_once()["compacted"] is False  # pressure folded away

    def test_background_thread_runs_the_policy(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        collection.add(np.ones((1, DIM)))
        with MaintenanceLoop(
            collection, checkpoint_ops=1, interval_seconds=0.05
        ) as loop:
            deadline = time.time() + 5.0
            while loop.checkpoints == 0 and time.time() < deadline:
                time.sleep(0.02)
        assert loop.checkpoints >= 1
        assert collection.generation >= 1

    def test_invalid_thresholds(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        with pytest.raises(ValidationError):
            MaintenanceLoop(collection, checkpoint_ops=0)
        with pytest.raises(ValidationError):
            MaintenanceLoop(collection, compact_pressure=-1.0)
        with pytest.raises(ValidationError):
            MaintenanceLoop(collection, interval_seconds=0)


# ---------------------------------------------------------------------- #
# serving collections
# ---------------------------------------------------------------------- #
class TestServingCollections:
    def test_search_service_serves_and_mutates_a_collection(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base()))
        service = SearchService(collection, cache_size=8)
        assert service.name == "c"
        ids = service.add(np.ones((2, DIM)), attributes=attribute_rows(2, offset=120))
        assert collection.wal_ops == 1  # acked through the journal
        service.remove([int(ids[0])])
        result = service.search_batch(np.ones((1, DIM)), QueryRequest(k=3))
        assert int(result.ids[0, 0]) == int(ids[1])
        stats = service.stats()
        assert stats["collection"]["wal_ops"] == 2
        # one of the two pending adds was tombstoned again
        assert stats["mutation"]["n_pending"] == 1
        assert stats["mutation"]["n_tombstones"] == 1
        assert stats["mutation"]["mutation_pressure"] > 0
        assert "cache_hit_ratio" in stats

    def test_mutation_endpoints_on_plain_mutable_index(self, tmp_path):
        index = build_index(make_base())
        service = SearchService(index)
        ids = service.add(np.ones((1, DIM)), attributes=attribute_rows(1, offset=120))
        assert service.remove(ids) == 1
        from repro.api import make_index

        immutable = SearchService(make_index("bruteforce").build(make_base(30)))
        with pytest.raises(ValidationError, match="immutable"):
            immutable.add(np.ones((1, DIM)))

    def test_from_saved_detects_collection_directories(self, tmp_path):
        Collection.create(tmp_path / "c", build_index(make_base())).close()
        service = SearchService.from_saved(tmp_path / "c")
        assert service.collection is not None
        assert service.stats()["collection"]["generation"] == 0

    def test_router_deployment_with_collection_round_trips(self, tmp_path):
        collection = Collection.create(tmp_path / "col", build_index(make_base()))
        router = Router()
        router.add_collection("products", collection, cache_size=4)
        router.add_index(
            "static", build_index(make_base(60, seed=9), with_store=False)
        )
        ids = router.service("products").add(np.ones((1, DIM)))
        queries = np.random.default_rng(1).normal(size=(3, DIM))
        expected = router.search_batch(queries, QueryRequest(k=5), name="products")
        router.save(tmp_path / "deploy")

        reloaded = Router.load(tmp_path / "deploy")
        assert sorted(reloaded.names()) == ["products", "static"]
        got = reloaded.search_batch(queries, QueryRequest(k=5), name="products")
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.distances, got.distances)
        # the reloaded service is still durable: mutations journal
        service = reloaded.service("products")
        assert service.collection is not None
        more = service.add(np.full((1, DIM), 3.0))
        assert int(more[0]) == int(ids[0]) + 1

    def test_router_add_collection_from_path(self, tmp_path):
        Collection.create(tmp_path / "c", build_index(make_base())).close()
        router = Router()
        service = router.add_collection("c", tmp_path / "c")
        assert service.collection is not None


# ---------------------------------------------------------------------- #
# read-only collections (the follower side of replication)
# ---------------------------------------------------------------------- #
class TestReadOnlyCollections:
    def test_local_mutations_are_refused_with_a_typed_error(self, tmp_path):
        from repro.store import ReadOnlyError

        Collection.create(tmp_path / "c", build_index(make_base())).close()
        collection = Collection.open(tmp_path / "c", read_only=True)
        assert collection.read_only
        assert collection.stats()["read_only"] is True
        with pytest.raises(ReadOnlyError, match="read-only"):
            collection.add(np.ones((1, DIM)))
        with pytest.raises(ReadOnlyError, match="read-only"):
            collection.remove([0])
        with pytest.raises(ReadOnlyError, match="read-only"):
            collection.set_attributes(attribute_rows(1))
        # reads and maintenance still work: followers answer queries and
        # checkpoint their own replicated WAL
        ids, _ = collection.batch_query(np.ones((2, DIM)), 5)
        assert ids.shape == (2, 5)
        collection.checkpoint(force=True)
        collection.close()

    def test_read_only_error_maps_to_409_not_503(self):
        from repro.net.errors import api_error_from
        from repro.utils.exceptions import ReadOnlyError

        error = api_error_from(ReadOnlyError("nope"))
        assert (error.status, error.code) == (409, "read_only")

    def test_promote_flips_writable_in_place(self, tmp_path):
        Collection.create(tmp_path / "c", build_index(make_base())).close()
        collection = Collection.open(tmp_path / "c", read_only=True)
        promoted = collection.promote()
        assert promoted is collection and not collection.read_only
        ids = collection.add(np.ones((1, DIM)), attributes=attribute_rows(1, offset=120))
        assert ids.size == 1
        collection.close()


# ---------------------------------------------------------------------- #
# WAL partial replay: iter_from
# ---------------------------------------------------------------------- #
class TestWalIterFrom:
    @staticmethod
    def _write_wal(path, n_records: int):
        rng = np.random.default_rng(n_records)
        with WriteAheadLog(path) as wal:
            for seq in range(1, n_records + 1):
                wal.append(
                    {"seq": seq, "op": "add", "n": 1},
                    {"vectors": rng.normal(size=(1, 3))},
                )
        return WriteAheadLog(path)

    @staticmethod
    def _fold(pairs):
        """Reduce a record stream to a comparable state: seqs + running sums."""
        seqs, total = [], 0.0
        for record, arrays in pairs:
            seqs.append(record["seq"])
            total += float(arrays["vectors"].sum())
        return seqs, total

    @settings(max_examples=25, deadline=None)
    @given(
        n_records=st.integers(min_value=0, max_value=12),
        data=st.data(),
    )
    def test_replay_from_any_acked_seq_matches_full_replay(
        self, tmp_path_factory, n_records, data
    ):
        cut = data.draw(st.integers(min_value=0, max_value=n_records))
        path = tmp_path_factory.mktemp("iter-from") / "wal.log"
        with self._write_wal(path, n_records) as wal:
            full = list(wal.replay())
            prefix = [(r, a) for r, a in full if r["seq"] <= cut]
            resumed = list(wal.iter_from(cut))
            # prefix + iter_from(cut) reconstructs exactly the full replay
            prefix_seqs, prefix_sum = self._fold(prefix)
            resumed_seqs, resumed_sum = self._fold(resumed)
            full_seqs, full_sum = self._fold(full)
            assert prefix_seqs + resumed_seqs == full_seqs == list(
                range(1, n_records + 1)
            )
            assert prefix_sum + resumed_sum == pytest.approx(full_sum)

    def test_iter_from_beyond_the_log_is_empty(self, tmp_path):
        with self._write_wal(tmp_path / "wal.log", 3) as wal:
            assert list(wal.iter_from(3)) == []
            assert list(wal.iter_from(99)) == []
            assert [r["seq"] for r, _ in wal.iter_from(0)] == [1, 2, 3]
