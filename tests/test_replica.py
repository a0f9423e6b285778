"""Replication tests: wire codec, WAL shipping, replica-aware dispatch,
session guarantees, HTTP transport, and the failover acceptance property.

The acceptance bar mirrors PR 5's crash-recovery property: kill the
primary mid-stream under a randomized op interleaving (partial syncs,
optional mid-stream checkpoint forcing a snapshot resync, optional torn
bytes at the follower's WAL tail), promote a follower, and assert its
filtered and unfiltered answers are bitwise-identical to a never-killed
reference holding exactly the records the follower acknowledged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filter import Range
from repro.net import SearchServer, ServerConfig, request_json
from repro.replica import (
    Follower,
    HttpReplicationSource,
    Primary,
    ReplicaGroup,
    ReplicationLoop,
    SessionToken,
    ShippedBatch,
    decode_wire_record,
    encode_wire_record,
)
from repro.service import Router
from repro.store import BootstrapRequired, Collection, wal_name
from repro.utils.exceptions import (
    SerializationError,
    StorageError,
    ValidationError,
)
from test_store import (
    DIM,
    apply_scripted_ops,
    attribute_rows,
    build_index,
    make_base,
    scripted_state,
)


def make_pair(root, *, rows: int = 40):
    """A primary collection (with attributes) and a bootstrapped follower."""
    collection = Collection.create(root / "primary", build_index(make_base(rows)))
    primary = Primary(collection)
    follower = Follower.bootstrap(root / "replica", primary)
    return collection, primary, follower


def grow(collection, n: int, *, offset: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    collection.add(
        rng.normal(size=(n, DIM)), attributes=attribute_rows(n, offset=offset)
    )


# ---------------------------------------------------------------------- #
# the wire format
# ---------------------------------------------------------------------- #
class TestWireCodec:
    def test_round_trip_preserves_record_and_arrays(self):
        record = {"seq": 3, "op": "add", "n": 2}
        arrays = {"vectors": np.arange(6, dtype=np.float64).reshape(2, 3)}
        decoded_record, decoded_arrays = decode_wire_record(
            encode_wire_record(record, arrays)
        )
        assert decoded_record == record
        np.testing.assert_array_equal(decoded_arrays["vectors"], arrays["vectors"])

    def test_corrupted_checksum_is_refused(self):
        wire = encode_wire_record({"seq": 1, "op": "add"}, {})
        wire["crc32"] ^= 0xFF
        with pytest.raises(StorageError, match="CRC32"):
            decode_wire_record(wire)

    @pytest.mark.parametrize(
        "wire",
        [
            {},
            {"crc32": 0, "payload": "!!!not-base64!!!"},
            {"crc32": "x", "payload": ""},
        ],
    )
    def test_malformed_frames_are_refused(self, wire):
        with pytest.raises(StorageError, match="malformed replication frame"):
            decode_wire_record(wire)

    def test_batch_round_trips_through_json_shape(self):
        batch = ShippedBatch(
            records=[encode_wire_record({"seq": 1, "op": "add"}, {})],
            last_seq=5,
            base_seq=2,
            generation=1,
        )
        assert len(batch) == 1
        assert ShippedBatch.from_dict(batch.as_dict()) == batch
        with pytest.raises(StorageError, match="malformed replication batch"):
            ShippedBatch.from_dict({"last_seq": 1})


# ---------------------------------------------------------------------- #
# primary -> follower shipping (in process)
# ---------------------------------------------------------------------- #
class TestShipping:
    def test_bootstrap_then_sync_reaches_identical_answers(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        grow(collection, 8, offset=40)
        assert follower.last_applied_seq == 0
        applied = follower.sync()
        assert applied == 1 and follower.lag == 0
        queries = np.random.default_rng(5).normal(size=(4, DIM))
        for kwargs in ({}, {"filter": Range("price", high=50.0)}):
            expected = collection.batch_query(queries, 10, **kwargs)
            got = follower.collection.batch_query(queries, 10, **kwargs)
            np.testing.assert_array_equal(expected[0], got[0])
            np.testing.assert_array_equal(expected[1], got[1])
        collection.close()
        follower.collection.close()

    def test_max_records_truncates_but_reports_primary_seq(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        for batch_number in range(3):
            grow(collection, 2, offset=40 + 2 * batch_number, seed=batch_number)
        assert follower.sync(max_records=1) == 1
        assert follower.lag == 2  # truncated batch still reports last_seq
        assert follower.sync() == 2 and follower.lag == 0
        collection.close()
        follower.collection.close()

    def test_roles_are_enforced_at_construction(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        with pytest.raises(ValidationError, match="read-only"):
            Primary(follower.collection)
        with pytest.raises(ValidationError, match="writable"):
            Follower(collection, primary)
        collection.close()
        follower.collection.close()

    def test_diverged_follower_is_refused_loudly(self, tmp_path):
        collection, primary, _follower = make_pair(tmp_path)
        with pytest.raises(StorageError, match="diverged"):
            primary.poll(collection.last_seq + 5)
        collection.close()

    def test_checkpoint_past_follower_forces_bootstrap(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        grow(collection, 4, offset=40)
        collection.checkpoint()  # folds seq 1 into the snapshot
        strict = Follower(
            Collection.open(follower.collection.path, read_only=True),
            primary,
            auto_resync=False,
        )
        follower.collection.close()
        with pytest.raises(BootstrapRequired):
            strict.sync()
        strict.collection.close()

    def test_auto_resync_recovers_from_folded_history(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        grow(collection, 4, offset=40)
        collection.checkpoint()
        assert follower.sync() == 0  # re-bootstrapped at the checkpoint seq
        assert follower.resyncs == 1
        assert follower.last_applied_seq == collection.last_seq
        # the cached service is rebuilt over the replacement collection
        service = follower.service()
        assert service is follower.service()
        follower.resync()
        assert follower.service() is not service
        collection.close()
        follower.collection.close()

    def test_replication_loop_tails_live_writes(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        loop = ReplicationLoop(follower, interval_seconds=0.005)
        with loop:
            for batch_number in range(3):
                grow(collection, 2, offset=40 + 2 * batch_number, seed=batch_number)
            import time

            deadline = time.time() + 10.0
            while follower.last_applied_seq < collection.last_seq:
                assert time.time() < deadline, follower.stats()
                time.sleep(0.005)
        assert loop.records >= 3
        with pytest.raises(ValidationError):
            ReplicationLoop(follower, interval_seconds=0.0)
        collection.close()
        follower.collection.close()


# ---------------------------------------------------------------------- #
# read-replica dispatch + session guarantees
# ---------------------------------------------------------------------- #
class TestReplicaGroup:
    def test_reads_hit_followers_and_writes_hit_primary(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        group = ReplicaGroup(primary, [follower])
        query = np.random.default_rng(1).normal(size=(DIM,))
        group.search(query)
        group.search_batch(np.tile(query, (2, 1)))
        group.add(
            np.random.default_rng(2).normal(size=(2, DIM)),
            attributes=attribute_rows(2, offset=40),
        )
        stats = group.stats()
        assert stats["role"] == "replica_group"
        assert stats["dispatch"]["reads_follower"] == 2
        assert stats["dispatch"]["writes"] == 1
        assert stats["replication"]["max_lag_seq"] >= 0
        assert follower.last_applied_seq < collection.last_seq  # not yet synced
        assert group.sync_all() == 1
        assert follower.last_applied_seq == collection.last_seq
        assert group.max_lag() == 0
        collection.close()
        follower.collection.close()

    def test_session_waits_for_read_your_writes(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        group = ReplicaGroup(primary, [follower], staleness_budget_seconds=5.0)
        session = SessionToken()
        rng = np.random.default_rng(3)
        marker = rng.normal(size=(DIM,)) * 50.0
        group.add(
            marker[None, :], attributes=attribute_rows(1, offset=40), session=session
        )
        assert session.last_seen_seq == collection.last_seq
        # the follower is behind the token: the read must sync it first
        result = group.search(marker, session=session, k=1)
        assert int(result.ids[0]) == 40
        stats = group.stats()["dispatch"]
        assert stats["session_waits"] == 1
        assert stats["reads_follower"] == 1 and stats["session_redirects"] == 0
        collection.close()
        follower.collection.close()

    def test_zero_budget_redirects_to_primary(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        group = ReplicaGroup(primary, [follower], staleness_budget_seconds=0.0)
        session = SessionToken()
        group.add(
            np.random.default_rng(4).normal(size=(1, DIM)),
            attributes=attribute_rows(1, offset=40),
            session=session,
        )
        broken = follower.sync  # sever replication: every sync now fails

        def dead_sync(**kwargs):
            raise StorageError("primary unreachable")

        follower.sync = dead_sync
        try:
            result = group.search(
                np.random.default_rng(5).normal(size=(DIM,)), session=session, k=3
            )
        finally:
            follower.sync = broken
        assert result.ids.shape == (3,)
        stats = group.stats()["dispatch"]
        assert stats["session_redirects"] == 1 and stats["reads_primary"] == 1
        collection.close()
        follower.collection.close()

    def test_session_token_round_trips_as_json(self):
        token = SessionToken(7).observe(3)
        assert token.last_seen_seq == 7
        assert SessionToken.from_dict(token.as_dict()).last_seen_seq == 7

    def test_router_hosts_a_group_but_refuses_to_persist_it(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        group = ReplicaGroup(primary, [follower])
        router = Router()
        router.add_service("replicated", group)
        with pytest.raises(ValidationError, match="does not look like"):
            router.add_service("bogus", object())
        query = np.random.default_rng(6).normal(size=(DIM,))
        result = router.search(query, name="replicated", k=3)
        assert result.ids.shape == (3,)
        with pytest.raises(SerializationError, match="runtime wiring"):
            router.save(tmp_path / "deployment")
        collection.close()
        follower.collection.close()

    def test_group_validates_membership_and_budget(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        with pytest.raises(ValidationError, match="must be Follower"):
            ReplicaGroup(primary, [object()])
        with pytest.raises(ValidationError, match="staleness_budget_seconds"):
            ReplicaGroup(primary, staleness_budget_seconds=-1.0)
        collection.close()
        follower.collection.close()


# ---------------------------------------------------------------------- #
# replication over HTTP: the /replicate endpoint
# ---------------------------------------------------------------------- #
class TestHttpReplication:
    def test_full_lifecycle_over_the_wire(self, tmp_path):
        collection = Collection.create(
            tmp_path / "primary", build_index(make_base(40))
        )
        grow(collection, 8, offset=40)
        primary = Primary(collection)
        server = SearchServer(
            collection, replication=primary, config=ServerConfig(port=0)
        )
        with server:
            source = HttpReplicationSource.from_url(server.url)
            follower = Follower.bootstrap(tmp_path / "replica", source)
            assert follower.sync() == 1
            assert follower.last_applied_seq == collection.last_seq

            # leave the follower behind, fold the WAL away: the next poll
            # 409s and the follower re-bootstraps over HTTP
            grow(collection, 4, offset=48, seed=1)
            collection.checkpoint()
            follower.sync()
            assert follower.resyncs == 1
            assert follower.last_applied_seq == collection.last_seq

            status, stats = request_json(server.url + "/stats")
            assert status == 200
            assert stats["replication"]["role"] == "primary"
            assert stats["replication"]["bootstraps"] == 2
            status, text = request_json(server.url + "/metrics")
            assert 'repro_replica_role{name="primary",role="primary"} 1' in text
            assert "repro_replica_last_seq" in text
            assert "repro_http_errors_total" in text

            status, body = request_json(server.url + "/replicate?since_seq=abc")
            assert status == 400
            status, body = request_json(server.url + "/replicate?since_seq=999")
            assert status == 503  # diverged caller: storage_unavailable
            status, body = request_json(
                server.url + "/replicate", method="POST", body={}
            )
            assert status == 405
            follower.collection.close()
        assert server.drain_clean
        collection.close()

    def test_replicate_is_absent_without_a_primary(self, tmp_path):
        collection = Collection.create(tmp_path / "c", build_index(make_base(40)))
        with SearchServer(collection, config=ServerConfig(port=0)) as server:
            status, body = request_json(server.url + "/replicate?since_seq=0")
        assert status == 404
        collection.close()

    def test_follower_status_surfaces_in_observability(self, tmp_path):
        collection, primary, follower = make_pair(tmp_path)
        grow(collection, 2, offset=40)
        follower.sync()
        server = SearchServer(
            follower.service(), replication=follower, config=ServerConfig(port=0)
        )
        with server:
            status, stats = request_json(server.url + "/stats")
            assert stats["replication"]["role"] == "follower"
            assert stats["replication"]["lag_seq"] == 0
            status, text = request_json(server.url + "/metrics")
            assert "repro_replica_lag_seq" in text
            assert "repro_replica_records_applied_total" in text
            # a follower reports; it does not ship
            status, _ = request_json(server.url + "/replicate?since_seq=0")
            assert status == 404
        collection.close()
        follower.collection.close()

    def test_source_url_parsing_and_error_mapping(self):
        source = HttpReplicationSource.from_url("http://127.0.0.1:8123")
        assert (source.host, source.port) == ("127.0.0.1", 8123)
        with pytest.raises(StorageError, match="needs host and port"):
            HttpReplicationSource.from_url("127.0.0.1")
        with pytest.raises(BootstrapRequired):
            source._raise_for(
                409, {"error": {"code": "bootstrap_required", "message": "gone"}}, "poll"
            )
        with pytest.raises(StorageError, match="HTTP 500"):
            source._raise_for(500, {"error": {"code": "internal"}}, "poll")


# ---------------------------------------------------------------------- #
# failover: the acceptance property
# ---------------------------------------------------------------------- #
class TestFailover:
    """Kill the primary mid-stream, promote the follower, compare bitwise."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_ops=st.integers(min_value=0, max_value=12),
        max_records=st.integers(min_value=1, max_value=3),
        checkpoint_after=st.integers(min_value=-1, max_value=12),
        final_sync=st.booleans(),
        torn_tail=st.booleans(),
    )
    def test_promoted_follower_matches_never_killed_reference(
        self,
        tmp_path_factory,
        seed,
        n_ops,
        max_records,
        checkpoint_after,
        final_sync,
        torn_tail,
    ):
        root = tmp_path_factory.mktemp("failover")
        base = make_base(seed=seed % 7)
        primary_collection = Collection.create(root / "primary", build_index(base))
        primary = Primary(primary_collection)
        follower = Follower.bootstrap(root / "replica", primary)

        # -- randomized interleaving: ops on the primary, partial syncs
        # (truncated to max_records) on the follower, optionally a
        # checkpoint that folds history away mid-stream.
        rng = np.random.default_rng(seed)
        sync_rng = np.random.default_rng(seed + 1)
        state = scripted_state(base.shape[0])
        for op_number in range(n_ops):
            apply_scripted_ops(rng, primary_collection, 1, state)
            if op_number == checkpoint_after:
                primary_collection.checkpoint()
            if sync_rng.random() < 0.6:
                follower.sync(max_records=max_records)
        if final_sync:
            while follower.sync(max_records=max_records):
                pass
        acked = follower.last_applied_seq
        primary_seq_at_kill = primary_collection.last_seq

        # -- kill: the primary dies and never ships another record; the
        # replica host crashes too (optionally mid-write, leaving torn
        # bytes at its WAL tail) and restarts cold.
        primary_collection.close()
        if final_sync:
            # fully drained before the kill: no acknowledged write is lost
            assert acked == primary_seq_at_kill
        generation = follower.collection.generation
        follower.collection.close()
        if torn_tail:
            with open(root / "replica" / wal_name(generation), "ab") as handle:
                handle.write(b"\xba\xad\xf0")
        survivor = Follower.attach(root / "replica", primary)
        assert survivor.last_applied_seq == acked
        promoted = survivor.promote()
        assert not promoted.read_only

        # -- reference: a never-killed copy holding exactly the ops the
        # follower acknowledged (the op stream is a deterministic prefix).
        reference = build_index(base)
        reference_rng = np.random.default_rng(seed)
        reference_state = scripted_state(base.shape[0])
        apply_scripted_ops(reference_rng, reference, acked, reference_state)

        queries = np.random.default_rng(seed + 2).normal(size=(6, DIM))
        for kwargs in ({}, {"filter": Range("price", high=50.0)}):
            expected_ids, expected_d = reference.batch_query(queries, 10, **kwargs)
            got_ids, got_d = promoted.batch_query(queries, 10, **kwargs)
            np.testing.assert_array_equal(expected_ids, got_ids)
            np.testing.assert_array_equal(expected_d, got_d)

        # -- the promoted copy is a real primary: it journals new writes
        # under its own WAL, continuing the sequence it acknowledged.
        apply_scripted_ops(
            np.random.default_rng(seed + 3), promoted, 2, reference_state
        )
        assert promoted.last_seq == acked + 2
        promoted.close()
