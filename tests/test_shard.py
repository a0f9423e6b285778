"""Tests for the sharded, mutable composite index layer (repro.shard).

The central guarantees:

* **merge correctness** — a ``ShardedIndex`` over ``bruteforce`` shards
  returns exactly the neighbours a single ``bruteforce`` index returns
  on the concatenated data, for any shard count and metric (property
  test over random datasets); on duplicate vectors, shards and the
  pending buffer alike keep the smallest ids among equidistant rows;
* **mutability** — ``add`` / ``remove`` / ``compact`` change query
  results immediately, keep global ids stable, and survive save/load;
* **deployment persistence** — a sharded deployment round-trips through
  ``Router.save`` / ``Router.load`` as a directory of shard artifacts
  plus manifests.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MutableIndex, load_index, make_index
from repro.datasets import sift_like
from repro.service import QueryRequest, Router, SearchService
from repro.shard import (
    ContiguousPartitioner,
    KMeansRoutePartitioner,
    RoundRobinPartitioner,
    ShardedIndex,
    available_partitioners,
    make_partitioner,
)
from repro.utils.distances import pairwise_topk
from repro.utils.exceptions import ConfigurationError, NotFittedError, ValidationError


def clustered_points(seed: int, n: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(4, dim))
    labels = rng.integers(0, 4, size=n)
    return centers[labels] + rng.normal(size=(n, dim))


@pytest.fixture(scope="module")
def shard_dataset():
    return sift_like(n_points=400, n_queries=24, dim=16, n_clusters=4, gt_k=10, seed=5)


# ---------------------------------------------------------------------- #
# partitioners
# ---------------------------------------------------------------------- #
class TestPartitioners:
    def test_registry(self):
        assert available_partitioners() == ("contiguous", "kmeans", "round-robin")
        with pytest.raises(ConfigurationError, match="unknown partitioner"):
            make_partitioner("alphabetical")

    @pytest.mark.parametrize("name", ["round-robin", "contiguous", "kmeans"])
    def test_every_point_gets_a_shard(self, name, shard_dataset):
        partitioner = make_partitioner(name)
        labels = partitioner.partition(shard_dataset.base, 4)
        assert labels.shape == (shard_dataset.n_points,)
        assert labels.min() >= 0 and labels.max() < 4

    def test_round_robin_is_balanced_and_cursor_persists(self):
        partitioner = RoundRobinPartitioner()
        labels = partitioner.partition(np.zeros((10, 3)), 4)
        assert np.bincount(labels, minlength=4).max() <= 3
        # routing continues the deal where the build left off
        routed = partitioner.route(np.zeros((2, 3)), 4)
        assert routed.tolist() == [(10 + i) % 4 for i in range(2)]

    def test_contiguous_blocks_and_least_loaded_routing(self):
        partitioner = ContiguousPartitioner()
        labels = partitioner.partition(np.zeros((9, 2)), 3)
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        routed = partitioner.route(np.zeros((2, 2)), 3, shard_sizes=[5, 1, 4])
        assert routed.tolist() == [1, 1]

    def test_kmeans_routes_to_nearest_centroid(self):
        points = clustered_points(0, 120, 4)
        partitioner = KMeansRoutePartitioner(seed=0)
        labels = partitioner.partition(points, 3)
        routed = partitioner.route(points[:10], 3)
        np.testing.assert_array_equal(routed, labels[:10])
        with pytest.raises(ValidationError, match="before partition"):
            KMeansRoutePartitioner().route(points[:1], 3)


# ---------------------------------------------------------------------- #
# merge correctness: sharded bruteforce == single bruteforce
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
class TestShardedEqualsUnsharded:
    """Acceptance: the scatter-gather merge is provably exact."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bruteforce_shards_match_single_index(self, n_shards, metric, seed):
        points = clustered_points(seed, 90 + seed % 40, 6)
        queries = clustered_points(seed + 1, 8, 6)
        single = make_index("bruteforce", metric=metric).build(points)
        sharded = ShardedIndex(n_shards, metric=metric).build(points)
        expected_ids, expected_distances = single.batch_query(queries, 10)
        got_ids, got_distances = sharded.batch_query(queries, 10)
        np.testing.assert_array_equal(expected_ids, got_ids)
        np.testing.assert_allclose(expected_distances, got_distances, rtol=1e-12)


@pytest.mark.parametrize("partitioner", ["round-robin", "contiguous", "kmeans"])
def test_merge_exact_for_every_partitioner(partitioner, shard_dataset):
    single = make_index("bruteforce").build(shard_dataset.base)
    sharded = ShardedIndex(3, partitioner=partitioner).build(shard_dataset.base)
    expected, _ = single.batch_query(shard_dataset.queries, 10)
    got, _ = sharded.batch_query(shard_dataset.queries, 10)
    np.testing.assert_array_equal(expected, got)


def reload_with_legacy_pool_keys(index, path, parallel):
    """Save ``index``, then reload it from a manifest an older version wrote.

    Older versions had a thread-pool scatter and stored its settings in
    the manifest config; a freshly saved manifest must carry neither key.
    """
    path = index.save(path)
    manifest = json.loads((path / "index.json").read_text())
    assert not {"parallel", "max_workers"} & set(manifest["config"])
    manifest["config"].update({"parallel": parallel, "max_workers": 3})
    (path / "index.json").write_text(json.dumps(manifest))
    return load_index(path)


@pytest.mark.parametrize("parallel", ["serial", "thread"])
def test_parallel_modes_build_identical_indexes(parallel, shard_dataset, tmp_path):
    """A manifest naming either removed mode loads to a fresh build's answers."""
    saved = make_index("sharded-sq8", n_shards=3).build(shard_dataset.base)
    reloaded = reload_with_legacy_pool_keys(saved, tmp_path / "legacy", parallel)
    fresh = make_index("sharded-sq8", n_shards=3).build(shard_dataset.base)
    expected = fresh.batch_query(shard_dataset.queries, 5)
    got = reloaded.batch_query(shard_dataset.queries, 5)
    np.testing.assert_array_equal(expected[0], got[0])
    np.testing.assert_array_equal(expected[1], got[1])
    for name in ("parallel", "max_workers", "close"):
        assert not hasattr(reloaded, name)
        assert name not in reloaded.stats()


def test_every_shard_is_scanned_on_the_calling_thread(shard_dataset):
    """The scatter is a loop on the caller's thread: no hand-off, no pool."""
    import threading

    index = ShardedIndex(3).build(shard_dataset.base)
    scans = []  # (thread ident, shard) per child batch_query, in call order

    def recording(shard, scan):
        def batch_query(*args, **kwargs):
            scans.append((threading.get_ident(), shard))
            return scan(*args, **kwargs)

        return batch_query

    for shard, child in enumerate(index._shards):
        child.batch_query = recording(shard, child.batch_query)

    index.batch_query(shard_dataset.queries, 5)
    assert scans == [(threading.get_ident(), shard) for shard in range(3)]

    scans.clear()
    together = threading.Barrier(2)  # both callers alive: distinct idents

    def caller():
        together.wait()
        index.batch_query(shard_dataset.queries, 5)
        together.wait()

    callers = [threading.Thread(target=caller) for _ in range(2)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join()
    assert len(scans) == 6
    for thread in callers:
        assert [s for ident, s in scans if ident == thread.ident] == [0, 1, 2]


def test_more_shards_than_points_leaves_empty_shards_harmless():
    points = np.arange(10, dtype=np.float64).reshape(5, 2)
    index = ShardedIndex(7).build(points)
    ids, distances = index.batch_query(points, 3)
    np.testing.assert_array_equal(ids[:, 0], np.arange(5))
    assert np.isfinite(distances[:, :3]).all()


def test_mixed_backends_in_one_composite(shard_dataset):
    index = ShardedIndex(
        3,
        spec=["bruteforce", "kmeans", "ivf-flat"],
        shard_params=[{}, dict(n_bins=4, seed=0), dict(n_lists=4, seed=0)],
    ).build(shard_dataset.base)
    # probes is translated per shard: n_probes for kmeans/ivf, nothing for
    # the exact shard — one request shape drives all three backends.
    ids, _ = index.batch_query(shard_dataset.queries, 5, probes=4)
    assert ids.shape == (shard_dataset.n_queries, 5)
    assert {type(s).__name__ for s in index._shards} == {
        "BruteForceIndex",
        "KMeansIndex",
        "IVFFlatIndex",
    }


def test_configuration_errors(shard_dataset):
    with pytest.raises(ConfigurationError, match="one backend per shard"):
        ShardedIndex(3, spec=["bruteforce"])
    with pytest.raises(ConfigurationError, match="does not support metric"):
        ShardedIndex(2, spec="ivf-flat", metric="cosine")
    # the removed pool options are ordinary unknown keywords now
    with pytest.raises(TypeError, match="parallel"):
        ShardedIndex(2, parallel="serial")
    with pytest.raises(TypeError, match="max_workers"):
        make_index("sharded-sq8", max_workers=2)
    with pytest.raises(NotFittedError):
        ShardedIndex(2).batch_query(shard_dataset.queries, 5)


# ---------------------------------------------------------------------- #
# mutability: add / remove / compact
# ---------------------------------------------------------------------- #
class TestMutation:
    @pytest.fixture()
    def mutable_index(self, shard_dataset):
        return ShardedIndex(3, compact_threshold=None).build(shard_dataset.base)

    def test_satisfies_mutable_protocol(self, mutable_index):
        assert isinstance(mutable_index, MutableIndex)
        assert type(mutable_index).capabilities.mutable

    def test_added_vectors_are_found_immediately(self, mutable_index, shard_dataset):
        rng = np.random.default_rng(0)
        new = rng.normal(size=(5, shard_dataset.dim))
        ids = mutable_index.add(new)
        np.testing.assert_array_equal(
            ids, np.arange(shard_dataset.n_points, shard_dataset.n_points + 5)
        )
        got, _ = mutable_index.batch_query(new, 1)
        np.testing.assert_array_equal(got[:, 0], ids)
        assert mutable_index.n_pending == 5
        assert mutable_index.n_points == shard_dataset.n_points + 5

    def test_removed_ids_disappear_immediately(self, mutable_index, shard_dataset):
        target, _ = mutable_index.query(shard_dataset.queries[0], 1)
        assert mutable_index.remove(target) == 1
        ids, _ = mutable_index.batch_query(shard_dataset.queries, 10)
        assert not np.isin(ids, target).any()
        assert mutable_index.n_tombstones == 1

    def test_remove_validates_ids(self, mutable_index):
        with pytest.raises(ValidationError, match="ids must be in"):
            mutable_index.remove([10_000])
        mutable_index.remove([3])
        with pytest.raises(ValidationError, match="already removed"):
            mutable_index.remove([3])

    def test_version_counter_tracks_mutations(self, mutable_index, shard_dataset):
        assert mutable_index.version == 0
        mutable_index.add(np.zeros((1, shard_dataset.dim)))
        mutable_index.remove([0])
        mutable_index.compact()
        assert mutable_index.version == 3

    def test_mutated_results_match_fresh_exact_index(self, mutable_index, shard_dataset):
        """Queries against the mutated composite == exact scan of the live set."""
        rng = np.random.default_rng(1)
        added = rng.normal(size=(10, shard_dataset.dim))
        new_ids = mutable_index.add(added)
        removed = np.concatenate([[0, 5, 11], new_ids[:2]])
        mutable_index.remove(removed)

        all_data = np.vstack([shard_dataset.base, added])
        live = np.setdiff1d(np.arange(all_data.shape[0]), removed)
        local, _ = pairwise_topk(shard_dataset.queries, all_data[live], 10)
        expected = live[local]
        got, _ = mutable_index.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, got)

        # compact folds the pending buffer and tombstones into the shards
        # without changing a single answer (global ids are stable)
        mutable_index.compact()
        assert mutable_index.n_pending == 0 and mutable_index.n_tombstones == 0
        recompacted, _ = mutable_index.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, recompacted)

    def test_pending_duplicates_keep_the_smallest_ids(self, mutable_index, shard_dataset):
        """Copies of one vector in the pending buffer tie; the smallest ids win."""
        rng = np.random.default_rng(2)
        # Integer coordinates keep every copy's distance exactly 0.0, and
        # nothing built is as close.
        vector = np.round(shard_dataset.base.max(axis=0)) + 10.0
        added = np.repeat(vector[None, :], 40, axis=0)
        noise = rng.permutation(40)[:15]
        added[noise] += rng.normal(size=(15, shard_dataset.dim))
        new_ids = mutable_index.add(added)
        copies = np.delete(new_ids, noise)
        for k in (1, 4, 10, 24, 25):
            ids, distances = mutable_index.batch_query(vector, k)
            np.testing.assert_array_equal(ids[0], copies[:k])
            assert (distances[0] == 0.0).all()

    def test_copies_across_shards_with_one_tombstoned_match_bruteforce(self):
        """Copies of one vector in different shards tie across the merge; with
        one copy removed, the answers are a monolithic scan's over the live rows."""
        rng = np.random.default_rng(3)
        # Integer grid coordinates: every distance is exact and many tie.
        base = rng.integers(0, 3, size=(90, 4)).astype(np.float64)
        vector = np.full(4, 10.0)  # off the grid: only its copies lie at distance 0
        base[[5, 40, 41, 70, 88]] = vector  # dealt round-robin to shards 2, 1, 2, 1, 1
        index = make_index("sharded-bruteforce", n_shards=3, compact_threshold=None).build(base)
        removed = np.array([41, 12])
        index.remove(removed)
        live = np.setdiff1d(np.arange(base.shape[0]), removed)
        single = make_index("bruteforce").build(base[live])
        queries = np.vstack([vector, base[:7], rng.integers(0, 3, size=(5, 4))])
        for k in (1, 3, 4, 10, 30):
            expected, expected_distances = single.batch_query(queries, k)
            ids, distances = index.batch_query(queries, k)
            np.testing.assert_array_equal(ids, live[expected])
            np.testing.assert_array_equal(distances, expected_distances)
        ids, distances = index.batch_query(vector, 5)
        np.testing.assert_array_equal(ids[0, :4], [5, 40, 70, 88])
        assert (distances[0, :4] == 0.0).all() and distances[0, 4] > 0.0

    def test_many_small_adds_stay_exact_through_store_growth(self, shard_dataset):
        """Streaming one-row add() calls (amortised store growth) stay exact."""
        base, extra = shard_dataset.base[:100], shard_dataset.base[100:160]
        index = ShardedIndex(3, compact_threshold=None).build(base)
        for row in extra:
            index.add(row[None, :])
        assert index.n_points == 160 and index.n_pending == 60
        single = make_index("bruteforce").build(shard_dataset.base[:160])
        expected, _ = single.batch_query(shard_dataset.queries, 10)
        got, _ = index.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, got)

    def test_auto_compact_threshold(self, shard_dataset):
        index = ShardedIndex(2, compact_threshold=0.05).build(shard_dataset.base)
        index.add(np.random.default_rng(2).normal(size=(30, shard_dataset.dim)))
        assert index.n_pending == 0  # 30/400 > 5% triggered a compaction
        assert index.version >= 2  # the add and the compaction it triggered

    def test_concurrent_queries_during_mutation_never_tear(self, shard_dataset):
        """Readers racing a compacting writer get pre- or post-state answers.

        A torn shard/id-table pair would remap a shard-local id through
        the wrong table: the returned id would not actually lie at the
        returned distance.  Recomputing distances for every returned id
        catches that, whichever mutation state each query observed.
        """
        import threading

        index = ShardedIndex(4, compact_threshold=None).build(shard_dataset.base)
        queries = shard_dataset.queries[:4]
        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                ids, distances = index.batch_query(queries, 5)
                data = index._data  # rows are append-only, never rewritten
                for row, query in enumerate(queries):
                    valid = ids[row] >= 0
                    actual = np.linalg.norm(data[ids[row][valid]] - query, axis=1)
                    if not np.allclose(actual, distances[row][valid]):
                        failures.append((ids[row], distances[row]))
                        return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        rng = np.random.default_rng(7)
        try:
            for _ in range(10):
                added = index.add(rng.normal(size=(5, shard_dataset.dim)))
                index.remove(added[:2])
                index.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures

    def test_stats_aggregate_per_shard(self, mutable_index, shard_dataset):
        mutable_index.add(np.zeros((2, shard_dataset.dim)))
        mutable_index.remove([1])
        stats = mutable_index.stats()
        assert stats["n_shards"] == 3
        assert stats["pending"] == 2 and stats["tombstones"] == 1
        assert len(stats["shards"]) == 3
        assert sum(s["n_points"] for s in stats["shards"]) == shard_dataset.n_points
        assert 0.0 < stats["shard_balance"] <= 1.0
        assert stats["partitioner"] == "round-robin"


# ---------------------------------------------------------------------- #
# persistence: shard artifacts + manifest, mutations included
# ---------------------------------------------------------------------- #
class TestPersistence:
    def test_saved_layout_is_shard_artifacts_plus_manifest(self, shard_dataset, tmp_path):
        index = ShardedIndex(3).build(shard_dataset.base)
        path = tmp_path / "sharded"
        index.save(path)
        assert (path / "index.json").is_file()
        for shard in range(3):
            assert (path / f"shard-{shard}" / "index.json").is_file()

    def test_artifact_saved_with_the_removed_process_mode_loads_as_thread(
        self, shard_dataset, tmp_path
    ):
        index = ShardedIndex(3).build(shard_dataset.base)
        # "process": what the oldest versions could write
        reloaded = reload_with_legacy_pool_keys(index, tmp_path / "sharded", "process")
        expected = index.batch_query(shard_dataset.queries, 5)
        got = reloaded.batch_query(shard_dataset.queries, 5)
        np.testing.assert_array_equal(expected[0], got[0])
        np.testing.assert_array_equal(expected[1], got[1])

    def test_mutations_round_trip_through_save_load(self, shard_dataset, tmp_path):
        """Acceptance: add/remove/compact survive persistence."""
        index = ShardedIndex(
            3, partitioner="kmeans", compact_threshold=None
        ).build(shard_dataset.base)
        rng = np.random.default_rng(3)
        new_ids = index.add(rng.normal(size=(8, shard_dataset.dim)))
        index.remove([2, 7, int(new_ids[0])])
        expected, expected_distances = index.batch_query(shard_dataset.queries, 10)

        index.save(tmp_path / "mutated")
        reloaded = load_index(tmp_path / "mutated")
        assert isinstance(reloaded, ShardedIndex)
        assert reloaded.version == index.version
        assert reloaded.n_pending == index.n_pending
        got, got_distances = reloaded.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, got)
        np.testing.assert_array_equal(expected_distances, got_distances)

        # the reloaded index is still mutable: compaction works and keeps answers
        reloaded.compact()
        compacted, _ = reloaded.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, compacted)

    def test_save_after_compact_does_not_resurrect_tombstones(
        self, shard_dataset, tmp_path
    ):
        """Regression: compacted tombstones must stay compacted through save/load."""
        index = ShardedIndex(3, compact_threshold=None).build(shard_dataset.base)
        index.remove(np.arange(30))
        index.compact()
        assert index.n_tombstones == 0
        expected, _ = index.batch_query(shard_dataset.queries, 10)

        index.save(tmp_path / "compacted")
        reloaded = load_index(tmp_path / "compacted")
        assert reloaded.n_tombstones == 0  # no phantom over-fetch or stats
        got, _ = reloaded.batch_query(shard_dataset.queries, 10)
        np.testing.assert_array_equal(expected, got)
        # the first mutation after reload must not trigger a spurious
        # auto-compaction (version advances by exactly the add itself)
        reloaded.compact_threshold = 0.25
        version = reloaded.version
        reloaded.add(shard_dataset.queries[:1])
        assert reloaded.version == version + 1

    def test_per_shard_overfetch_is_local(self, shard_dataset):
        """Removals in one shard must not inflate every other shard's fetch."""
        index = ShardedIndex(4, compact_threshold=None).build(shard_dataset.base)
        victims = index._shard_ids[0][:20]  # all tombstones land in shard 0
        index.remove(victims)
        np.testing.assert_array_equal(index._dead_per_shard, [20, 0, 0, 0])
        single = make_index("bruteforce").build(shard_dataset.base)
        expected, _ = single.batch_query(shard_dataset.queries, 10)
        got, _ = index.batch_query(shard_dataset.queries, 10)
        # merge stays exact: dead ids are filtered, live ranking unchanged
        live_expected = np.where(
            np.isin(expected, victims), -1, expected
        )
        for row_expected, row_got in zip(live_expected, got):
            survivors = row_expected[row_expected >= 0]
            np.testing.assert_array_equal(row_got[: survivors.size], survivors)

    def test_registry_load_dispatches_by_name(self, shard_dataset, tmp_path):
        from repro.api.persistence import saved_index_name

        index = make_index(
            "sharded", spec="kmeans", partitioner="kmeans", n_shards=2,
            shard_params=dict(n_bins=4, seed=0),
        )
        index.build(shard_dataset.base)
        index.save(tmp_path / "by-name")
        assert saved_index_name(tmp_path / "by-name") == "sharded"
        reloaded = load_index(tmp_path / "by-name")
        a, _ = index.batch_query(shard_dataset.queries, 5, probes=2)
        b, _ = reloaded.batch_query(shard_dataset.queries, 5, probes=2)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------- #
# serving integration: SearchService + Router
# ---------------------------------------------------------------------- #
class TestServingIntegration:
    def test_service_translates_probes_for_the_composite(self, shard_dataset):
        index = make_index(
            "sharded", spec="kmeans", partitioner="kmeans", n_shards=2,
            shard_params=dict(n_bins=4, seed=0),
        ).build(shard_dataset.base)
        service = SearchService(index)
        assert service.query_kwargs(QueryRequest(probes=2)) == {"probes": 2}
        batch = service.search_batch(shard_dataset.queries, QueryRequest(k=5, probes=2))
        direct, _ = index.batch_query(shard_dataset.queries, 5, probes=2)
        np.testing.assert_array_equal(batch.ids, direct)

    def test_service_stats_surface_per_shard_stats(self, shard_dataset):
        index = ShardedIndex(2).build(shard_dataset.base)
        service = SearchService(index)
        service.search_batch(shard_dataset.queries, k=3)
        stats = service.stats()
        assert stats["index"]["n_shards"] == 2
        assert len(stats["index"]["shards"]) == 2

    def test_sharded_deployment_roundtrip_through_router(self, shard_dataset, tmp_path):
        """Acceptance: Router.save / Router.load over a sharded deployment."""
        router = Router()
        sharded = ShardedIndex(3, compact_threshold=None).build(shard_dataset.base)
        sharded.add(np.random.default_rng(4).normal(size=(4, shard_dataset.dim)))
        sharded.remove([1, 9])
        router.add_index("shards", sharded, cache_size=8)
        router.add_index(
            "exact", make_index("bruteforce").build(shard_dataset.base)
        )

        deployment = tmp_path / "deployment"
        router.save(deployment)
        assert (deployment / "indexes" / "shards" / "shard-0" / "index.json").is_file()
        reloaded = Router.load(deployment)
        assert reloaded.names() == router.names()
        for name in router.names():
            before = router.search_batch(shard_dataset.queries, name=name, k=5)
            after = reloaded.search_batch(shard_dataset.queries, name=name, k=5)
            np.testing.assert_array_equal(before.ids, after.ids)
            np.testing.assert_array_equal(before.distances, after.distances)

    def test_router_routes_by_mutability(self, shard_dataset):
        router = Router()
        router.add_index("shards", ShardedIndex(2).build(shard_dataset.base))
        router.add_index("exact", make_index("bruteforce").build(shard_dataset.base))
        assert router.route(mutable=True).name == "shards"
        assert router.route(mutable=False).name == "exact"


# ---------------------------------------------------------------------- #
# sweep integration: sharded curves
# ---------------------------------------------------------------------- #
class TestSweepIntegration:
    def test_accuracy_curve_rejects_sharded_index(self, shard_dataset):
        from repro.eval import accuracy_candidate_curve

        index = ShardedIndex(
            2, spec="kmeans", shard_params=dict(n_bins=4, seed=0)
        ).build(shard_dataset.base)
        # a composite routes nothing itself: its |C| is not one partition's bins
        with pytest.raises(ValidationError, match="does not route queries to bins"):
            accuracy_candidate_curve(index, shard_dataset, k=5, probes=[1, 4])
