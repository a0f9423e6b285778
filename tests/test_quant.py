"""Tests for the quantized two-stage hot path (repro.quant).

The central guarantees:

* **re-rank exactness** — every distance a two-stage backend returns is
  the exact full-precision distance for that (query, id) pair: equal to
  float32 brute force to the last-ulp tolerance of BLAS accumulation
  order, and bitwise-identical once the over-fetch budget covers every
  row (hypothesis property over metrics x backends x plain/sharded);
* **recall floor** — on clustered data the default over-fetch keeps
  recall@10 at or above 0.9 for both code families;
* **store durability** — a saved :class:`VectorStore` reopens bitwise;
  truncated, corrupt, or mismatched artifacts raise typed
  :class:`SerializationError`, never a silently wrong matrix;
* **WAL recovery** — a collection over a sharded quantized index
  recovers acknowledged mutations to bitwise-identical answers;
* **kernel fidelity** — ``distance_tables`` batched == single-query,
  and the int32 reference kernel is exact on the code grid;
* **tiled selection** — stage 1 returns exactly the first ``budget``
  columns of a stable argsort of the scores of the allowed rows for any
  tile shape, budget and filter mask, so ties keep the smallest row ids;
  a filtered scan scores each allowed row once and no other row.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import load_index, make_index
from repro.datasets import sift_like
from repro.eval import knn_accuracy
from repro.quant import Sq8Index, VectorStore
from repro.quant import base as quant_base
from repro.quant.memmap_store import HEADER_FILE, VECTORS_FILE
from repro.utils.distances import get_metric, iter_blocks, pairwise_topk
from repro.utils.exceptions import (
    ConfigurationError,
    SerializationError,
    ValidationError,
)

QUANT_BACKENDS = {
    "sq8": dict(),
    "pq-adc": dict(n_subspaces=4, n_codewords=32, seed=0),
}


def _build(backend, base, *, metric="euclidean", sharded=False, **overrides):
    params = dict(QUANT_BACKENDS[backend])
    params.update(overrides)
    if sharded:
        return make_index(
            "sharded", n_shards=2, spec=backend, metric=metric, shard_params=params
        ).build(base)
    return make_index(backend, metric=metric, **params).build(base)


# ---------------------------------------------------------------------- #
# hypothesis property: two-stage answers vs float32 brute force
# ---------------------------------------------------------------------- #
class TestTwoStageExactness:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        metric=st.sampled_from(["euclidean", "cosine"]),
        backend=st.sampled_from(sorted(QUANT_BACKENDS)),
        sharded=st.booleans(),
    )
    def test_returned_distances_are_exact_full_precision(
        self, seed, metric, backend, sharded
    ):
        rng = np.random.default_rng(seed)
        n, dim, k = 240, 16, 10
        base = rng.normal(size=(n, dim))
        queries = rng.normal(size=(5, dim))
        index = _build(backend, base, metric=metric, sharded=sharded)
        ids, distances = index.batch_query(queries, k)
        assert ids.shape == distances.shape == (5, k)
        assert (ids >= 0).all()
        # Stage 2 stores float32: the exactness bound is brute force
        # over the float32 copy (the cast to float64 inside the
        # metric kernels is value-preserving).
        stored = np.asarray(base, dtype=np.float32)
        full = get_metric(metric)(queries, stored)
        rows = np.arange(5)[:, None]
        np.testing.assert_allclose(
            distances, full[rows, ids], rtol=1e-12, atol=0
        )
        # each row is sorted and duplicate-free — a real top-k
        assert (np.diff(distances, axis=1) >= 0).all()
        assert all(len(set(row)) == k for row in ids)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        metric=st.sampled_from(["euclidean", "sqeuclidean", "cosine"]),
        backend=st.sampled_from(sorted(QUANT_BACKENDS)),
    )
    def test_saturated_budget_is_bitwise_brute_force(self, seed, metric, backend):
        # rerank >= n skips stage 1 entirely: the answer must be the
        # float32 brute-force answer, ids and distances bitwise.
        rng = np.random.default_rng(seed)
        n, dim, k = 150, 16, 10
        base = rng.normal(size=(n, dim))
        queries = rng.normal(size=(4, dim))
        index = _build(backend, base, metric=metric)
        ids, distances = index.batch_query(queries, k, rerank=n)
        # bitwise reference: the library's shared exact re-rank kernel
        # fed every row — float32 brute force through the same code path
        # partition indexes use
        from repro.core.base import rerank_candidates

        stored = np.asarray(base, dtype=np.float32)
        expected_ids, expected_distances = rerank_candidates(
            stored,
            queries,
            [np.arange(n)] * queries.shape[0],
            k,
            metric=metric,
        )
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_array_equal(distances, expected_distances)
        # independent check: pairwise_topk agrees up to BLAS
        # accumulation order (gemv per query vs one blocked gemm)
        alt_ids, alt_distances = pairwise_topk(queries, stored, k, metric=metric)
        np.testing.assert_array_equal(ids, alt_ids)
        np.testing.assert_allclose(distances, alt_distances, rtol=1e-12, atol=0)

    def test_recall_floor_at_default_overfetch(self):
        # Clustered data, default rerank_factor: both code families must
        # clear the documented recall@10 >= 0.9 floor (sq8's affine grid
        # is near-lossless here; pq-adc's coarser codes sit closer to it).
        data = sift_like(
            n_points=600, n_queries=20, dim=32, n_clusters=6, gt_k=10, seed=3
        )
        realistic = {
            "sq8": dict(),
            "pq-adc": dict(n_subspaces=8, n_codewords=64, seed=0),
        }
        for backend in sorted(QUANT_BACKENDS):
            for sharded in (False, True):
                index = _build(backend, data.base, sharded=sharded, **realistic[backend])
                ids, _ = index.batch_query(data.queries, 10)
                recall = knn_accuracy(ids, data.ground_truth, 10)
                assert recall >= 0.9, (backend, sharded, recall)

    def test_rerank_knob_trades_recall_monotonically(self):
        data = sift_like(
            n_points=400, n_queries=16, dim=16, n_clusters=4, gt_k=10, seed=1
        )
        index = _build("pq-adc", data.base, n_subspaces=4, n_codewords=8)
        recalls = []
        for rerank in (10, 40, 400):
            ids, _ = index.batch_query(data.queries, 10, rerank=rerank)
            recalls.append(knn_accuracy(ids, data.ground_truth, 10))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 1.0  # saturated budget == brute force

    def test_probes_translates_to_rerank_via_capabilities(self):
        # The serving layer's generic probes knob must reach the
        # over-fetch budget without quant-specific plumbing.
        index = make_index("sq8")
        assert index.capabilities.query_kwargs(80) == {"rerank": 80}
        assert index.capabilities.quantized and index.capabilities.rerank

    def test_unsupported_metric_is_rejected(self):
        with pytest.raises(ConfigurationError, match="metric"):
            make_index("sq8", metric="manhattan")
        with pytest.raises(ConfigurationError, match="256"):
            make_index("pq-adc", n_codewords=512)


# ---------------------------------------------------------------------- #
# inline filtering over code rows
# ---------------------------------------------------------------------- #
class TestQuantFiltering:
    SELECTIVITIES = (0.01, 0.1, 0.5)

    @pytest.mark.parametrize("backend", sorted(QUANT_BACKENDS))
    def test_filtered_matches_bruteforce_over_subset(self, backend):
        # At every selectivity each returned id satisfies the mask and
        # the low-selectivity path (subset <= budget) is exactly brute
        # force over the allowed rows.
        rng = np.random.default_rng(9)
        n, k = 400, 10
        base = rng.normal(size=(n, 12))
        queries = rng.normal(size=(6, 12))
        index = _build(backend, base)
        stored = np.asarray(base, dtype=np.float32)
        for selectivity in self.SELECTIVITIES:
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=int(n * selectivity), replace=False)] = True
            ids, distances = index.batch_query(queries, k, filter=mask)
            returned = ids[ids >= 0]
            assert mask[returned].all(), (backend, selectivity)
            assert np.isinf(distances[ids < 0]).all()
            allowed = np.flatnonzero(mask)
            top = min(k, allowed.size)
            local, exact = pairwise_topk(queries, stored[allowed], top)
            if allowed.size <= index.rerank_factor * k:
                # scan skipped: answers are brute force over the subset
                np.testing.assert_array_equal(ids[:, :top], allowed[local])
                np.testing.assert_allclose(
                    distances[:, :top], exact, rtol=1e-12, atol=0
                )
            else:
                # survivors still carry exact distances
                full = get_metric("euclidean")(queries, stored)
                rows = np.arange(queries.shape[0])[:, None]
                np.testing.assert_allclose(
                    distances, full[rows, ids], rtol=1e-12, atol=0
                )

    def test_empty_mask_returns_padding(self):
        rng = np.random.default_rng(0)
        index = _build("sq8", rng.normal(size=(50, 8)))
        ids, distances = index.batch_query(
            rng.normal(size=(3, 8)), 5, filter=np.zeros(50, dtype=bool)
        )
        assert (ids == -1).all() and np.isinf(distances).all()


# ---------------------------------------------------------------------- #
# VectorStore durability
# ---------------------------------------------------------------------- #
class TestVectorStore:
    def test_save_reopen_bitwise_round_trip(self, tmp_path):
        vectors = np.random.default_rng(0).normal(size=(64, 12)).astype(np.float32)
        store = VectorStore.create(tmp_path / "vs", vectors)
        assert store.shape == (64, 12) and len(store) == 64
        np.testing.assert_array_equal(np.asarray(store.vectors), vectors)
        reopened = VectorStore.open(tmp_path / "vs")
        assert isinstance(reopened.vectors, np.memmap)
        assert not reopened.vectors.flags.writeable
        np.testing.assert_array_equal(np.asarray(reopened.vectors), vectors)
        np.testing.assert_array_equal(reopened.rows([5, 1, 5]), vectors[[5, 1, 5]])
        assert reopened.file_bytes >= vectors.nbytes

    def test_create_over_existing_store_is_atomic_replace(self, tmp_path):
        first = np.zeros((4, 3), dtype=np.float32)
        second = np.ones((8, 3), dtype=np.float32)
        VectorStore.create(tmp_path / "vs", first)
        VectorStore.create(tmp_path / "vs", second)
        np.testing.assert_array_equal(
            np.asarray(VectorStore.open(tmp_path / "vs").vectors), second
        )

    def test_create_rejects_non_matrix(self, tmp_path):
        with pytest.raises(SerializationError, match="2-D"):
            VectorStore.create(tmp_path / "vs", np.zeros(8))

    def test_missing_header_and_missing_vectors_raise(self, tmp_path):
        with pytest.raises(SerializationError, match="not a vector store"):
            VectorStore.open(tmp_path / "nothing")
        VectorStore.create(tmp_path / "vs", np.zeros((4, 3), dtype=np.float32))
        (tmp_path / "vs" / VECTORS_FILE).unlink()
        with pytest.raises(SerializationError, match="incomplete"):
            VectorStore.open(tmp_path / "vs")

    def test_truncated_vectors_file_raises(self, tmp_path):
        VectorStore.create(
            tmp_path / "vs",
            np.random.default_rng(1).normal(size=(64, 16)).astype(np.float32),
        )
        vectors_file = tmp_path / "vs" / VECTORS_FILE
        for cut in (vectors_file.stat().st_size // 2, 40, 3):
            data = vectors_file.read_bytes()
            vectors_file.write_bytes(data[:cut])
            with pytest.raises(SerializationError):
                VectorStore.open(tmp_path / "vs")
            vectors_file.write_bytes(data)  # restore for the next cut
        VectorStore.open(tmp_path / "vs")  # restored file opens again

    def test_header_mismatches_raise(self, tmp_path):
        VectorStore.create(tmp_path / "vs", np.zeros((4, 3), dtype=np.float32))
        header_file = tmp_path / "vs" / HEADER_FILE
        good = json.loads(header_file.read_text())

        def rewrite(**overrides):
            header_file.write_text(json.dumps({**good, **overrides}))

        rewrite(shape=[5, 3])
        with pytest.raises(SerializationError, match="do not belong together"):
            VectorStore.open(tmp_path / "vs")
        rewrite(dtype="float64")
        with pytest.raises(SerializationError, match="dtype"):
            VectorStore.open(tmp_path / "vs")
        rewrite(format="something-else")
        with pytest.raises(SerializationError, match="header"):
            VectorStore.open(tmp_path / "vs")
        rewrite(format_version=99)
        with pytest.raises(SerializationError, match="version"):
            VectorStore.open(tmp_path / "vs")
        header_file.write_text("{not json")
        with pytest.raises(SerializationError, match="could not read"):
            VectorStore.open(tmp_path / "vs")


# ---------------------------------------------------------------------- #
# index persistence: memmapped re-rank after reload
# ---------------------------------------------------------------------- #
class TestQuantPersistence:
    @pytest.mark.parametrize("backend", sorted(QUANT_BACKENDS))
    def test_reloaded_index_is_bitwise_and_memmapped(self, backend, tmp_path):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(300, 16))
        queries = rng.normal(size=(6, 16))
        index = _build(backend, base, metric="cosine")
        ids, distances = index.batch_query(queries, 10)
        assert index.stats()["rerank_source"] == "resident"
        index.save(tmp_path / backend)
        reloaded = load_index(tmp_path / backend)
        re_ids, re_distances = reloaded.batch_query(queries, 10)
        np.testing.assert_array_equal(ids, re_ids)
        np.testing.assert_array_equal(distances, re_distances)
        # the re-rank vectors are a file-backed mapping, not resident
        stats = reloaded.stats()
        assert stats["rerank_source"] == "memmap"
        assert isinstance(reloaded._vectors, np.memmap)
        assert stats["mapped_bytes"] >= stats["float32_bytes"]
        assert stats["resident_bytes"] < stats["float32_bytes"]
        assert stats["resident_bytes"] == reloaded.resident_bytes()

    @pytest.mark.parametrize("backend", sorted(QUANT_BACKENDS))
    def test_manifest_with_retired_block_knobs_loads_bitwise(self, backend, tmp_path):
        # Manifests written before the tiled scan carry ``__query_block__``
        # (and ``row_block`` for sq8); they must load and answer unchanged.
        rng = np.random.default_rng(8)
        base = rng.normal(size=(300, 16))
        queries = rng.normal(size=(6, 16))
        index = _build(backend, base)
        ids, distances = index.batch_query(queries, 10)
        index.save(tmp_path / backend)
        manifest_path = tmp_path / backend / "index.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["__query_block__"] = 32
        if backend == "sq8":
            manifest["config"]["row_block"] = 512
        manifest_path.write_text(json.dumps(manifest))
        reloaded = load_index(tmp_path / backend)
        re_ids, re_distances = reloaded.batch_query(queries, 10)
        np.testing.assert_array_equal(ids, re_ids)
        np.testing.assert_array_equal(distances, re_distances)
        assert not hasattr(reloaded, "query_block")
        assert not hasattr(reloaded, "row_block")

    def test_mismatched_store_is_rejected_at_load(self, tmp_path):
        rng = np.random.default_rng(5)
        index = _build("sq8", rng.normal(size=(40, 8)))
        index.save(tmp_path / "idx")
        # swap in a store of the wrong shape: codes and vectors no
        # longer belong together, load must refuse
        VectorStore.create(
            tmp_path / "idx" / "vectors",
            rng.normal(size=(39, 8)).astype(np.float32),
        )
        with pytest.raises(SerializationError, match="do not belong together"):
            load_index(tmp_path / "idx")

    def test_missing_store_is_rejected_at_load(self, tmp_path):
        import shutil

        index = _build("sq8", np.random.default_rng(6).normal(size=(40, 8)))
        index.save(tmp_path / "idx")
        shutil.rmtree(tmp_path / "idx" / "vectors")
        with pytest.raises(SerializationError, match="not a vector store"):
            load_index(tmp_path / "idx")

    def test_sharded_quant_round_trips_through_save(self, tmp_path):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(200, 8))
        queries = rng.normal(size=(4, 8))
        sharded = make_index("sharded-sq8", n_shards=2).build(base)
        ids, distances = sharded.batch_query(queries, 5)
        sharded.save(tmp_path / "shq")
        reloaded = load_index(tmp_path / "shq")
        re_ids, re_distances = reloaded.batch_query(queries, 5)
        np.testing.assert_array_equal(ids, re_ids)
        np.testing.assert_array_equal(distances, re_distances)
        # every child shard re-ranks from its own memmapped store
        for child in reloaded._shards:
            assert child.stats()["rerank_source"] == "memmap"


# ---------------------------------------------------------------------- #
# durable collections over a quantized index
# ---------------------------------------------------------------------- #
class TestQuantCollection:
    def test_collection_recovers_via_wal_to_identical_answers(self, tmp_path):
        from repro.store import Collection

        rng = np.random.default_rng(8)
        base = rng.normal(size=(150, 8))
        queries = rng.normal(size=(5, 8))
        index = make_index("sharded-sq8", n_shards=2).build(base)
        collection = Collection.create(tmp_path / "qc", index)
        ids = collection.add(rng.normal(size=(12, 8)))
        collection.remove(ids[:4])
        collection.remove(np.arange(10))
        before = collection.batch_query(queries, 10)
        # -- crash: the process dies without close(); reopen replays the
        # snapshot (generation 0) plus the whole WAL tail
        recovered = Collection.open(tmp_path / "qc")
        after = recovered.batch_query(queries, 10)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])
        assert recovered.last_seq == collection.last_seq
        recovered.close()
        collection.close()

    def test_checkpoint_snapshots_quantized_shards(self, tmp_path):
        from repro.store import Collection, MaintenanceLoop

        rng = np.random.default_rng(10)
        base = rng.normal(size=(120, 8))
        queries = rng.normal(size=(4, 8))
        index = make_index("sharded-sq8", n_shards=2).build(base)
        collection = Collection.create(tmp_path / "qc", index)
        collection.add(rng.normal(size=(6, 8)))
        collection.remove(np.arange(3))
        MaintenanceLoop(collection, checkpoint_ops=1).run_once()
        assert collection.generation >= 1
        before = collection.batch_query(queries, 8)
        recovered = Collection.open(tmp_path / "qc")
        after = recovered.batch_query(queries, 8)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])
        recovered.close()
        collection.close()


# ---------------------------------------------------------------------- #
# kernel regressions
# ---------------------------------------------------------------------- #
class TestKernels:
    def test_distance_tables_single_equals_batched(self):
        from repro.ann import ProductQuantizer

        rng = np.random.default_rng(2)
        points = rng.normal(size=(200, 16))
        queries = rng.normal(size=(7, 16))
        pq = ProductQuantizer(4, 16, seed=0).fit(points)
        batched = pq.distance_tables(queries)
        assert batched.shape == (7, 4, pq.codebooks.shape[1])
        for i, query in enumerate(queries):
            np.testing.assert_array_equal(pq.distance_table(query), batched[i])
        # adc_distances (built on the single-query table) is unchanged
        codes = pq.encode(points)
        adc = pq.adc_distances(queries[0], codes)
        gathered = batched[0][np.arange(4)[None, :], codes].sum(axis=1)
        np.testing.assert_array_equal(adc, gathered)

    def test_distance_tables_validates_dimensionality(self):
        from repro.ann import ProductQuantizer

        pq = ProductQuantizer(4, 8, seed=0).fit(
            np.random.default_rng(0).normal(size=(50, 16))
        )
        with pytest.raises(ValidationError, match="dimensionality"):
            pq.distance_tables(np.zeros((2, 12)))

    def test_int32_reference_kernel_is_exact_on_the_code_grid(self, monkeypatch):
        # The integer reference: uint8 x uint8 products accumulated in
        # int32 must equal an int64 accumulation exactly (no overflow),
        # across many small tiles.
        monkeypatch.setattr(quant_base, "SCAN_TILE", 8 * 24 * 64)
        rng = np.random.default_rng(3)
        base = rng.normal(size=(300, 24))
        index = Sq8Index().build(base)
        query = rng.normal(size=24)
        got = index.int32_dot(query)
        assert got.dtype == np.int32
        q8 = index.quantize_queries(query)[0].astype(np.int64)
        codes = index._codes.astype(np.int64)
        np.testing.assert_array_equal(got, codes @ q8)
        # The float32 tile kernel is exact on the code grid too: on an
        # integer base (scale 1, offset 0) every norm and cross term is an
        # integer below 2^24, so fed a quantized query as its operand each
        # tile reproduces the int32 cross term plus ||x̂||² bitwise.
        grid = Sq8Index().build(_grid_base(rng, 300, 24))
        q8 = grid.quantize_queries(query)[0]
        operand = q8.astype(np.float32)[None, :]
        tiled = np.concatenate(
            [grid._tile_scores(operand, slice(start, start + 64)) for start in range(0, 300, 64)],
            axis=1,
        )
        np.testing.assert_array_equal(tiled[0] - grid._code_norms, grid.int32_dot(query))

    def test_sq8_scores_rank_like_decoded_distances(self):
        # The float32 SGEMM kernel drops ||q||² and -2 q·offset, both the
        # same for every row a query scores; adding them back must
        # reproduce the decoded-row squared distances to float32 accuracy.
        rng = np.random.default_rng(6)
        base = rng.normal(size=(150, 12))
        index = Sq8Index().build(base)
        queries = rng.normal(size=(4, 12))
        scores = index._tile_scores(index._encode_queries(queries), slice(0, 150))
        decoded = index._codec.decode(index._codes)
        exact = get_metric("sqeuclidean")(queries, decoded)
        q_norms = np.einsum("ij,ij->i", queries, queries)
        q_offsets = queries @ index._codec.offset
        np.testing.assert_allclose(
            scores + (q_norms - 2.0 * q_offsets)[:, None], exact, rtol=1e-4, atol=1e-3
        )

    def test_query_blocking_does_not_change_answers(self, monkeypatch):
        # Ties at the budget boundary keep the smallest row ids whatever
        # the tile shape.  On an integer grid (scale 1, offset 0) every
        # score is exact, so copies of a row tie bitwise: 5 copies of the
        # query sit at distance 0, 30 copies of a neighbour at distance 1,
        # and a budget of 12 cuts through the second group.
        rng = np.random.default_rng(11)
        n, dim, budget = 400, 12, 12
        base = _grid_base(rng, n, dim)
        query = rng.integers(1, 254, size=dim).astype(np.float64)
        neighbour = query.copy()
        neighbour[0] += 1.0
        slots = rng.permutation(np.arange(2, n))
        exact_ids, tied_ids = np.sort(slots[:5]), np.sort(slots[5:35])
        base[exact_ids] = query
        base[tied_ids] = neighbour
        queries = np.vstack([query, rng.integers(0, 255, size=(8, dim))])
        expected = np.concatenate([exact_ids, tied_ids[: budget - 5]])
        answers = []
        for tile in (8 * dim * 3, 8 * dim * 40, 1 << 21):
            monkeypatch.setattr(quant_base, "SCAN_TILE", tile)
            index = Sq8Index().build(base)
            for batch in (queries[:1], queries):
                ids, _, _ = index._scan(batch, budget, None)
                np.testing.assert_array_equal(ids[0], expected)
            answers.append(index.batch_query(queries, 8, rerank=budget))
        for ids, distances in answers[1:]:
            np.testing.assert_array_equal(ids, answers[0][0])
            np.testing.assert_array_equal(distances, answers[0][1])


def _grid_base(rng, n, dim):
    """Integer rows whose sq8 grid is exactly scale 1, offset 0.

    Rows 0 and 1 pin every dimension's range to [0, 255], so codes equal
    the values and every kernel score is an exactly representable integer
    — ties between copies are bitwise whatever BLAS does.
    """
    base = rng.integers(0, 8, size=(n, dim)).astype(np.float64)
    base[0], base[1] = 0.0, 255.0
    return base


def _mask_for(kind, n, rng):
    if kind == "none":
        return None
    if kind == "random":
        return rng.random(n) < 0.6
    mask = np.ones(n, dtype=bool)
    if kind == "blank-tiles":
        mask[:40] = False
        mask[80:100] = False
    else:  # "sparse-first-tile": one allowed row among the first 40
        mask[:40] = False
        mask[7] = True
    return mask


# ---------------------------------------------------------------------- #
# tiled stage 1: selection, tie-break and counters
# ---------------------------------------------------------------------- #
class TestTiledScan:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        backend=st.sampled_from(sorted(QUANT_BACKENDS)),
        tile=st.sampled_from([256, 4096, 1 << 21]),
        budget_kind=st.sampled_from(["small", "wide", "n-1"]),
        mask_kind=st.sampled_from(["none", "random", "blank-tiles", "sparse-first-tile"]),
        data=st.sampled_from(["grid", "float-1", "float-7"]),
    )
    def test_selection_matches_stable_argsort_of_full_scores(
        self, seed, backend, tile, budget_kind, mask_kind, data
    ):
        # SCAN_TILE=256 leaves 1-4 rows per tile, fewer than any budget.
        rng = np.random.default_rng(seed)
        n, dim = 150, 8
        if data == "grid":
            base = _grid_base(rng, n, dim)
            queries = rng.integers(0, 8, size=(4, dim)).astype(np.float64)
        else:
            base = rng.normal(size=(n, dim))
            queries = rng.normal(size=(int(data.split("-")[1]), dim))
        index = _build(backend, base)
        budget = {"small": 3, "wide": 17, "n-1": n - 1}[budget_kind]
        mask = _mask_for(mask_kind, n, rng)
        # batch_query re-ranks a subset that fits the budget without a scan
        assume(mask is None or mask.sum() > budget)
        allowed = None if mask is None else np.flatnonzero(mask)
        encoded = index._encode_queries(index._encode_input(queries))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quant_base, "SCAN_TILE", tile)
            ids, tiles, survivors = index._scan(queries, budget, allowed)
            step = index._tile_rows(min(len(queries), math.isqrt(tile)))
        if data == "grid":
            # exact integer scores: every tile shape gives the same bits,
            # so the reference is the whole unmasked score matrix
            full = index._tile_scores(encoded, slice(0, n))
            if mask is not None:
                full[:, ~mask] = np.inf
            expected = np.argsort(full, axis=1, kind="stable")[:, :budget]
        else:
            # float scores round by tile shape (a one-row SGEMV by a row's
            # place in its tile), so the reference scores the allowed rows
            # in the scan's own tiles
            scanned = np.arange(n) if allowed is None else allowed
            scored = np.hstack(
                [
                    index._tile_scores(
                        encoded,
                        slice(start, stop) if allowed is None else allowed[start:stop],
                    )
                    for start, stop in iter_blocks(scanned.size, step)
                ]
            )
            expected = scanned[np.argsort(scored, axis=1, kind="stable")[:, :budget]]
        np.testing.assert_array_equal(ids, expected)
        assert tiles >= 1 and survivors >= budget * len(queries)

    @pytest.mark.parametrize("backend", sorted(QUANT_BACKENDS))
    def test_filtered_scan_scores_only_allowed_rows(self, backend, monkeypatch):
        # A 16,384-element tile takes 128 queries at a time (4 pq-adc or
        # 128 sq8 rows per tile), so 150 queries make two query blocks;
        # each must score every allowed row exactly once and never a
        # disallowed one.
        monkeypatch.setattr(quant_base, "SCAN_TILE", 16_384)
        rng = np.random.default_rng(9)
        n, dim = 300, 8
        index = _build(backend, rng.normal(size=(n, dim)))
        queries = rng.normal(size=(150, dim))
        mask = rng.random(n) < 0.3
        mask[:50] = False
        allowed = np.flatnonzero(mask)
        scored = []
        tile_scores = index._tile_scores

        def spy(encoded, rows):
            scored.append((encoded.shape[0], np.arange(n)[rows]))
            return tile_scores(encoded, rows)

        monkeypatch.setattr(index, "_tile_scores", spy)
        ids, _ = index.batch_query(queries, 5, rerank=20, filter=mask)
        assert np.isin(ids, allowed).all()
        blocks = {}
        for query_rows, rows in scored:
            blocks.setdefault(query_rows, []).append(rows)
        assert sorted(blocks) == [22, 128]
        for tiles in blocks.values():
            np.testing.assert_array_equal(np.concatenate(tiles), allowed)

    def test_scan_span_carries_deterministic_counters(self, monkeypatch):
        from repro.obs import Tracer, TracingConfig, activate, deactivate

        # 2,000 grid rows at 16 dims: sq8 rows cost 8 * 16 floats, so a
        # 16,384-element tile holds 128 rows and the scan runs 16 tiles.
        monkeypatch.setattr(quant_base, "SCAN_TILE", 16_384)
        rng = np.random.default_rng(21)
        base = _grid_base(rng, 2000, 16)
        queries = rng.integers(0, 8, size=(6, 16)).astype(np.float64)
        index = Sq8Index().build(base)
        tracer = Tracer(TracingConfig())
        trace = tracer.begin("test.root")
        token = activate(trace)
        try:
            index.batch_query(queries, 10)
        finally:
            deactivate(token)
        payload = tracer.finish(trace)
        (scan,) = [s for s in payload["spans"] if s["name"] == "quant.scan"]
        # exact integer scores make both counters machine-independent
        assert scan["attributes"]["rows"] == 2000
        assert scan["attributes"]["tiles"] == 16
        assert scan["attributes"]["survivors"] == 1234
        assert scan["attributes"]["budget"] == 40
        assert index._scan(queries, 40, None)[1:] == (16, 1234)

        # A filter shrinks the scan to its allowed rows: 1,000 of them make
        # 8 tiles of 128.
        mask = np.arange(2000) % 2 == 1
        trace = tracer.begin("test.root")
        token = activate(trace)
        try:
            index.batch_query(queries, 10, filter=mask)
        finally:
            deactivate(token)
        payload = tracer.finish(trace)
        (scan,) = [s for s in payload["spans"] if s["name"] == "quant.scan"]
        assert scan["attributes"]["rows"] == 1000
        assert scan["attributes"]["tiles"] == 8
        assert scan["attributes"]["survivors"] == 1053
        assert index._scan(queries, 40, np.flatnonzero(mask))[1:] == (8, 1053)
