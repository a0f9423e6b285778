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
  and the int32 reference kernel is exact on the code grid.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import load_index, make_index
from repro.datasets import sift_like
from repro.eval import recall_at_k
from repro.quant import Sq8Index, VectorStore
from repro.quant.memmap_store import HEADER_FILE, VECTORS_FILE
from repro.utils.distances import get_metric, pairwise_topk
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
                recall = recall_at_k(ids, data.ground_truth, 10)
                assert recall >= 0.9, (backend, sharded, recall)

    def test_rerank_knob_trades_recall_monotonically(self):
        data = sift_like(
            n_points=400, n_queries=16, dim=16, n_clusters=4, gt_k=10, seed=1
        )
        index = _build("pq-adc", data.base, n_subspaces=4, n_codewords=8)
        recalls = []
        for rerank in (10, 40, 400):
            ids, _ = index.batch_query(data.queries, 10, rerank=rerank)
            recalls.append(recall_at_k(ids, data.ground_truth, 10))
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

    def test_int32_reference_kernel_is_exact_on_the_code_grid(self):
        # The integer reference: uint8 x uint8 products accumulated in
        # int32 must equal an int64 accumulation exactly (no overflow).
        rng = np.random.default_rng(3)
        base = rng.normal(size=(300, 24))
        index = Sq8Index(row_block=64).build(base)
        query = rng.normal(size=24)
        got = index.int32_dot(query)
        assert got.dtype == np.int32
        q8 = index.quantize_queries(query)[0].astype(np.int64)
        codes = index._codes.astype(np.int64)
        np.testing.assert_array_equal(got, codes @ q8)

    def test_sq8_scores_rank_like_decoded_distances(self):
        # The float32 SGEMM kernel drops ||q||^2; adding it back must
        # reproduce the decoded-row squared distances to float32 accuracy.
        rng = np.random.default_rng(6)
        base = rng.normal(size=(150, 12))
        index = Sq8Index(row_block=32).build(base)
        queries = rng.normal(size=(4, 12))
        scores = index._scores(queries)
        decoded = index._codec.decode(index._codes)
        exact = get_metric("sqeuclidean")(queries, decoded)
        q_norms = np.einsum("ij,ij->i", queries, queries)
        np.testing.assert_allclose(
            scores + q_norms[:, None], exact, rtol=1e-4, atol=1e-3
        )

    def test_query_blocking_does_not_change_answers(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(220, 12))
        queries = rng.normal(size=(9, 12))
        one = _build("sq8", base, query_block=1)
        many = _build("sq8", base, query_block=64)
        ids_one, d_one = one.batch_query(queries, 8)
        ids_many, d_many = many.batch_query(queries, 8)
        np.testing.assert_array_equal(ids_one, ids_many)
        np.testing.assert_array_equal(d_one, d_many)
