"""The sq8 batch path's two stacked kernels against the code they replaced.

* ``rerank_candidates`` re-ranks every query whose candidate list has the
  same length in one stacked call.  ``per_query_rerank`` is the loop it
  replaced: one metric call per query, ``-1`` dropped first.  The stacked
  call must return the same ids and the same distance bits.
* ``Sq8Index._tile_scores`` folds ``||x̂||²`` into the tile's SGEMM for a
  tall enough tile.  ``separate_add_scores`` is the kernel it replaced:
  ``fl(q·x̂)`` from an SGEMM over the codes, then ``+ ||x̂||²`` in float32.
  The folded scores must be the same bits.

Both rest on BLAS summing a dot product in a fixed order, so CI re-runs
this file on single-threaded BLAS too.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.core import base as core_base
from repro.core.base import rerank_candidates
from repro.quant import Sq8Index, sq8
from repro.quant.sq8 import FOLD_MAX_DIM, FOLD_MIN_QUERIES, folds
from repro.utils.distances import get_metric
from repro.utils.topk import select

METRICS = ("euclidean", "sqeuclidean", "cosine")


def per_query_rerank(base, queries, candidate_lists, k, metric="euclidean"):
    """One metric call per query on its gathered rows; ``-1`` is padding."""
    metric_fn = get_metric(metric)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    base = np.asarray(base)
    out_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
    out_distances = np.full((queries.shape[0], k), np.inf)
    for i, candidates in enumerate(candidate_lists):
        candidates = np.asarray(candidates, dtype=np.int64)
        candidates = candidates[candidates >= 0]
        if candidates.size == 0:
            continue
        dists = metric_fn(queries[i : i + 1], base[candidates])[0]
        nearest = select(dists, k)
        out_ids[i, : nearest.size] = candidates[nearest]
        out_distances[i, : nearest.size] = dists[nearest]
    return out_ids, out_distances


def assert_same(base, queries, candidate_lists, k, metric):
    ids, distances = rerank_candidates(base, queries, candidate_lists, k, metric=metric)
    want_ids, want_distances = per_query_rerank(base, queries, candidate_lists, k, metric)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(distances, want_distances)


# ---------------------------------------------------------------------- #
# -1 is padding
# ---------------------------------------------------------------------- #
def test_minus_one_is_never_scored_or_returned():
    # Row -1 would be the last base row, the query's nearest.
    base = np.arange(12.0).reshape(4, 3)
    query = base[3] + 0.1
    ids, distances = rerank_candidates(base, query, [np.array([-1, 0])], 2)
    np.testing.assert_array_equal(ids, [[0, -1]])
    assert distances[0, 0] == pytest.approx(np.linalg.norm(query - base[0]))
    assert distances[0, 1] == np.inf
    # the same padding inside one (queries, width) array, anywhere in a row
    lists = np.array([[-1, 0, 2], [2, -1, -1], [-1, -1, -1]])
    ids, distances = rerank_candidates(base, np.vstack([query] * 3), lists, 3)
    np.testing.assert_array_equal(ids, [[2, 0, -1], [2, -1, -1], [-1, -1, -1]])
    assert np.isinf(distances[ids == -1]).all() and np.isfinite(distances[ids >= 0]).all()


# ---------------------------------------------------------------------- #
# stacked re-rank == per-query loop
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 5, 8, 17, 96])
def test_ragged_empty_and_padded_lists(metric, dtype, dim):
    rng = np.random.default_rng(dim)
    n = 300
    base = (rng.normal(size=(n, dim)) * rng.uniform(0.1, 4.0, size=dim)).astype(dtype)
    queries = rng.normal(size=(40, dim))
    ragged = [rng.choice(n, size=rng.integers(0, 50), replace=False) for _ in range(40)]
    ragged[3] = np.array([], dtype=np.int64)
    ragged[5] = np.concatenate([ragged[5], [-1, -1]])
    ragged[7] = np.array([-1, 4, -1, 9])
    padded = rng.integers(0, n, size=(40, 30))
    padded[::3, 20:] = -1  # scan_bins' trailing padding
    padded[1::7, :5] = -1  # and padding anywhere
    padded[2] = -1  # a row of padding only
    for k in (1, 10, 60):  # 60 is wider than any list
        assert_same(base, queries, ragged, k, metric)
        assert_same(base, queries, padded, k, metric)
        assert_same(base, queries, list(padded), k, metric)


@pytest.mark.parametrize("metric", METRICS)
def test_one_row_and_one_candidate(metric):
    rng = np.random.default_rng(1)
    base = rng.normal(size=(500, 64)).astype(np.float32)
    query = rng.normal(size=(1, 64))
    for width in (1, 2, 40, 500):
        lists = rng.integers(0, 500, size=(1, width))
        for k in (1, 10, 600):
            assert_same(base, query, lists, k, metric)
    # one candidate each for many queries: (q, 1, d) @ (q, d, 1) products
    queries = rng.normal(size=(30, 64))
    assert_same(base, queries, rng.integers(0, 500, size=(30, 1)), 5, metric)


@pytest.mark.parametrize("metric", METRICS)
def test_memmap_base_of_a_loaded_index(metric):
    rng = np.random.default_rng(2)
    index = Sq8Index(metric=metric).build(rng.normal(size=(400, 24)))
    queries = rng.normal(size=(50, 24))
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        loaded = Sq8Index.load(tmp)
        assert isinstance(loaded._vectors, np.memmap)
        assert_same(loaded._vectors, queries, rng.integers(0, 400, size=(50, 40)), 10, metric)
        shortlists = loaded._scan(queries, 40, None)[0]
        ids, distances = loaded.batch_query(queries, 10)
        want_ids, want_distances = per_query_rerank(loaded._vectors, queries, shortlists, 10, metric)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(distances, want_distances)
        del loaded


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dim, stacked", [(8, True), (32, False)])
def test_a_shared_list_of_every_row_is_gathered_in_bounded_blocks(metric, dim, stacked, monkeypatch):
    # rerank >= n: every query of a 256-row batch re-ranks all n rows.
    # Gathered whole, the batch would be 256 x 2000 x dim float64 (33-131
    # MB).  At dim 8 a query's rows are 128 KB and blocks of 16 queries
    # stack; at dim 32 a block would hold 4, so each query runs alone.
    rng = np.random.default_rng(3)
    n = 2000
    index = Sq8Index(metric=metric).build(rng.normal(size=(n, dim)))
    queries = rng.normal(size=(256, dim))
    gathered = []
    scored = core_base.stacked_distances

    def spy(block_queries, query_norms, rows, row_norms, metric):
        gathered.append((block_queries.shape[0], rows.nbytes))
        return scored(block_queries, query_norms, rows, row_norms, metric)

    monkeypatch.setattr(core_base, "stacked_distances", spy)
    ids, distances = index.batch_query(queries, 10, rerank=n)
    assert sum(rows for rows, _ in gathered) == 256
    assert max(size for _, size in gathered) <= core_base.RERANK_GATHER_BYTES
    if stacked:
        assert min(rows for rows, _ in gathered) >= core_base.RERANK_MIN_STACK
    else:
        assert len(gathered) == 256
    want_ids, want_distances = per_query_rerank(index._vectors, queries, [np.arange(n)] * 256, 10, metric)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(distances, want_distances)


# ---------------------------------------------------------------------- #
# folded sq8 tile == separate add
# ---------------------------------------------------------------------- #
def separate_add_scores(index, queries, rows):
    """The unfolded kernel: ``fl(q·x̂)`` by SGEMM over the codes, then ``+ ||x̂||²``."""
    encoded = (queries * (-2.0 * index._codec.scale)).astype(np.float32)
    scores = encoded @ index._codes[rows].astype(np.float32).T
    scores += index._code_norms[rows]
    return scores


@pytest.mark.parametrize("dim", [24, 96, FOLD_MAX_DIM])
def test_folded_tile_scores_equal_the_separate_add(dim):
    rng = np.random.default_rng(dim)
    n = 4000
    index = Sq8Index().build(rng.normal(size=(n, dim)) * rng.uniform(0.1, 5.0, size=dim))
    ids = np.sort(rng.choice(n, size=1500, replace=False))
    tiles = [
        slice(0, 3000),  # a full-height tile
        slice(3000, n),  # the ragged last one
        ids,  # a filtered tile: ascending row ids
        ids[:2],  # too short to fold
        slice(17, 18),  # one row: an SGEMV
        ids[5:6],
    ]
    folded = 0
    for n_queries in (1, FOLD_MIN_QUERIES - 1, FOLD_MIN_QUERIES, 256):
        queries = rng.normal(size=(n_queries, dim))
        encoded = index._encode_queries(queries)
        for rows in tiles:
            n_rows = np.arange(n)[rows].size
            folded += folds(n_queries, n_rows, dim)
            np.testing.assert_array_equal(
                index._tile_scores(encoded, rows), separate_add_scores(index, queries, rows)
            )
    if sq8.FOLD_BLAS:
        assert folded >= 3  # at least the full, ragged and filtered tiles of 256 queries
    else:  # a BLAS the fold was not checked on: every tile adds after the product
        assert folded == 0


def test_the_fold_runs_only_on_checked_blas(monkeypatch):
    # OpenBLAS's Haswell kernels (also run on Zen) do not keep the fold's
    # bits; forced onto them, the process never folds.
    probe = "from repro.quant import sq8; print(sq8._openblas()[1], sq8.FOLD_BLAS)"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-1] == "False"
    monkeypatch.setattr(sq8, "FOLD_BLAS", False)
    assert not folds(256, 2730, 96)
    index = Sq8Index().build(np.random.default_rng(2).normal(size=(100, 8)))
    assert index._encode_queries(np.ones((256, 8))).shape == (256, 8)


def test_the_fold_is_chosen_by_tile_shape(monkeypatch):
    monkeypatch.setattr(sq8, "FOLD_BLAS", True)
    assert not folds(1, 4096, 64)  # a one-row read: an SGEMV
    assert not folds(FOLD_MIN_QUERIES - 1, 4096, 96)
    assert folds(256, 2730, 96)  # the 256-query batch on 100k x 96
    assert not folds(256, 1, 96)  # a one-row tile: an SGEMV
    assert not folds(256, 2730, FOLD_MAX_DIM + 1)  # past one K block


def test_batch_answers_do_not_depend_on_the_fold(monkeypatch):
    # Folding every tall tile or none gives the same answers bit for bit.
    rng = np.random.default_rng(5)
    index = Sq8Index().build(rng.normal(size=(5000, 48)))
    queries = rng.normal(size=(300, 48))
    answers = [index.batch_query(queries, 10)]
    monkeypatch.setattr(sq8, "FOLD_MIN_QUERIES", 10**9)
    answers.append(index.batch_query(queries, 10))
    np.testing.assert_array_equal(answers[0][0], answers[1][0])
    np.testing.assert_array_equal(answers[0][1], answers[1][1])
