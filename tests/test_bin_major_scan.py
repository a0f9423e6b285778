"""The unfiltered partition query path scores bins in place.

``PartitionIndexBase.batch_query`` scans each probed bin's row range of a
bin-major copy of the base instead of gathering the candidate rows.  It
must give what the gather-based :func:`rerank_candidates` gives on
:meth:`candidate_sets`:

* at ``n_probes=1`` bit for bit — ids *and* distances;
* at more probes the same ids, with distances at rtol 1e-12 (a per-bin
  product and one product over the concatenated bins may round the last
  bit differently);

and it pins what the gather never guaranteed: a (query, id) distance does
not depend on how many bins were probed.  The scan walks bins, not
queries, so a query's answer must not depend on which other queries share
its batch.  Exact distance ties go to the lower gathered position, as in a
stable sort over the concatenated candidate sets.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.base as core_base
from repro.api import RegisteredIndex, get_spec, load_index, make_index
from repro.core import PartitionIndexBase, rerank_candidates
from repro.datasets import sift_like
from repro.utils.distances import get_metric, squared_euclidean
from repro.utils.topk import merge, select
from test_api_registry import TINY_PARAMS

METRICS = ("euclidean", "sqeuclidean", "cosine")
K = 10


PARTITION_BACKENDS = sorted(name for name in TINY_PARAMS if issubclass(get_spec(name).cls, PartitionIndexBase))


@pytest.fixture(scope="module")
def data():
    return sift_like(n_points=300, n_queries=12, dim=16, n_clusters=4, seed=5)


@pytest.fixture(scope="module")
def built(data):
    return {name: make_index(name, **TINY_PARAMS[name]).build(data.base) for name in PARTITION_BACKENDS}


def _gathered(index, queries, k, n_probes):
    """The reference answer: gather each candidate set, then re-rank it."""
    candidates = index.candidate_sets(queries, n_probes)
    return rerank_candidates(index._base, queries, candidates, k, metric=index.metric)


def _check_against_gather(index, queries, k):
    for n_probes in sorted({1, 2, 3, index.n_bins}):
        ids, distances = index.batch_query(queries, k, n_probes=n_probes)
        ref_ids, ref_distances = _gathered(index, queries, k, n_probes)
        np.testing.assert_array_equal(ids, ref_ids)
        if n_probes == 1:
            np.testing.assert_array_equal(distances, ref_distances)
        else:
            np.testing.assert_allclose(distances, ref_distances, rtol=1e-12, atol=0)


def test_every_partition_backend_is_covered():
    assert {"usp", "kmeans", "ivf-flat", "regression-lsh", "usp-hierarchical"} <= set(PARTITION_BACKENDS)
    # every partition index answers through the scan, none brings its own query;
    # ivf-pq scans ADC codes behind an ivf-flat (tests/test_partitioned_adc.py)
    assert all(get_spec(name).cls.query is RegisteredIndex.query for name in PARTITION_BACKENDS)
    assert "ivf-pq" not in PARTITION_BACKENDS


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("name", PARTITION_BACKENDS)
def test_scan_matches_gather(built, data, name, metric):
    index = built[name]
    index.metric = metric
    # base rows as queries: |q|^2 + |x|^2 - 2 q.x may cancel below zero
    queries = np.vstack([data.queries, data.base[:20]])
    try:
        _check_against_gather(index, queries, K)
        _check_against_gather(index, queries[3:4], K)  # a single-row batch
    finally:
        index.metric = "euclidean"


class _HandBins(PartitionIndexBase):
    """Bins given by hand; a query ranks them by distance to their anchors."""

    def __init__(self, anchors: np.ndarray) -> None:
        super().__init__()
        self.anchors = anchors

    def build(self, base: np.ndarray, assignments: np.ndarray) -> "_HandBins":
        self._finalize_build(base, assignments, self.anchors.shape[0])
        return self

    def bin_scores(self, queries: np.ndarray) -> np.ndarray:
        return -squared_euclidean(queries, self.anchors)


@pytest.mark.parametrize("metric", METRICS)
def test_empty_and_underfull_bins_pad_like_the_gather(metric):
    rng = np.random.default_rng(11)
    anchors = rng.normal(scale=10.0, size=(4, 8))
    sizes = [30, 3, 0, 7]  # bin 1 holds fewer than K rows, bin 2 none
    assignments = np.repeat(np.arange(4), sizes)
    base = anchors[assignments] + rng.normal(size=(sum(sizes), 8))
    queries = anchors + 0.01 * rng.normal(size=anchors.shape)  # query b lands in bin b
    index = _HandBins(anchors).build(base, rng.permutation(assignments))
    index.metric = metric
    np.testing.assert_array_equal(index.top_bins(queries, 1)[:, 0], np.arange(4))
    _check_against_gather(index, queries, K)
    ids, distances = index.batch_query(queries, K, n_probes=1)
    assert (ids[1, 3:] == -1).all() and np.isinf(distances[1, 3:]).all()
    assert (ids[2] == -1).all() and np.isinf(distances[2]).all()
    assert (ids[1, :3] >= 0).all()


@pytest.mark.parametrize("metric", METRICS)
def test_a_distance_does_not_depend_on_the_probe_count(built, data, metric):
    index = built["kmeans"]
    index.metric = metric
    try:
        seen = {}
        for n_probes in range(1, index.n_bins + 1):
            ids, distances = index.batch_query(data.queries, K, n_probes=n_probes)
            for q, row in enumerate(ids):
                for j, i in enumerate(row):
                    first = seen.setdefault((q, int(i)), distances[q, j])
                    assert first == distances[q, j], (q, int(i), n_probes)
    finally:
        index.metric = "euclidean"


@pytest.mark.parametrize("name", ["usp", "kmeans"])
def test_unfiltered_queries_never_gather(built, data, name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the unfiltered path gathered candidate rows")

    index = built[name]
    expected = index.batch_query(data.queries, K, n_probes=2)
    monkeypatch.setattr(core_base, "rerank_candidates", refuse)
    ids, distances = index.batch_query(data.queries, K, n_probes=2)
    np.testing.assert_array_equal(ids, expected[0])
    np.testing.assert_array_equal(distances, expected[1])


def test_layout_is_built_on_the_first_scan_only(data):
    index = make_index("kmeans", **TINY_PARAMS["kmeans"]).build(data.base)
    assert index._layout is None
    index.candidate_sets(data.queries, 2)
    index.batch_query(data.queries, K, filter=np.arange(0, 300, 50))  # a prefilter
    assert index._layout is None
    index.batch_query(data.queries, K, filter=np.arange(0, 300, 7))  # an inline scan
    assert index._layout is not None
    ensemble = make_index("usp-ensemble", **TINY_PARAMS["usp-ensemble"]).build(data.base)
    assert all(member._layout is None for member in ensemble.members)
    ensemble.batch_query(data.queries, K, n_probes=2)
    chosen = {ensemble.members.index(member) for member, _, _ in ensemble.route(data.queries, 2)}
    assert {m for m, member in enumerate(ensemble.members) if member._layout is not None} == chosen


def test_concurrent_first_queries_agree(data):
    index = make_index("kmeans", **TINY_PARAMS["kmeans"]).build(data.base)
    expected = _gathered(index, data.queries, K, 2)
    results, interval = [None] * 8, sys.getswitchinterval()

    def ask(slot):
        results[slot] = index.batch_query(data.queries, K, n_probes=2)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for ids, distances in results:
        np.testing.assert_array_equal(ids, expected[0])
        np.testing.assert_allclose(distances, expected[1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["usp", "kmeans", "regression-lsh"])
def test_saved_index_has_no_layout_and_answers_the_same(data, name, tmp_path):
    index = make_index(name, **TINY_PARAMS[name]).build(data.base)
    index.save(tmp_path / "cold")
    expected = index.batch_query(data.queries, K, n_probes=2)
    index.save(tmp_path / "warm")
    with np.load(tmp_path / "cold" / "arrays.npz") as cold, np.load(
        tmp_path / "warm" / "arrays.npz"
    ) as warm:
        assert sorted(cold.files) == sorted(warm.files)
        for key in cold.files:
            np.testing.assert_array_equal(cold[key], warm[key])
    loaded = load_index(tmp_path / "warm")
    assert loaded._layout is None
    ids, distances = loaded.batch_query(data.queries, K, n_probes=2)
    np.testing.assert_array_equal(ids, expected[0])
    np.testing.assert_array_equal(distances, expected[1])


# ---------------------------------------------------------------------- #
# tie order and batch shape
# ---------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    # past both whole-sort thresholds: 256 entries in 1-D, 3·k columns in 2-D
    width=st.integers(0, 40) | st.integers(250, 600),
    k=st.integers(1, 45),
    levels=st.sampled_from([1, 2, 5, 50, 10_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_selection_is_the_stable_argsort(rows, width, k, levels, seed):
    # few distinct values: ties inside the top k and at its boundary
    rng = np.random.default_rng(seed)
    dists = rng.integers(0, levels, size=(rows, width)).astype(np.float64)
    expected = np.argsort(dists, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(select(dists, k), expected)
    for row, want in zip(dists, expected):
        np.testing.assert_array_equal(select(row, k), want)

    # merge: (score, id) order, rows padded with -1 / inf up to k columns
    ids = np.stack([rng.permutation(2 * width)[:width] for _ in range(rows)])
    dead = rng.random((rows, width)) < 0.2
    ids[dead], dists[dead] = -1, np.inf
    got_ids, got_scores = merge(ids, dists, k)
    pad = max(0, k - width)
    for r in range(rows):
        row_ids = np.concatenate([ids[r], np.full(pad, -1)])
        row_scores = np.concatenate([dists[r], np.full(pad, np.inf)])
        order = np.lexsort((row_ids, row_scores))[:k]
        np.testing.assert_array_equal(got_ids[r], row_ids[order])
        np.testing.assert_array_equal(got_scores[r], row_scores[order])

    # integer-valued bin scores: top_bins is the head of ranked_bins
    if width:
        anchors = rng.integers(0, 3, size=(width, 2)).astype(np.float64)
        queries = rng.integers(0, 3, size=(rows, 2)).astype(np.float64)
        index = _HandBins(anchors)
        np.testing.assert_array_equal(
            index.top_bins(queries, k), index.ranked_bins(queries)[:, :k]
        )


def _hand_index(sizes, metric="euclidean"):
    """A :class:`_HandBins` index with ``sizes[b]`` rows in bin ``b``, shuffled
    so no bin's rows are contiguous in the base."""
    rng = np.random.default_rng(0)
    anchors = rng.integers(0, 8, size=(len(sizes), 4)).astype(np.float64) * 4
    assignments = np.repeat(np.arange(len(sizes)), sizes)
    base = anchors[assignments] + rng.normal(size=(len(assignments), 4))
    order = rng.permutation(len(assignments))
    index = _HandBins(anchors).build(base[order], assignments[order])
    index.metric = metric
    return index


def _stable_reference(index, queries, k, n_probes):
    """Exact distances over the gathered candidates, stable-sorted."""
    ids = np.full((len(queries), k), -1, dtype=np.int64)
    distances = np.full((len(queries), k), np.inf)
    for q, candidates in enumerate(index.candidate_sets(queries, n_probes)):
        d = get_metric(index.metric)(queries[q : q + 1], index._base[candidates])[0]
        best = np.argsort(d, kind="stable")[:k]
        ids[q, : best.size], distances[q, : best.size] = candidates[best], d[best]
    return ids, distances


@pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean"])
def test_exact_ties_keep_the_lower_gathered_position(metric):
    # integer grid points with duplicates, dealt to bins at random: distances
    # are exact and tie within a bin and across probed bins
    rng = np.random.default_rng(21)
    grid = rng.integers(0, 3, size=(150, 4)).astype(np.float64)
    base = np.vstack([grid, grid[::3]])
    index = _HandBins(rng.integers(0, 3, size=(4, 4)).astype(np.float64))
    index.build(base, rng.integers(0, 4, size=len(base)))
    index.metric = metric
    queries = np.vstack([base[:12], rng.integers(0, 3, size=(12, 4)), index.anchors])
    for n_probes in (1, 2, index.n_bins):
        ids, distances = index.batch_query(queries, K, n_probes=n_probes)
        expected = _stable_reference(index, queries, K, n_probes)
        np.testing.assert_array_equal(ids, expected[0])
        np.testing.assert_array_equal(distances, expected[1])
        gathered = _gathered(index, queries, K, n_probes)
        np.testing.assert_array_equal(ids, gathered[0])
        np.testing.assert_array_equal(distances, gathered[1])
        assert all(len(set(row)) < K for row in distances.tolist())  # every answer ties


@pytest.mark.parametrize("metric", METRICS)
def test_permuting_a_batch_permutes_its_answers(built, data, metric):
    index = built["kmeans"]
    index.metric = metric
    queries = np.vstack([data.queries, data.base[:20]])
    order = np.random.default_rng(3).permutation(len(queries))
    try:
        for n_probes in (1, 2, index.n_bins):
            ids, distances = index.batch_query(queries, K, n_probes=n_probes)
            shuffled = index.batch_query(queries[order], K, n_probes=n_probes)
            np.testing.assert_array_equal(shuffled[0], ids[order])
            np.testing.assert_array_equal(shuffled[1], distances[order])
            alone = index.batch_query(queries[5:6], K, n_probes=n_probes)
            np.testing.assert_array_equal(alone[0], ids[5:6])
            np.testing.assert_array_equal(alone[1], distances[5:6])
    finally:
        index.metric = "euclidean"


@pytest.mark.parametrize("metric", METRICS)
def test_a_batch_that_probes_one_bin(metric):
    index = _hand_index([30, 20, 25], metric=metric)
    rng = np.random.default_rng(8)
    queries = index.anchors[1] + 0.1 * rng.normal(size=(9, index.dim))
    assert (index.top_bins(queries, 1) == 1).all()
    ids, distances = index.batch_query(queries, K)
    expected = _gathered(index, queries, K, 1)
    np.testing.assert_array_equal(ids, expected[0])
    np.testing.assert_array_equal(distances, expected[1])
    assert np.isin(ids, index.points_in_bin(1)).all()


@pytest.mark.parametrize("metric", METRICS)
def test_a_one_row_bin(metric):
    index = _hand_index([20, 1, 15], metric=metric)
    queries = index.anchors + 0.01
    ids, distances = index.batch_query(queries, K)
    assert ids[1, 0] == index.points_in_bin(1)[0] and (ids[1, 1:] == -1).all()
    for n_probes in (1, 2, 3):
        expected = _gathered(index, queries, K, n_probes)
        got = index.batch_query(queries, K, n_probes=n_probes)
        np.testing.assert_array_equal(got[0], expected[0])
        if n_probes == 1:
            np.testing.assert_array_equal(got[1], expected[1])
        else:
            np.testing.assert_allclose(got[1], expected[1], rtol=1e-12, atol=0)


def test_underfull_bins_pad_only_after_every_real_id():
    index = _hand_index([3, 2, 0, 4, 5])
    queries = np.vstack([index.anchors, index.anchors + 0.5])
    ids, distances = index.batch_query(queries, K, n_probes=2)
    sizes = index.bin_sizes()[index.top_bins(queries, 2)].sum(axis=1)
    for row, row_distances, size in zip(ids, distances, sizes):
        assert (row[:size] >= 0).all() and (row[size:] == -1).all()
        assert np.isfinite(row_distances[:size]).all() and np.isinf(row_distances[size:]).all()
    assert (sizes < K).all()


@pytest.mark.parametrize("n_probes", [1, 2, 3])
def test_k_beyond_the_dataset_pads(n_probes):
    index = _hand_index([2, 1, 2])
    ids, distances = index.batch_query(index.anchors, 8, n_probes=n_probes)
    assert ids.shape == distances.shape == (3, 8)
    assert (ids[:, 5:] == -1).all() and np.isinf(distances[:, 5:]).all()
    if n_probes == 3:
        assert all(sorted(row[:5]) == list(range(5)) for row in ids.tolist())


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("name", PARTITION_BACKENDS)
def test_probing_every_bin_is_brute_force(built, data, name, metric):
    index = built[name]
    index.metric = metric
    try:
        ids, _ = index.batch_query(data.queries, K, n_probes=index.n_bins)
    finally:
        index.metric = "euclidean"
    exact = get_metric(metric)(data.queries, data.base)
    np.testing.assert_array_equal(ids, np.argsort(exact, axis=1, kind="stable")[:, :K])
