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
not depend on how many bins were probed.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.core.base as core_base
from repro.api import RegisteredIndex, get_spec, load_index, make_index
from repro.core import PartitionIndexBase, rerank_candidates
from repro.datasets import sift_like
from repro.utils.distances import squared_euclidean
from test_api_registry import TINY_PARAMS

METRICS = ("euclidean", "sqeuclidean", "cosine")
K = 10


def _scans_bins(cls) -> bool:
    """A partition index answers through the bin-major scan unless it brings
    its own per-query scan: ``ivf-pq``'s ADC ``query``, which its
    ``batch_query`` loops over."""
    return issubclass(cls, PartitionIndexBase) and cls.query is RegisteredIndex.query


PARTITION_BACKENDS = sorted(name for name in TINY_PARAMS if _scans_bins(get_spec(name).cls))


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
    assert issubclass(get_spec("ivf-pq").cls, PartitionIndexBase)
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


def test_layout_is_built_on_the_first_unfiltered_query_only(data):
    index = make_index("kmeans", **TINY_PARAMS["kmeans"]).build(data.base)
    assert index._layout is None
    index.candidate_sets(data.queries, 2)
    index.batch_query(data.queries, K, filter=np.arange(0, 300, 7))
    assert index._layout is None
    index.batch_query(data.queries, K)
    assert index._layout is not None
    ensemble = make_index("usp-ensemble", **TINY_PARAMS["usp-ensemble"]).build(data.base)
    ensemble.batch_query(data.queries, K, n_probes=2)
    assert all(member._layout is None for member in ensemble.members)


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
