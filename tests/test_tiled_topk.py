"""The tiled exact top-k (``pairwise_topk``) against the full distance matrix.

``full_matrix_topk`` is the kernel ``pairwise_topk`` replaced: one
``(block, n)`` distance matrix per query block from the metric's own
function, then :func:`~repro.utils.topk.select` over whole rows.  The
tiled scan must return the same ids and the same distance bits.  The
tests shrink the tile so that small inputs split into many tiles, with
ties and ``k`` on both sides of a tile edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import distances
from repro.utils import topk
from repro.utils.distances import get_metric, iter_blocks, pairwise_topk
from repro.utils.topk import select

METRICS = ("euclidean", "sqeuclidean", "cosine")


def full_matrix_topk(queries, points, k, *, metric="euclidean", block_size=1024, exclude_self=False):
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_points = points.shape[0]
    k = int(min(k, n_points - (1 if exclude_self else 0)))
    if k <= 0:
        raise ValueError("k must be positive after clipping to dataset size")
    dist_fn = get_metric(metric)
    all_idx = np.empty((queries.shape[0], k), dtype=np.int64)
    all_dist = np.empty((queries.shape[0], k), dtype=np.float64)
    for start, stop in iter_blocks(queries.shape[0], block_size):
        block = dist_fn(queries[start:stop], points)
        if exclude_self:
            rows = np.arange(start, stop)
            cols = rows[rows < n_points]
            block[np.arange(cols.shape[0]), cols] = np.inf
        nearest = select(block, k)
        all_idx[start:stop] = nearest
        all_dist[start:stop] = np.take_along_axis(block, nearest, axis=1)
    return all_idx, all_dist


def assert_same(queries, points, k, **kwargs):
    ids, dists = pairwise_topk(queries, points, k, **kwargs)
    want_ids, want_dists = full_matrix_topk(queries, points, k, **kwargs)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(dists, want_dists)


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of 2 rows x 8 columns (a 2-column first tile, or k columns)."""
    monkeypatch.setattr(distances, "TOPK_TILE", 16)
    monkeypatch.setattr(distances, "TOPK_TILE_ROWS", 2)


def grid_data(draw, n, dim):
    """Points on a small integer grid: many exact ties, across tile edges."""
    cells = draw(st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim))
    return np.asarray(cells, dtype=np.float64).reshape(n, dim)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 12))
    if draw(st.booleans()):
        points = grid_data(draw, n, dim)
        queries = grid_data(draw, n_queries, dim)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        queries = rng.normal(size=(n_queries, dim))
    exclude_self = draw(st.booleans()) and n > 1
    if exclude_self:
        queries = points
    kwargs = dict(
        metric=draw(st.sampled_from(METRICS)),
        block_size=draw(st.integers(1, 16)),
        exclude_self=exclude_self,
    )
    tile = (draw(st.integers(1, 64)), draw(st.integers(1, 5)))
    return queries, points, draw(st.integers(1, n + 5)), kwargs, tile


@settings(max_examples=300, deadline=None)
@given(cases())
def test_tiled_scan_is_the_full_matrix_bit_for_bit(case):
    queries, points, k, kwargs, (tile, tile_rows) = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distances, "TOPK_TILE", tile)
        patch.setattr(distances, "TOPK_TILE_ROWS", tile_rows)
        assert_same(queries, points, k, **kwargs)


@pytest.mark.parametrize("metric", METRICS)
def test_every_tile_path_runs_and_agrees(small_tiles, monkeypatch, metric):
    # Random rows: later tiles admit a few entries (folded at the end).
    # Rows sorted by distance to the query: every tile beats the last,
    # so most tiles are selected whole and merged at once.
    calls = {"fold": 0, "merge": 0}
    for name in calls:
        real = getattr(distances, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(distances, name, counted)
    rng = np.random.default_rng(3)
    points = rng.normal(size=(200, 3))
    assert_same(points[:7] + 0.01, points, 5, metric=metric)
    assert calls["fold"] > 0
    line = np.linspace(10.0, 1.0, 120)[:, None] * np.ones((1, 2))
    assert_same(np.zeros((3, 2)) + 0.5, line, 4, metric="euclidean")
    assert calls["merge"] > 0


def test_ties_at_the_kth_distance_keep_the_smallest_ids(small_tiles):
    # 30 copies of one row, spread over many 8-column tiles: the k-th
    # distance ties across tile edges, and the smallest ids must win.
    rng = np.random.default_rng(8)
    points = rng.normal(size=(90, 4))
    copies = rng.choice(90, size=30, replace=False)
    points[copies] = points[copies[0]]
    queries = np.vstack([points[copies[0]], points[copies[0]] + 0.25, rng.normal(size=(3, 4))])
    for k in (1, 5, 29, 30, 31, 45):
        for metric in METRICS:
            assert_same(queries, points, k, metric=metric)


def test_k_wider_than_a_tile_and_beyond_n(small_tiles):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(37, 3))
    queries = rng.normal(size=(5, 3))
    for k in (9, 20, 37, 50):
        assert_same(queries, points, k, block_size=3)
        assert_same(points, points, k, exclude_self=True, block_size=4)
    ids, _ = pairwise_topk(queries, points, 50)
    assert ids.shape == (5, 37)


def test_a_row_with_every_distance_infinite(small_tiles):
    # Overflowing values make every distance inf; the answer is then the
    # first k columns in order, as a stable sort of the full row gives.
    points = np.full((20, 2), 1e200)
    assert_same(np.zeros((2, 2)), points, 6)


@pytest.mark.parametrize("n_queries", [1, 3])
def test_overflowing_rows_give_nan_distances_and_still_k_answers(n_queries):
    # A query and rows near 1e200 overflow to inf - inf = NaN.  Only three
    # rows stay finite, so every query's k-th distance is NaN.
    rng = np.random.default_rng(11)
    points = np.full((600, 4), 1e200)
    points[[5, 300, 599]] = rng.normal(size=(3, 4))
    queries = np.full((n_queries, 4), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        ids, _ = pairwise_topk(queries, points, 10)
        assert_same(queries, points, 10)
    assert ids.shape == (n_queries, 10) and (ids >= 0).all()


def test_one_tile_when_the_input_fits():
    rng = np.random.default_rng(10)
    points = rng.normal(size=(3000, 8))
    assert_same(points[:1] + 0.5, points, 10)
    assert_same(points[:300], points[:300], 10, exclude_self=True)


@pytest.mark.parametrize(
    "n_queries, n_points, block_size, runs",
    [(1000, 100, 1024, 1), (1000, 100, 256, 4), (1000, 1000, 1024, 8), (100, 9000, 1024, 7)],
)
def test_short_rows_take_few_runs(monkeypatch, n_queries, n_points, block_size, runs):
    # A run holds as many query rows as one tile takes whole, so 1,000
    # queries against a prefilter's few hundred allowed rows are one run
    # per block, not one per TOPK_TILE_ROWS queries.
    calls = []
    real = distances._scan_rows

    def counted(gram, *args):
        calls.append(gram.shape)
        return real(gram, *args)

    monkeypatch.setattr(distances, "_scan_rows", counted)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(n_points, 4))
    assert_same(rng.normal(size=(n_queries, 4)), points, 10, block_size=block_size)
    assert len(calls) == runs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 80))
def test_fold_is_merge_over_kept_and_candidates(seed, k, n_new):
    # Rows arrive unsorted, a row's candidates in increasing id order,
    # scores from a few values (ties), and row 0 keeps up to two NaN
    # scores, which only the pads may not displace.
    rng = np.random.default_rng(seed)
    n_rows = 4
    kept_scores = np.sort(rng.integers(0, 4, size=(n_rows, k)).astype(float), axis=1)
    kept_scores[0, -2:] = np.nan
    kept_ids = np.argsort(rng.random((n_rows, 50)), axis=1)[:, :k]
    order = np.lexsort((kept_ids, kept_scores))
    kept_ids = np.take_along_axis(kept_ids, order, axis=1)
    kept_scores = np.take_along_axis(kept_scores, order, axis=1)
    rows = rng.integers(0, n_rows, size=n_new)
    new_ids = 50 + np.arange(n_new)
    new_scores = rng.integers(0, 4, size=n_new).astype(float)

    ids, scores = kept_ids.copy(), kept_scores.copy()
    topk.fold(ids, scores, rows, new_ids, new_scores)
    for row in range(n_rows):
        mine = rows == row
        want_ids, want_scores = topk.merge(
            np.concatenate([kept_ids[row], new_ids[mine]])[None],
            np.concatenate([kept_scores[row], new_scores[mine]])[None],
            k,
        )
        np.testing.assert_array_equal(ids[row], want_ids[0])
        np.testing.assert_array_equal(scores[row], want_scores[0])
