"""One probe path: ``route`` and the bin-major scan answer every partitioned query.

A routed index (every partition index, ``usp-ensemble`` and
``boosted-forest``) names the bins each query searches with ``route``.
Everything read from those bins must be what the per-query candidate
lists — each query's chosen partition's ranked bins, concatenated — give:

* |C| and the candidate ceiling (``candidate_stats`` and the curves) equal
  set membership over the lists;
* an ensemble's answer row is, bit for bit, the row its most confident
  member's own full-batch ``batch_query`` gives (Algorithm 4), and the ids
  of the lists re-ranked;
* an inline-filtered answer is the masked lists re-ranked — ids equal,
  distances bitwise at one probe and at rtol 1e-12 beyond (the
  ``test_bin_major_scan`` contract) — and no disallowed id ever reaches
  the distance kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.base as core_base
from repro.api import get_spec, make_index
from repro.core import rerank_candidates
from repro.core.ensemble import BestMemberIndex
from repro.datasets import sift_like
from repro.eval import accuracy_candidate_curve, candidate_stats
from repro.filter import DEFAULT_PLANNER
from repro.utils.exceptions import ValidationError
from test_api_registry import TINY_PARAMS

K = 10
ROUTED = sorted(name for name in TINY_PARAMS if get_spec(name).capabilities.routed)
ENSEMBLES = ("usp-ensemble", "boosted-forest")


@pytest.fixture(scope="module")
def data():
    return sift_like(n_points=300, n_queries=12, dim=16, n_clusters=4, gt_k=K, seed=5)


@pytest.fixture(scope="module")
def built(data):
    return {name: make_index(name, **TINY_PARAMS[name]).build(data.base) for name in ROUTED}


def _probe_counts(index):
    return sorted({1, 2, index.n_bins})


def _chosen_members(index, queries):
    """The member each query's route goes to (Algorithm 4's choice)."""
    best = np.full(queries.shape[0], -1)
    for partition, rows, _ in index.route(queries, 1):
        best[rows] = next(m for m, member in enumerate(index.members) if member is partition)
    assert (best >= 0).all()
    return best


def _candidate_lists(index, queries, n_probes):
    """Each query's candidate ids: its chosen partition's ranked bins, concatenated."""
    if isinstance(index, BestMemberIndex):
        per_member = [member.candidate_sets(queries, n_probes) for member in index.members]
        return [per_member[m][i] for i, m in enumerate(_chosen_members(index, queries))]
    return index.candidate_sets(queries, n_probes)


def _list_stats(lists, truth, k):
    """Mean list length, and the share of true neighbours found in the lists."""
    hits = 0
    for candidates, row in zip(lists, truth[:, :k]):
        members = set(candidates.tolist())
        hits += sum(1 for x in row.tolist() if x in members)
    return float(np.mean([len(c) for c in lists])), hits / float(truth.shape[0] * k)


def _assert_scan_contract(got, expected, n_probes):
    np.testing.assert_array_equal(got[0], expected[0])
    if n_probes == 1:
        np.testing.assert_array_equal(got[1], expected[1])
    else:
        np.testing.assert_allclose(got[1], expected[1], rtol=1e-12, atol=0)


def test_routed_means_the_class_has_route():
    for name in TINY_PARAMS:
        spec = get_spec(name)
        assert spec.capabilities.routed == hasattr(spec.cls, "route"), name
    assert {"ivf-flat", *ENSEMBLES} <= set(ROUTED)


@pytest.mark.parametrize("name", ["hnsw", "sq8"])
def test_a_curve_needs_a_routed_index(data, name):
    index = make_index(name, **TINY_PARAMS[name]).build(data.base)
    with pytest.raises(ValidationError, match="does not route queries to bins"):
        accuracy_candidate_curve(index, data, k=K, probes=[1])


@pytest.mark.parametrize("name", ROUTED)
def test_candidate_stats_equal_the_list_oracle(built, data, name):
    index = built[name]
    truth = data.ground_truth_for(K)
    probes = _probe_counts(index)
    curve = accuracy_candidate_curve(index, data, k=K, probes=probes)
    for n_probes, point in zip(probes, curve.points):
        expected = _list_stats(_candidate_lists(index, data.queries, n_probes), truth, K)
        assert candidate_stats(index, data.queries, truth, K, n_probes) == expected
        assert (point.candidate_size, point.candidate_ceiling) == expected


@pytest.mark.parametrize("name", ENSEMBLES)
def test_ensemble_rows_are_the_chosen_members_own_rows(built, data, name, monkeypatch):
    index = built[name]
    best = _chosen_members(index, data.queries)
    assert len(set(best.tolist())) > 1  # more than one member answers
    for n_probes in _probe_counts(index):
        own = [member.batch_query(data.queries, K, n_probes=n_probes) for member in index.members]
        lists = _candidate_lists(index, data.queries, n_probes)
        gathered = rerank_candidates(index._base, data.queries, lists, K, metric=index.metric)
        passes = []
        with monkeypatch.context() as patch:
            for member in index.members:
                patch.setattr(
                    member, "bin_scores",
                    lambda q, scores=member.bin_scores: passes.append(1) or scores(q),
                )
            ids, distances = index.batch_query(data.queries, K, n_probes=n_probes)
        assert len(passes) == len(index.members)  # one model pass per member
        for i, m in enumerate(best):
            np.testing.assert_array_equal(ids[i], own[m][0][i])
            np.testing.assert_array_equal(distances[i], own[m][1][i])
        _assert_scan_contract((ids, distances), gathered, n_probes)


@pytest.mark.parametrize("name", ROUTED)
def test_inline_filter_scans_only_allowed_rows(built, data, name, monkeypatch):
    index = built[name]
    mask = np.zeros(index.n_points, dtype=bool)
    mask[np.random.default_rng(4).permutation(index.n_points)[:120]] = True
    assert DEFAULT_PLANNER.plan(index, mask, K).strategy == "inline"
    expected = {}
    for n_probes in _probe_counts(index):
        lists = [c[mask[c]] for c in _candidate_lists(index, data.queries, n_probes)]
        expected[n_probes] = rerank_candidates(
            index._base, data.queries, lists, K, metric=index.metric
        )
    scan_bins = core_base.scan_bins

    def allowed_only(ranked, bounds, ids, k, score):
        assert mask[ids].all(), "a disallowed row reached the distance kernel"
        return scan_bins(ranked, bounds, ids, k, score)

    monkeypatch.setattr(core_base, "scan_bins", allowed_only)
    for n_probes, want in expected.items():
        got = index.batch_query(data.queries, K, n_probes=n_probes, filter=mask)
        _assert_scan_contract(got, want, n_probes)
        assert mask[got[0][got[0] >= 0]].all()


@pytest.mark.parametrize("name", ["kmeans", *ENSEMBLES])
def test_inline_filter_copies_only_the_probed_bins(built, data, name, monkeypatch):
    index = built[name]
    mask = np.arange(index.n_points) % 2 == 0
    copies = []
    restricted = core_base._BinMajorLayout.restricted

    def record(layout, allowed, bins):
        copies.append(restricted(layout, allowed, bins))
        return copies[-1]

    monkeypatch.setattr(core_base._BinMajorLayout, "restricted", record)
    query = data.queries[:1]
    index.batch_query(query, K, n_probes=1, filter=mask)
    ((partition, _, ranked),) = index.route(query, 1)
    (copy,) = copies
    probed = partition.points_in_bin(int(ranked[0, 0]))
    assert sorted(copy.ids.tolist()) == sorted(probed[mask[probed]].tolist())
    assert copy.rows.shape[0] == copy.ids.size < index.n_points // 2


@pytest.mark.parametrize("name", ["kmeans", *ENSEMBLES])
def test_routed_queries_never_gather(built, data, name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a routed query gathered candidate rows")

    index = built[name]
    mask = np.arange(index.n_points) % 3 > 0
    expected = [
        index.batch_query(data.queries, K, n_probes=2),
        index.batch_query(data.queries, K, n_probes=2, filter=mask),
    ]
    monkeypatch.setattr(core_base, "rerank_candidates", refuse)
    got = [
        index.batch_query(data.queries, K, n_probes=2),
        index.batch_query(data.queries, K, n_probes=2, filter=mask),
    ]
    for (ids, distances), (want_ids, want_distances) in zip(got, expected):
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(distances, want_distances)
