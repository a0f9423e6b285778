"""The Figure 7 pipelines answer through one bin-major ADC scan.

``scann``, ``kmeans-scann``, ``usp-scann`` and ``ivf-pq`` are
:class:`~repro.quant.partitioned.PartitionedAdcIndex` subclasses.  Their
scan groups the (query, probe rank) pairs by bin and scores each probed
bin's contiguous code block once for all the queries that probe it; it
must give what the per-query loop it replaced gives (:func:`_oracle`).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ann import IVFPQIndex, ScannSearcher, usp_scann
from repro.api import get_spec, load_index, make_index
from repro.baselines.kmeans import KMeansIndex
from repro.core import rerank_candidates
from repro.datasets import sift_like
from repro.quant.partitioned import PartitionedAdcIndex
from repro.utils.exceptions import SerializationError, ValidationError
from test_api_registry import TINY_PARAMS

K = 10

#: the codec of the Figure 7 runner (``repro.eval.run_figure7``)
FIG7_CODEC = dict(n_subspaces=16, n_codewords=64, rerank_factor=30)

PIPELINES = sorted(name for name in TINY_PARAMS if issubclass(get_spec(name).cls, PartitionedAdcIndex))


def _adc_scores(index, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """float32 LUT gather-sum over the subspaces, in subspace order."""
    lut = index._pq.distance_tables(query[None, :]).astype(np.float32)[0]
    scores = np.zeros(codes.shape[0], dtype=np.float32)
    for subspace in range(codes.shape[1]):
        scores += lut[subspace][codes[:, subspace]]
    return scores


def _oracle(index, base: np.ndarray, queries: np.ndarray, k: int, n_probes: int):
    """The per-query pipeline: gather, ADC-score, shortlist, re-rank the built ``base`` exactly.

    Tie rule (the scan's): each query's candidates are its probed bins in
    probe-rank order, each bin's rows in the partitioner's layout order
    (no partitioner: every row in id order).  The shortlist is the first
    ``budget = min(rerank_factor * k, n)`` of a stable argsort of their
    float32 ADC scores — an ADC tie goes to the earlier candidate — except
    that without a partitioner a budget covering every row shortlists all
    rows in id order.  :func:`rerank_candidates` then breaks an exact
    distance tie toward the earlier shortlist entry.
    """
    partitioner = index.partitioner
    budget = min(index.rerank_factor * k, index.n_points)
    codes = index.codes
    if partitioner is not None:
        ranked = partitioner.top_bins(queries, min(n_probes, partitioner.n_bins))
    shortlists = []
    for i, query in enumerate(queries):
        if partitioner is None:
            probed = [(np.arange(index.n_points), query)]
        else:
            probed = [
                (partitioner.points_in_bin(b), query - partitioner.centroids[b] if index.residual else query)
                for b in ranked[i]
            ]
        ids = np.concatenate([members for members, _ in probed])
        scores = np.concatenate([_adc_scores(index, lut_query, codes[members]) for members, lut_query in probed])
        if partitioner is None and budget >= ids.size:
            shortlists.append(ids)
        else:
            shortlists.append(ids[np.argsort(scores, kind="stable")[:budget]])
    return rerank_candidates(base, queries, shortlists, k, metric=index.metric)


def test_the_four_figure7_pipelines_share_the_scan():
    assert PIPELINES == ["ivf-pq", "kmeans-scann", "scann", "usp-scann"]
    for cls in (ScannSearcher, IVFPQIndex):
        assert "query" not in vars(cls) and "batch_query" not in vars(cls)


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("codec", ["tiny", "figure7"])
@pytest.mark.parametrize("name", PIPELINES)
def test_scan_matches_the_per_query_oracle(name, codec, seed):
    data = sift_like(n_points=600, n_queries=20, dim=32, n_clusters=6, seed=seed)
    params = dict(TINY_PARAMS[name], **(FIG7_CODEC if codec == "figure7" else {}))
    index = make_index(name, **params).build(data.base)
    n_bins = 1 if index.partitioner is None else index.partitioner.n_bins
    for n_probes in sorted({1, 2, n_bins}):
        ids, distances = index.batch_query(data.queries, K, n_probes=n_probes)
        ref_ids, ref_distances = _oracle(index, data.base, data.queries, K, n_probes)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_allclose(distances, ref_distances, rtol=1e-6, atol=0)


def test_a_query_does_not_depend_on_its_batch():
    data = sift_like(n_points=400, n_queries=30, dim=16, n_clusters=4, seed=7)
    index = make_index("ivf-pq", **TINY_PARAMS["ivf-pq"]).build(data.base)
    ids, distances = index.batch_query(data.queries, K, n_probes=3)
    for i in (0, 17):
        one_ids, one_distances = index.batch_query(data.queries[i : i + 1], K, n_probes=3)
        np.testing.assert_array_equal(one_ids[0], ids[i])
        np.testing.assert_array_equal(one_distances[0], distances[i])


def test_a_partitioner_built_on_another_base_is_rejected():
    data = sift_like(n_points=400, n_queries=5, dim=16, n_clusters=4, seed=7)
    codec = dict(n_subspaces=4, n_codewords=8, seed=0)
    other = data.base.copy()
    other[123, 5] += 1.0
    for partitioner in (
        KMeansIndex(4, seed=0).build(data.base[:200]),  # fewer rows: answers only ids < 200
        KMeansIndex(4, seed=0).build(np.vstack([data.base, data.base])),  # more rows
        KMeansIndex(4, seed=0).build(data.base[:, :8]),  # another dimensionality
        # the same shape: the re-rank would read the partitioner's rows
        KMeansIndex(4, seed=0).build(other),
        KMeansIndex(4, seed=0).build(data.base[::-1]),
    ):
        with pytest.raises(ValidationError, match="same base"):
            ScannSearcher(partitioner, **codec).build(data.base)
    prebuilt = KMeansIndex(4, seed=0).build(data.base)
    assert ScannSearcher(prebuilt, **codec).build(data.base).partitioner is prebuilt


@pytest.mark.parametrize("name", PIPELINES)
def test_stats_count_the_float64_base_once(name, tmp_path):
    data = sift_like(n_points=300, n_queries=5, dim=16, n_clusters=4, seed=5)
    index = make_index(name, **TINY_PARAMS[name]).build(data.base)
    index.save(tmp_path / "pipeline")
    for served in (index, load_index(tmp_path / "pipeline")):
        served.batch_query(data.queries, K)
        stats = served.stats()
        assert "float32_bytes" not in stats and stats["rerank_source"] == "resident"
        assert stats["code_bytes"] == data.n_points * served.n_subspaces
        # the re-rank rows (the partitioner layout's, or the index's own) count once
        expected = data.base.nbytes + stats["code_bytes"] + served._pq.codebooks.nbytes
        if served.partitioner is not None:  # with the layout's ids and bounds
            layout = served.partitioner.layout
            expected += layout.ids.nbytes + layout.bounds.nbytes
        assert stats["resident_bytes"] == served.resident_bytes() == expected


def test_ivf_pq_keeps_its_cell_count():
    index = make_index("ivf-pq", **dict(TINY_PARAMS["ivf-pq"], n_lists=500))
    index.build(sift_like(n_points=300, n_queries=5, dim=16, n_clusters=4, seed=5).base)
    assert (index.n_lists, index.n_bins) == (500, 300)


def test_usp_scann_takes_no_ensemble():
    with pytest.raises(TypeError):
        usp_scann(ensemble=object())


def test_a_saved_pipeline_over_an_ensemble_is_refused(tmp_path):
    data = sift_like(n_points=300, n_queries=5, dim=16, n_clusters=4, seed=5)
    make_index("kmeans-scann", **TINY_PARAMS["kmeans-scann"]).build(data.base).save(tmp_path / "pipe")
    ensemble = make_index("usp-ensemble", **TINY_PARAMS["usp-ensemble"]).build(data.base)
    ensemble.save(tmp_path / "pipe" / "partitioner")
    with pytest.raises(SerializationError, match="single bin layout"):
        load_index(tmp_path / "pipe")


@pytest.mark.parametrize("name", ["scann", "kmeans-scann"])
def test_scann_keeps_its_saved_format(name, tmp_path):
    data = sift_like(n_points=300, n_queries=8, dim=16, n_clusters=4, seed=5)
    index = make_index(name, **TINY_PARAMS[name]).build(data.base)
    index.save(tmp_path / "scann")
    manifest = json.loads((tmp_path / "scann" / "index.json").read_text())
    assert (manifest["name"], manifest["class"]) == ("scann", "repro.ann.scann.ScannSearcher")
    assert sorted(manifest["arguments"]) == [
        "anisotropic_eta",
        "n_codewords",
        "n_subspaces",
        "partitioner",
        "rerank_factor",
        "seed",
    ]
    assert not (tmp_path / "scann" / "vectors").exists()
    # the float rows are saved once: the pipeline's own without a
    # partitioner, the partitioner's layout with one
    partitioned = name == "kmeans-scann"
    assert (tmp_path / "scann" / "partitioner" / "index.json").is_file() == partitioned
    with np.load(tmp_path / "scann" / "arrays.npz") as arrays:
        own_rows = [] if partitioned else ["_base"]
        assert sorted(arrays.files) == [*own_rows, "_pq.codebooks", "codes"]
        # codes stay id-order rows, whatever order the scan keeps them in:
        # row i reconstructs base row i, not its neighbour in the file
        codebooks, codes = arrays["_pq.codebooks"], arrays["codes"]
        assert codes.shape == (data.n_points, codebooks.shape[0])
        decoded = np.concatenate([codebooks[s][codes[:, s]] for s in range(codes.shape[1])], axis=1)
        own = np.linalg.norm(decoded - data.base, axis=1).mean()
        assert own < 0.5 * np.linalg.norm(np.roll(decoded, 1, axis=0) - data.base, axis=1).mean()
    loaded = load_index(tmp_path / "scann")
    for n_probes in (1, 3):
        np.testing.assert_array_equal(
            loaded.batch_query(data.queries, K, n_probes=n_probes)[0],
            index.batch_query(data.queries, K, n_probes=n_probes)[0],
        )
