"""Tests for the unified API: registry, protocol, capabilities, persistence.

The central guarantee: every registered index can be constructed by name,
built on a dataset, saved to disk, reloaded in a fresh object, and answer
``batch_query`` bitwise-identically to the original instance.
"""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    AnnIndex,
    IndexCapabilities,
    available_indexes,
    index_info,
    load_index,
    make_index,
)
from repro.core import PartitionIndexBase, UspConfig
from repro.datasets import sift_like
from repro.filter import random_attribute_store
from repro.utils.exceptions import ConfigurationError, SerializationError

_TINY_USP = dict(
    n_bins=4,
    k_prime=4,
    epochs=2,
    hidden_dim=16,
    max_batch_size=64,
    min_batch_size=32,
    seed=0,
)

#: construction parameters keeping every index tiny enough for unit tests
TINY_PARAMS = {
    "usp": _TINY_USP,
    "usp-ensemble": dict(n_models=2, **_TINY_USP),
    "usp-hierarchical": dict(levels=(2, 2), **{k: v for k, v in _TINY_USP.items() if k != "n_bins"}),
    "kmeans": dict(n_bins=4, seed=0),
    "neural-lsh": dict(n_bins=4, k_prime=4, epochs=2, hidden_dim=16, seed=0),
    "regression-lsh": dict(depth=2, epochs=2, seed=0),
    "cross-polytope-lsh": dict(n_bins=4, seed=0),
    "pca-tree": dict(depth=2, seed=0),
    "rp-tree": dict(depth=2, seed=0),
    "kd-tree": dict(depth=2, seed=0),
    "two-means-tree": dict(depth=2, seed=0),
    "boosted-forest": dict(n_trees=2, depth=2, seed=0),
    "bruteforce": {},
    "ivf-flat": dict(n_lists=4, seed=0),
    "ivf-pq": dict(n_lists=4, n_subspaces=4, n_codewords=8, seed=0),
    "hnsw": dict(m=4, ef_construction=16, ef_search=8, seed=0),
    "scann": dict(n_subspaces=4, n_codewords=8, seed=0),
    "kmeans-scann": dict(n_bins=4, n_subspaces=4, n_codewords=8, seed=0),
    "usp-scann": dict(config=UspConfig(**_TINY_USP), n_subspaces=4, n_codewords=8, seed=0),
    "sharded": dict(n_shards=2),
    "sharded-bruteforce": dict(n_shards=3),
    "sq8": dict(rerank_factor=4),
    "pq-adc": dict(n_subspaces=4, n_codewords=16, seed=0),
    "sharded-sq8": dict(n_shards=2),
}

#: every configuration the registry-driven tests build, as id -> (registry
#: name, parameters): each registry entry, plus sharded K-means and IVF-flat
#: shards, which are ``make_index("sharded", ...)`` with a kmeans router
CONFIGURATIONS = {
    **{name: (name, params) for name, params in TINY_PARAMS.items()},
    "sharded-kmeans": (
        "sharded",
        dict(spec="kmeans", partitioner="kmeans", n_shards=2, shard_params=dict(n_bins=2, seed=0)),
    ),
    "sharded-ivf": (
        "sharded",
        dict(spec="ivf-flat", partitioner="kmeans", n_shards=2, shard_params=dict(n_lists=2, seed=0)),
    ),
}

#: names the registry no longer answers to (aliases and deleted entries)
REMOVED_NAMES = (
    "shard",
    "vanilla-scann",
    "scann-kmeans",
    "scann-usp",
    "hyperplane-lsh",
    "sharded-kmeans",
    "sharded-ivf",
)


def saved_index_name(path):
    """The registry name a saved index directory records."""
    return json.loads((path / "index.json").read_text())["name"]


def make_configuration(config_id):
    """The unbuilt index of one :data:`CONFIGURATIONS` entry."""
    name, params = CONFIGURATIONS[config_id]
    return make_index(name, **params)


@pytest.fixture(scope="module")
def api_dataset():
    return sift_like(n_points=300, n_queries=12, dim=16, n_clusters=4, gt_k=10, seed=5)


def _query_kwargs(name):
    probe = index_info(name)["capabilities"]["probe_parameter"]
    if probe == "n_probes":
        return {"n_probes": 2}
    if probe == "ef":
        return {"ef": 12}
    return {}


class TestRegistry:
    def test_every_tiny_param_name_is_registered(self):
        assert set(TINY_PARAMS) == set(available_indexes())

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="unknown index"):
            make_index("definitely-not-an-index")

    @pytest.mark.parametrize("name", REMOVED_NAMES)
    def test_removed_name_is_unknown(self, name):
        assert name not in available_indexes()
        with pytest.raises(ConfigurationError, match="unknown index"):
            make_index(name)
        with pytest.raises(ConfigurationError, match="unknown index"):
            index_info(name)

    def test_capabilities_attached_to_classes(self):
        index = make_index("kmeans", n_bins=4)
        assert isinstance(type(index).capabilities, IndexCapabilities)
        assert type(index).capabilities.routed

    def test_index_info_shape(self):
        info = index_info("usp")
        assert info["class"] == "UspIndex"
        assert info["capabilities"]["trainable"] is True

    def test_top_level_reexports(self):
        assert repro.make_index is make_index
        assert "usp" in repro.available_indexes()


class TestProtocol:
    def test_built_indexes_satisfy_the_protocol(self, api_dataset):
        index = make_index("kmeans", n_bins=4, seed=0).build(api_dataset.base)
        assert isinstance(index, AnnIndex)

    def test_stats_reports_shape_and_capabilities(self, api_dataset):
        index = make_index("kmeans", n_bins=4, seed=0).build(api_dataset.base)
        stats = index.stats()
        assert stats["n_points"] == api_dataset.n_points
        assert stats["dim"] == api_dataset.dim
        assert stats["name"] == "kmeans"
        assert stats["capabilities"]["probe_parameter"] == "n_probes"


@pytest.mark.parametrize("name", sorted(TINY_PARAMS))
def test_k_beyond_the_dataset_pads_on_every_entry(name, api_dataset):
    """``k > n`` answers ``(n_q, k)``: real ids first, unique, then ``-1`` / ``inf``."""
    index = make_index(name, **TINY_PARAMS[name]).build(api_dataset.base)
    n = api_dataset.n_points
    ids, distances = index.batch_query(api_dataset.queries, n + 5)
    assert ids.shape == distances.shape == (api_dataset.n_queries, n + 5)
    assert (ids[:, n:] == -1).all() and np.isinf(distances[:, n:]).all()
    for row, row_distances in zip(ids, distances):
        real = row[row >= 0]
        assert (row[: real.size] >= 0).all() and np.unique(real).size == real.size
        assert (real < n).all() and np.isinf(row_distances[real.size :]).all()


class TestProbeKnobWarning:
    """Requesting probes on a knobless index warns instead of silently dropping."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_registry(self):
        from repro.api.protocol import _PROBE_WARNINGS

        _PROBE_WARNINGS.clear()
        yield
        _PROBE_WARNINGS.clear()

    def test_probes_on_knobless_index_warns(self):
        capabilities = make_index("bruteforce").capabilities
        with pytest.warns(UserWarning, match="no probe parameter"):
            assert capabilities.query_kwargs(4) == {}

    def test_warning_fires_once_per_capabilities_value(self):
        import warnings as warnings_module

        capabilities = make_index("bruteforce").capabilities
        with pytest.warns(UserWarning):
            capabilities.query_kwargs(4)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert capabilities.query_kwargs(4) == {}  # second request is silent

    def test_no_warning_without_probes_or_with_a_knob(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert make_index("bruteforce").capabilities.query_kwargs(None) == {}
            kmeans = make_index("kmeans", n_bins=4)
            assert kmeans.capabilities.query_kwargs(3) == {"n_probes": 3}


def _metric_cases():
    """(configuration, metric) for every metric each configuration's entry lists."""
    return [
        (config_id, metric)
        for config_id in sorted(CONFIGURATIONS)
        for metric in index_info(CONFIGURATIONS[config_id][0])["capabilities"]["metrics"]
    ]


def _probe_kwargs(name):
    """Each probe count the round trip compares, as the entry's query keywords."""
    probe = index_info(name)["capabilities"]["probe_parameter"]
    return [{} if probe is None else {probe: p} for p in ((1, 3) if probe == "n_probes" else (8, 16))]


class TestSaveLoadRoundTrip:
    @pytest.mark.parametrize("config_id, metric", _metric_cases())
    def test_roundtrip_identical_queries(self, config_id, metric, api_dataset, tmp_path):
        """Bitwise answers after ``save`` / ``load_index``, under each metric and with an attribute store.

        A partition index takes its metric after build (its scan follows
        ``metric``); every other entry takes it as a construction keyword.
        """
        name, params = CONFIGURATIONS[config_id]
        index = make_configuration(config_id)
        if isinstance(index, PartitionIndexBase):
            index.build(api_dataset.base).metric = metric
        else:
            index = make_index(name, **params, **({} if metric == "euclidean" else {"metric": metric}))
            index.build(api_dataset.base)
        index.set_attributes(random_attribute_store(api_dataset.n_points, seed=1))
        path = tmp_path / config_id
        index.save(path)
        reloaded = load_index(path)
        assert type(reloaded) is type(index) and getattr(reloaded, "metric", "euclidean") == metric
        assert reloaded.attributes.n_rows == api_dataset.n_points
        for kwargs in _probe_kwargs(name):
            indices, distances = index.batch_query(api_dataset.queries, 5, **kwargs)
            re_indices, re_distances = reloaded.batch_query(api_dataset.queries, 5, **kwargs)
            np.testing.assert_array_equal(indices, re_indices)
            np.testing.assert_array_equal(distances, re_distances)


class TestPersistenceEdges:
    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="has not been built"):
            make_index("kmeans", n_bins=4).save(tmp_path / "x")

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="not a saved index"):
            load_index(tmp_path / "nothing-here")

    def test_saved_name_roundtrips_through_generic_loader(self, api_dataset, tmp_path):
        index = make_index("usp-scann", **TINY_PARAMS["usp-scann"]).build(api_dataset.base)
        index.save(tmp_path / "pipeline")
        # composite entries share one saved-index name (their class's)
        assert saved_index_name(tmp_path / "pipeline") == "scann"
        assert saved_index_name(tmp_path / "pipeline" / "partitioner") == "usp"


class TestSweepIntegration:
    def test_accuracy_curve_accepts_registry_names(self, api_dataset):
        from repro.eval import accuracy_candidate_curve

        curve = accuracy_candidate_curve(
            "kmeans",
            api_dataset,
            k=5,
            probes=[1, 2],
            index_params=dict(n_bins=4, seed=0),
        )
        assert curve.method == "kmeans"
        assert len(curve.points) == 2
        assert curve.accuracies().max() <= 1.0
