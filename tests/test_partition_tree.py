"""The partition tree that hierarchical USP, the hyperplane trees and Regression LSH share."""

import numpy as np
import pytest

from repro.api import load_index, make_index
from repro.core import (
    HierarchicalConfig,
    HierarchicalUspIndex,
    UspConfig,
    UspTrainer,
    build_knn_matrix,
)
from repro.utils.exceptions import ValidationError
from repro.utils.rng import resolve_rng, spawn_rngs

#: one small configuration per tree backend
TREE_BACKENDS = {
    "pca-tree": dict(depth=3, seed=0),
    "rp-tree": dict(depth=3, seed=0),
    "kd-tree": dict(depth=3, seed=0),
    "two-means-tree": dict(depth=3, seed=0),
    "regression-lsh": dict(depth=3, epochs=3, seed=0),
    "boosted-forest": dict(n_trees=2, depth=3, seed=0),
    "usp-hierarchical": dict(
        levels=(3, 2), k_prime=8, hidden_dim=16, epochs=3, min_batch_size=64, max_batch_size=128
    ),
}

#: trains in milliseconds on 30 points
TINY_BASE = UspConfig(
    n_bins=4, k_prime=3, epochs=2, hidden_dim=8, max_batch_size=16, min_batch_size=8
)


def _thirty_point_tree(levels):
    points = np.random.default_rng(0).normal(size=(30, 4))
    index = HierarchicalUspIndex(HierarchicalConfig(levels=levels, base=TINY_BASE))
    return index.build(points), points


@pytest.mark.parametrize(
    "name, params",
    [
        ("pca-tree", {"depth": 17}),
        ("regression-lsh", {"depth": 40}),
        ("usp-hierarchical", {"levels": (2,) * 40}),
    ],
)
def test_more_than_2_to_the_16_leaves_rejected_at_construction(name, params):
    with pytest.raises(ValidationError, match="too large"):
        make_index(name, **params)


@pytest.mark.parametrize("name", sorted(TREE_BACKENDS))
def test_leaf_scores_sum_to_one(name, tiny_dataset):
    index = make_index(name, **TREE_BACKENDS[name]).build(tiny_dataset.base)
    for tree in getattr(index, "members", [index]):
        scores = tree.bin_scores(tiny_dataset.queries)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_unfitted_root_still_spawns_its_fitted_childs_generator():
    """30 rows < 2 * 16: the root is not fitted and sends every row to branch 0,
    whose node (id 1) holds all 30 rows and is fitted."""
    index, points = _thirty_point_tree((16, 2))
    assert index._nodes[0] is None and index._nodes[1] is not None
    assert all(node is None for node in index._nodes[2:])
    # The root draws no training seed: its first draw spawns its children's generators.
    child_rng = spawn_rngs(int(resolve_rng(TINY_BASE.seed).integers(0, 2**31 - 1)), 16)[0]
    config = TINY_BASE.with_updates(n_bins=2, seed=int(child_rng.integers(0, 2**31 - 1)))
    model, _ = UspTrainer(config).train(points, build_knn_matrix(points, config.k_prime))
    np.testing.assert_array_equal(index.assignments, model.predict_bins(points))
    queries = np.random.default_rng(1).normal(size=(5, 4))
    # The 15 empty branches spread the root's uniform 1/16 over their 2 leaves each.
    expected = np.full((5, 32), (1 / 16) / 2)
    expected[:, :2] = (1 / 16) * model.predict_proba(queries)
    np.testing.assert_array_equal(index.bin_scores(queries), expected)


def test_leaf_scores_multiply_node_probabilities_bottom_up(tiny_dataset, fast_usp_config):
    config = HierarchicalConfig(levels=(2, 2, 2), base=fast_usp_config)
    index = HierarchicalUspIndex(config).build(tiny_dataset.base)
    assert all(node is not None for node in index._nodes)
    queries = tiny_dataset.queries
    # level order: the root, its children 1-2, their children 3-6
    p = [node.predict_proba(queries) for node in index._nodes]
    expected = np.column_stack(
        [
            p[0][:, a] * (p[1 + a][:, b] * p[3 + 2 * a + b][:, c])
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        ]
    )
    np.testing.assert_array_equal(index.bin_scores(queries), expected)


@pytest.mark.parametrize("levels", [(4, 4), (16, 2)])
def test_saved_tree_with_unfitted_nodes_answers_bitwise(levels, tmp_path):
    index, _ = _thirty_point_tree(levels)
    # 30 rows cannot fill every node of either tree with 2 * m rows
    assert any(node is None for node in index._nodes)
    index.save(tmp_path / "tree")
    loaded = load_index(tmp_path / "tree")
    assert [node is None for node in loaded._nodes] == [node is None for node in index._nodes]
    assert loaded.num_parameters() == index.num_parameters()
    queries = np.random.default_rng(1).normal(size=(8, 4))
    np.testing.assert_array_equal(loaded.bin_scores(queries), index.bin_scores(queries))
    for n_probes in (1, 2, index.n_bins):
        want = index.batch_query(queries, 5, n_probes=n_probes)
        got = loaded.batch_query(queries, 5, n_probes=n_probes)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
