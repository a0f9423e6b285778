"""An index holds each base row once per partition that answers from it.

A partition index's bin-major layout is its only row store; a Figure 7
pipeline re-ranks from its partitioner's layout; an m-member ensemble or
forest holds m copies, one per member.  Cosine keeps its unit rows beside
the raw ones, so a cosine partition holds two.  The count walks
everything reachable from the index, after a query, for a freshly built
index and for one loaded from disk.  On disk the count is the same, less
the unit rows (derived on load): the float ``(n, d)`` arrays of every
``arrays.npz`` and ``vectors/`` store in the saved tree.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api import get_spec, load_index, make_index
from repro.core import PartitionIndexBase
from repro.core.ensemble import BestMemberIndex
from repro.datasets import sift_like
from repro.quant import VectorStore
from repro.quant.base import VECTORS_DIR
from repro.quant.partitioned import PartitionedAdcIndex
from test_api_registry import TINY_PARAMS

#: 20 columns: no other (n, d) array of the tiny indexes (k'-NN tables,
#: codes, weights) shares the base's shape
DIM = 20

SINGLE = sorted(
    name
    for name in TINY_PARAMS
    if issubclass(get_spec(name).cls, (PartitionIndexBase, PartitionedAdcIndex))
)
ENSEMBLES = sorted(name for name in TINY_PARAMS if issubclass(get_spec(name).cls, BestMemberIndex))


@pytest.fixture(scope="module")
def data():
    return sift_like(n_points=240, n_queries=6, dim=DIM, n_clusters=4, seed=3)


def base_copies(index, shape) -> int:
    """Distinct float buffers of ``shape`` reachable from ``index``'s attributes."""
    buffers, seen, stack = set(), set(), [index]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            if value.shape == shape and value.dtype.kind == "f":
                while isinstance(value.base, np.ndarray):
                    value = value.base
                buffers.add(id(value))
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            stack.extend(vars(value).values())
    return len(buffers)


def saved_copies(path: Path, shape) -> int:
    """Float arrays of ``shape`` in the saved tree at ``path``: npz members and vector stores."""
    copies = 0
    for arrays_file in path.rglob("arrays.npz"):
        with np.load(arrays_file) as arrays:
            copies += sum(arrays[key].shape == shape and arrays[key].dtype.kind == "f" for key in arrays.files)
    return copies + sum(VectorStore.open(store).shape == shape for store in path.rglob(VECTORS_DIR))


def _expected(index) -> int:
    if isinstance(index, BestMemberIndex):
        return len(index.members)
    return 2 if index.metric == "cosine" else 1


def _check(index, data, tmp_path):
    index.save(tmp_path / "index")
    assert saved_copies(tmp_path / "index", data.base.shape) == _expected(index) - (index.metric == "cosine")
    loaded = load_index(tmp_path / "index")
    for served in (index, loaded):
        served.batch_query(data.queries, 5)
        assert base_copies(served, data.base.shape) == _expected(served)


@pytest.mark.parametrize("name", [*SINGLE, *ENSEMBLES])
def test_each_partition_holds_the_base_once(data, name, tmp_path):
    _check(make_index(name, **TINY_PARAMS[name]).build(data.base), data, tmp_path)


def test_a_cosine_partition_holds_its_unit_rows_beside_the_base(data, tmp_path):
    index = make_index("kmeans", **TINY_PARAMS["kmeans"])
    index.metric = "cosine"
    _check(index.build(data.base), data, tmp_path)


@pytest.mark.parametrize("name", ["sq8", "pq-adc"])
def test_a_quantized_index_saves_its_rerank_rows_once(data, name, tmp_path):
    make_index(name, **TINY_PARAMS[name]).build(data.base).save(tmp_path / "index")
    assert saved_copies(tmp_path / "index", data.base.shape) == 1


@pytest.mark.parametrize("name", ["kmeans", "ivf-flat", "ivf-pq"])
def test_a_saved_kmeans_partition_keeps_no_point_labels(data, name, tmp_path):
    """The layout's ids and bounds give each point's cell; no ``(n,)`` label array is saved beside them."""
    index = make_index(name, **TINY_PARAMS[name]).build(data.base)
    index.save(tmp_path / "index")
    n = data.base.shape[0]
    for arrays_file in (tmp_path / "index").rglob("arrays.npz"):
        with np.load(arrays_file) as arrays:
            for key in arrays.files:
                if arrays[key].shape == (n,) and arrays[key].dtype.kind in "iu":
                    np.testing.assert_array_equal(np.sort(arrays[key]), np.arange(n), err_msg=key)
