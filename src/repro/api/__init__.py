"""Unified public API: one protocol, one factory, one persistence format.

The paper's central claim is a *comparison* between many interchangeable
partitioning / ANN methods, so the library exposes all of them behind a
single surface:

* :class:`AnnIndex` — the structural protocol every back-end follows
  (``build`` / ``query`` / ``batch_query`` / ``stats``), plus an
  :class:`IndexCapabilities` descriptor attached to each registered class.
* :func:`make_index` / :func:`available_indexes` — the string-keyed
  registry: ``make_index("usp", n_bins=16)`` works for every index in
  :mod:`repro.core`, :mod:`repro.baselines`, and :mod:`repro.ann`.
* ``index.save(path)`` / :func:`load_index` — persistence for every
  registered index (``.npz`` arrays + JSON config), so a built index
  survives process restarts: the prerequisite for any serving story.

Example
-------
>>> from repro.api import make_index, load_index
>>> index = make_index("kmeans", n_bins=8, seed=0).build(base)
>>> index.save("/tmp/kmeans-index")
>>> again = load_index("/tmp/kmeans-index")
"""

from .protocol import (
    AnnIndex,
    IndexCapabilities,
    MutableIndex,
    RegisteredIndex,
    basic_index_stats,
)
from .registry import (
    IndexSpec,
    available_indexes,
    get_spec,
    index_info,
    make_index,
    register_index,
)
from .persistence import PersistentIndexMixin, load_index

__all__ = [
    "AnnIndex",
    "IndexCapabilities",
    "MutableIndex",
    "RegisteredIndex",
    "basic_index_stats",
    "IndexSpec",
    "available_indexes",
    "get_spec",
    "index_info",
    "make_index",
    "register_index",
    "PersistentIndexMixin",
    "load_index",
]
