"""neural-partitioner: reproduction of "Unsupervised Space Partitioning for
Nearest Neighbor Search" (Fahim, Ali, Cheema — EDBT 2023).

The library grows the paper's comparison — USP against K-means, Neural
LSH, classical LSH, partition trees, and full ANN pipelines (IVF-PQ,
HNSW, ScaNN) — into one system behind a single public API:

* :func:`repro.api.make_index` — construct **any** back-end by registry
  name: ``make_index("usp", n_bins=16)``, ``make_index("hnsw", m=16)``,
  ``make_index("kmeans-scann", n_bins=32)``, ...;
  :func:`repro.api.available_indexes` lists every name.
* The :class:`repro.api.AnnIndex` protocol — every index follows
  ``build(base)`` / ``query`` / ``batch_query`` / ``stats()``, with an
  :class:`repro.api.IndexCapabilities` descriptor on each class (metric
  support, probe semantics, parameter-count reporting).
* Persistence — every registered index round-trips through
  ``index.save(path)`` / :func:`repro.api.load_index` (JSON config +
  ``.npz`` arrays), answering queries bitwise-identically after reload.
* Serving — :class:`repro.service.SearchService` wraps any built or
  reloaded index with typed :class:`repro.service.QueryRequest` requests,
  micro-batching, an optional LRU result cache,
  and latency/throughput/recall counters; :class:`repro.service.Router`
  hosts several named services with capability-based dispatch and
  whole-deployment save/restore.

The underlying subpackages remain importable directly (and are loaded
lazily, so ``import repro`` stays cheap):

* :mod:`repro.core` — the USP index, ensemble, and hierarchy (the
  paper's contribution).
* :mod:`repro.baselines` — K-means, Neural LSH, LSH, and tree baselines.
* :mod:`repro.ann` — brute force, IVF-PQ, HNSW, and ScaNN-like back-ends.
* :mod:`repro.datasets` — synthetic SIFT-like / MNIST-like benchmark data.
* :mod:`repro.eval` — recall metrics, sweeps, and the experiment harness.

Naming convention: *indexes build, codecs fit* — every index exposes
``build``; the quantizers (:class:`repro.ann.ProductQuantizer`,
:class:`repro.ann.AnisotropicQuantizer`) keep ``fit``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "1.1.0"

_LAZY_SUBMODULES = {
    "api",
    "nn",
    "utils",
    "datasets",
    "core",
    "baselines",
    "ann",
    "clustering",
    "eval",
    "filter",
    "net",
    "quant",
    "replica",
    "service",
    "shard",
    "store",
    "tenant",
}

_LAZY_ATTRS = {
    # name -> (module, attribute)
    "AnnIndex": ("repro.api", "AnnIndex"),
    "MutableIndex": ("repro.api", "MutableIndex"),
    "IndexCapabilities": ("repro.api", "IndexCapabilities"),
    "ShardedIndex": ("repro.shard", "ShardedIndex"),
    "AttributeStore": ("repro.filter", "AttributeStore"),
    "Predicate": ("repro.filter", "Predicate"),
    "FilterPlanner": ("repro.filter", "FilterPlanner"),
    "make_index": ("repro.api", "make_index"),
    "available_indexes": ("repro.api", "available_indexes"),
    "index_info": ("repro.api", "index_info"),
    "register_index": ("repro.api", "register_index"),
    "save_index": ("repro.api", "save_index"),
    "load_index": ("repro.api", "load_index"),
    "UspIndex": ("repro.core", "UspIndex"),
    "UspEnsembleIndex": ("repro.core", "UspEnsembleIndex"),
    "HierarchicalUspIndex": ("repro.core", "HierarchicalUspIndex"),
    "UspConfig": ("repro.core", "UspConfig"),
    "load_dataset": ("repro.datasets", "load_dataset"),
    "knn_accuracy": ("repro.eval", "knn_accuracy"),
    "Collection": ("repro.store", "Collection"),
    "MaintenanceLoop": ("repro.store", "MaintenanceLoop"),
    "WriteAheadLog": ("repro.store", "WriteAheadLog"),
    "SearchService": ("repro.service", "SearchService"),
    "QueryRequest": ("repro.service", "QueryRequest"),
    "QueryResult": ("repro.service", "QueryResult"),
    "BatchResult": ("repro.service", "BatchResult"),
    "Router": ("repro.service", "Router"),
    "SearchServer": ("repro.net", "SearchServer"),
    "ServerConfig": ("repro.net", "ServerConfig"),
    "Sq8Index": ("repro.quant", "Sq8Index"),
    "PqAdcIndex": ("repro.quant", "PqAdcIndex"),
    "VectorStore": ("repro.quant", "VectorStore"),
    "Primary": ("repro.replica", "Primary"),
    "Follower": ("repro.replica", "Follower"),
    "ReplicaGroup": ("repro.replica", "ReplicaGroup"),
    "ReplicationLoop": ("repro.replica", "ReplicationLoop"),
    "SessionToken": ("repro.replica", "SessionToken"),
    "TenantRegistry": ("repro.tenant", "TenantRegistry"),
    "TenantConfig": ("repro.tenant", "TenantConfig"),
    "TenantGateway": ("repro.tenant", "TenantGateway"),
    "FairScheduler": ("repro.tenant", "FairScheduler"),
}

__all__ = sorted(_LAZY_SUBMODULES | set(_LAZY_ATTRS) | {"__version__"})


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"repro.{name}")
    if name in _LAZY_ATTRS:
        module_name, attr = _LAZY_ATTRS[name]
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import ann, api, baselines, clustering, core, datasets, eval, filter, net, nn, quant, replica, service, shard, store, tenant, utils
