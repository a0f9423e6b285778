"""Query serving on top of the unified index API.

:mod:`repro.api` answers "how do I build, persist, and reload an index";
this package is its serving counterpart — "how do I answer traffic from
one":

* :class:`QueryRequest` / :class:`QueryResult` / :class:`BatchResult` —
  typed request/response objects replacing positional query knobs;
* :class:`SearchService` — wraps any built :class:`repro.api.AnnIndex`
  with micro-batching, an optional LRU result cache, and
  latency/throughput/recall counters via ``stats()``;
* :class:`Service` — the protocol every host checks before serving a
  target, and whose members (``name``, ``collection``, ``capabilities``,
  ``dim``, ``batch_size``, ``resolve_request``, ``cache_tag``) it then
  reads directly;
* :class:`Router` — hosts multiple named services (multi-dataset /
  multi-index deployments) with capability-based or round-robin dispatch
  and whole-deployment ``save`` / ``Router.load``.

Example
-------
>>> from repro.api import make_index
>>> from repro.service import QueryRequest, SearchService
>>> index = make_index("kmeans", n_bins=16, seed=0).build(base)
>>> service = SearchService(index, cache_size=1024)
>>> result = service.search_batch(queries, QueryRequest(k=10, probes=2))
>>> result.ids.shape, result.queries_per_second
"""

from .cache import QueryCache
from .metrics import ServiceMetrics
from .request import BatchResult, QueryRequest, QueryResult, Service
from .router import Router
from .service import SearchService

__all__ = [
    "QueryCache",
    "ServiceMetrics",
    "BatchResult",
    "QueryRequest",
    "QueryResult",
    "Router",
    "SearchService",
    "Service",
]
