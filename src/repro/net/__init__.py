"""Network serving: an asyncio HTTP front-end for the search stack.

The layers below answer queries in process; this package puts them on a
socket with the behaviours production traffic needs:

* :class:`SearchServer` — stdlib-asyncio HTTP/1.1 server over a
  :class:`~repro.service.SearchService`, :class:`~repro.service.Router`,
  or durable :class:`~repro.store.Collection`: JSON ``/query`` /
  ``/batch_query`` (filters included), durable ``/add`` / ``/remove`` /
  ``/extend_attributes`` (acknowledged after the WAL fsync), ``/stats``,
  Prometheus-text ``/metrics``, and ``/healthz``.
* :class:`AdmissionController` / :class:`Deadline` — bounded admission
  (typed 429 + ``Retry-After`` shed), per-request deadlines carried into
  the execution path (504, queued vs. execution stage), and
  drain-then-stop shutdown.  Jobs run on the server's thread pool,
  except a cheap ``/query``, which runs on the event loop when that
  delays nothing.
* A typed error taxonomy (:mod:`repro.net.errors`) mapping the library's
  exceptions to stable 4xx/5xx JSON bodies.
* :class:`AsyncHttpClient` / :func:`request_json` — stdlib clients used
  by the load harness (``benchmarks/bench_load.py``), tests, and
  examples; an opt-in :class:`RetryPolicy` retries the typed 429/503
  responses with capped jittered backoff, honoring ``Retry-After``.
* Replication hosting — constructed with
  ``replication=repro.replica.Primary(...)``, the server additionally
  exposes ``GET /replicate`` (WAL shipping + snapshot bootstrap) for
  cross-process read replicas.
* Tenant hosting — constructed with ``tenants=`` a
  :class:`repro.tenant.TenantRegistry` (alone, for a tenant-only server),
  requests carrying the ``X-Tenant`` header are served through that
  tenant's gateway: ACL injected, quotas charged (typed 429
  ``quota_exceeded`` with refill-derived ``Retry-After``), per-tenant
  ``repro_tenant_*`` series on ``/metrics``.

Example
-------
>>> from repro.net import SearchServer, ServerConfig, request_json
>>> with SearchServer(service, config=ServerConfig(port=0)) as server:
...     status, body = request_json(
...         server.url + "/query", method="POST",
...         body={"vector": queries[0].tolist(), "request": {"k": 5}},
...     )
"""

from .admission import AdmissionController, Deadline
from .client import AsyncHttpClient, RetryPolicy, request_json, retry_after_from
from .errors import (
    ApiError,
    BadRequest,
    DeadlineExpired,
    Draining,
    MethodNotAllowed,
    NotFound,
    QuotaExceeded,
    ShedLoad,
    StorageUnavailable,
    UnfilterableIndex,
    api_error_from,
)
from .http import HttpRequest, HttpResponse
from .metrics import ServerMetrics
from .server import (
    DEADLINE_HEADER,
    TENANT_HEADER,
    TRACE_ID_HEADER,
    SearchServer,
    ServerConfig,
)

__all__ = [
    "AdmissionController",
    "Deadline",
    "AsyncHttpClient",
    "RetryPolicy",
    "request_json",
    "retry_after_from",
    "ApiError",
    "BadRequest",
    "DeadlineExpired",
    "Draining",
    "MethodNotAllowed",
    "NotFound",
    "QuotaExceeded",
    "ShedLoad",
    "StorageUnavailable",
    "UnfilterableIndex",
    "api_error_from",
    "HttpRequest",
    "HttpResponse",
    "ServerMetrics",
    "DEADLINE_HEADER",
    "TENANT_HEADER",
    "TRACE_ID_HEADER",
    "SearchServer",
    "ServerConfig",
]
