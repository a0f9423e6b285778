"""Multi-tenant serving: quotas, ACL injection, fairness, observability.

One machine, many tenants.  The layers below already isolate *data*
(collections, replica groups) and *load* (admission control); this
package isolates **tenants** — named principals with declarative policy:

* :class:`TenantConfig` — quotas (vector cap, query/write token
  buckets), a mandatory ACL predicate, and a cache weight, all pure data
  that round-trips through JSON;
* :class:`TenantGateway` — a service-shaped facade enforcing the policy
  in the request path: the ACL is AND-ed into every query (the predicate
  fingerprint in the cache key makes cross-tenant cache leakage
  impossible by construction), quota violations raise typed errors the
  wire layer maps to 429 ``quota_exceeded`` with a refill-derived
  ``Retry-After``;
* :class:`TokenBucket` — monotonic-clock rate limiting with an
  injectable clock (tests drive refill without sleeping);
* :class:`CacheBudget` — per-tenant result-cache partitions under one
  global byte budget with weighted eviction;
* :class:`FairScheduler` — deficit-round-robin batching over query rows
  that coalesces equal requests from different tenants into one kernel
  call, bitwise-identical to serving them serially;
* :class:`TenantRegistry` — the control plane tying namespaces, tenants,
  budget, and scheduler together; its gateways are hosted by
  ``Router.add_service`` and by :class:`repro.net.SearchServer`
  (``tenants=registry``) via the ``X-Tenant`` header.

Example
-------
>>> from repro.tenant import TenantConfig, TenantRegistry
>>> from repro.filter import Eq
>>> registry = TenantRegistry(cache_budget_bytes=64 << 20)
>>> registry.add_namespace("catalog", service)
>>> registry.create_tenant(
...     "acme", "catalog",
...     TenantConfig(acl=Eq("owner", "acme"), qps=100, max_vectors=10_000),
... )
>>> registry.gateway("acme").search(vector, k=5)   # ACL injected, metered
"""

from .cache import CacheBudget
from .config import TenantConfig
from .gateway import TenantGateway
from .quota import TokenBucket
from .registry import TenantRegistry
from .scheduler import FairScheduler

__all__ = [
    "CacheBudget",
    "FairScheduler",
    "TenantConfig",
    "TenantGateway",
    "TenantRegistry",
    "TokenBucket",
]
