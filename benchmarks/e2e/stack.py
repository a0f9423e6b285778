"""The serving stack the HTTP workloads put behind a socket.

One definition used twice: by the server child, and by the harness for
its in-process reference (the bitwise check and the ladder rungs), so
the two can only differ by the process boundary.
"""

from __future__ import annotations

#: the tenant every ``serve_http`` request acts as
TENANT = "bench"
NAMESPACE = "corpus"

#: ``SearchService`` result-cache entries; the hot set (64) fits, the
#: unique 80 % of traffic does not, so both hits and evictions occur
CACHE_ENTRIES = 1024


def build_stack(index_or_collection, *, cache_size: int, tenant: bool):
    """``(service, registry)``: a ``SearchService`` over the target and,
    with ``tenant``, a ``TenantRegistry`` holding one tenant on it.

    The tenant has no ACL and no quotas; requests carrying ``X-Tenant``
    go through its ``TenantGateway``.  Without ``tenant`` the registry is
    ``None``.
    """
    from repro.service import SearchService
    from repro.tenant import TenantConfig, TenantRegistry

    service = SearchService(index_or_collection, name=NAMESPACE, cache_size=cache_size)
    if not tenant:
        return service, None
    registry = TenantRegistry()
    registry.add_namespace(NAMESPACE, service)
    registry.create_tenant(TENANT, NAMESPACE, TenantConfig(acl=None))
    return service, registry

