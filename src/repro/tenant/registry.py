"""The tenant control plane: namespaces, tenants, budget, scheduler.

A :class:`TenantRegistry` owns the pieces the rest of the stack hosts:

* **namespaces** — serving targets (anything satisfying
  :class:`~repro.service.Service`: ``SearchService``, collection-backed
  services, ``ReplicaGroup``) that tenants attach to.
  Several tenants may share one namespace; their ACL predicates carve it
  into disjoint (or overlapping, if so configured) views.
* **tenants** — :class:`~repro.tenant.gateway.TenantGateway` instances
  built from declarative :class:`~repro.tenant.config.TenantConfig`
  policy; the registry wires in the shared cache budget and clock.
* **cache budget** — one :class:`~repro.tenant.cache.CacheBudget` pool
  all partitions draw from, with weighted eviction.
* **scheduler** — one :class:`~repro.tenant.scheduler.FairScheduler`
  giving cross-tenant submissions deficit-round-robin fairness.

Lookup of an unknown tenant raises the typed
:class:`~repro.utils.exceptions.UnknownTenantError` the wire layer maps
to 404 ``unknown_tenant``, so a fat-fingered ``X-Tenant`` header cannot
fall through to some default namespace.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Dict, List, Optional

from ..service.request import Service
from ..utils.exceptions import UnknownTenantError, ValidationError
from .cache import CacheBudget
from .config import TenantConfig
from .gateway import TenantGateway
from .scheduler import FairScheduler

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class TenantRegistry:
    """Named tenants over named namespaces, with shared budget and scheduler."""

    def __init__(
        self,
        *,
        cache_budget_bytes: Optional[int] = None,
        quantum_rows: int = 64,
        max_pending_rows: int = 4096,
        clock=time.monotonic,
    ) -> None:
        self.budget = (
            None if cache_budget_bytes is None else CacheBudget(cache_budget_bytes)
        )
        self.scheduler = FairScheduler(
            quantum_rows=quantum_rows, max_pending_rows=max_pending_rows
        )
        self._clock = clock
        self._namespaces: Dict[str, object] = {}
        self._tenants: Dict[str, TenantGateway] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _check_name(name: str, kind: str) -> str:
        name = str(name)
        if not _NAME_PATTERN.match(name):
            raise ValidationError(
                f"{kind} name {name!r} must match {_NAME_PATTERN.pattern}"
            )
        return name

    # ------------------------------------------------------------------ #
    # namespaces
    # ------------------------------------------------------------------ #
    def add_namespace(self, name: str, service) -> None:
        """Register a serving target tenants can attach to."""
        name = self._check_name(name, "namespace")
        if not isinstance(service, Service):
            raise ValidationError(
                f"{type(service).__name__} does not look like a serving target "
                "(it must satisfy the repro.service.Service protocol)"
            )
        with self._lock:
            if name in self._namespaces:
                raise ValidationError(f"namespace {name!r} already registered")
            self._namespaces[name] = service

    def namespace(self, name: str):
        with self._lock:
            service = self._namespaces.get(name)
        if service is None:
            raise ValidationError(
                f"unknown namespace {name!r}; registered: "
                f"{sorted(self._namespaces)}"
            )
        return service

    def namespaces(self) -> List[str]:
        with self._lock:
            return sorted(self._namespaces)

    # ------------------------------------------------------------------ #
    # tenants
    # ------------------------------------------------------------------ #
    def create_tenant(
        self,
        name: str,
        namespace: str,
        config: Optional[TenantConfig] = None,
        *,
        vectors_used: int = 0,
    ) -> TenantGateway:
        """Provision a tenant on a namespace; returns its live gateway.

        ``vectors_used`` seeds the vector-quota counter for tenants whose
        data predates the registry (the gateway cannot derive per-tenant
        counts from a shared index).
        """
        name = self._check_name(name, "tenant")
        config = config or TenantConfig()
        service = self.namespace(namespace)
        with self._lock:
            if name in self._tenants:
                raise ValidationError(f"tenant {name!r} already exists")
        cache = None
        if self.budget is not None:
            cache = self.budget.create_partition(name, weight=config.cache_weight)
        gateway = TenantGateway(
            name,
            service,
            config,
            namespace=namespace,
            cache=cache,
            budget=self.budget,
            clock=self._clock,
            vectors_used=vectors_used,
        )
        with self._lock:
            if name in self._tenants:  # lost a provisioning race
                if self.budget is not None:
                    self.budget.drop_partition(name)
                raise ValidationError(f"tenant {name!r} already exists")
            self._tenants[name] = gateway
        return gateway

    def drop_tenant(self, name: str) -> None:
        with self._lock:
            gateway = self._tenants.pop(name, None)
        if gateway is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        if self.budget is not None:
            self.budget.drop_partition(name)

    def gateway(self, name: str) -> TenantGateway:
        """The tenant's gateway; typed 404 ``unknown_tenant`` when absent."""
        with self._lock:
            gateway = self._tenants.get(name)
        if gateway is None:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; provisioned: {sorted(self._tenants)}"
            )
        return gateway

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    # ------------------------------------------------------------------ #
    # fair cross-tenant submission
    # ------------------------------------------------------------------ #
    def submit(self, tenant: str, queries, request=None, **overrides):
        """Queue a tenant batch on the shared fair scheduler."""
        return self.scheduler.submit(
            self.gateway(tenant), queries, request, **overrides
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            gateways = dict(self._tenants)
            namespaces = sorted(self._namespaces)
        payload = {
            "tenants": {name: gw.stats() for name, gw in sorted(gateways.items())},
            "namespaces": namespaces,
            "scheduler": self.scheduler.stats(),
        }
        if self.budget is not None:
            payload["cache_budget"] = self.budget.stats()
        return payload
