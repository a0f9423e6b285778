"""Declarative per-tenant policy: quotas, ACL, and cache weight.

A :class:`TenantConfig` is pure data — the registry turns it into live
enforcement objects (token buckets, a cache partition, an injected ACL
predicate).  Keeping it declarative means tenant policy round-trips
through JSON (``as_dict``/``from_dict``) exactly like index and service
configs do, so a control plane can store and diff tenant definitions
without importing any runtime machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..filter.predicate import Predicate
from ..utils.exceptions import ValidationError


@dataclass(frozen=True)
class TenantConfig:
    """Quotas and access policy for one tenant.

    Parameters
    ----------
    acl:
        Mandatory filter predicate AND-ed into every query the tenant
        issues (``None`` means the tenant may see the whole namespace).
        Callers cannot opt out: the gateway composes it with any
        user-supplied filter before the request reaches the service.
    max_vectors:
        Hard cap on vectors the tenant may store (``None`` = unlimited).
        Exceeding it raises a non-retryable quota error.
    qps / qps_burst:
        Query token bucket: sustained queries/second and burst size
        (burst defaults to ``qps``).  ``None`` disables rate limiting.
    write_ops / write_burst:
        Same, for mutations (add/remove/extend_attributes).
    cache_weight:
        Relative share of the global result-cache byte budget.  Eviction
        pressure lands on the partition with the highest bytes-per-weight,
        so a weight-2 tenant sustains twice the resident bytes of a
        weight-1 tenant under contention.
    """

    acl: Optional[Predicate] = None
    max_vectors: Optional[int] = None
    qps: Optional[float] = None
    qps_burst: Optional[float] = None
    write_ops: Optional[float] = None
    write_burst: Optional[float] = None
    cache_weight: float = 1.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.acl is not None and not isinstance(self.acl, Predicate):
            raise ValidationError(
                "TenantConfig acl must be a Predicate or None, got "
                f"{type(self.acl).__name__}"
            )
        if self.max_vectors is not None and int(self.max_vectors) < 0:
            raise ValidationError("TenantConfig max_vectors must be >= 0")
        for name in ("qps", "qps_burst", "write_ops", "write_burst"):
            value = getattr(self, name)
            if value is not None and float(value) <= 0:
                raise ValidationError(f"TenantConfig {name} must be positive")
        if self.qps_burst is not None and self.qps is None:
            raise ValidationError("TenantConfig qps_burst requires qps")
        if self.write_burst is not None and self.write_ops is None:
            raise ValidationError("TenantConfig write_burst requires write_ops")
        if float(self.cache_weight) <= 0:
            raise ValidationError("TenantConfig cache_weight must be positive")

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "acl": None if self.acl is None else self.acl.as_dict(),
            "max_vectors": self.max_vectors,
            "qps": self.qps,
            "qps_burst": self.qps_burst,
            "write_ops": self.write_ops,
            "write_burst": self.write_burst,
            "cache_weight": float(self.cache_weight),
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload
