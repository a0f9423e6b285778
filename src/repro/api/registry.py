"""String-keyed index registry and the :func:`make_index` factory.

Every index class in :mod:`repro.core`, :mod:`repro.baselines`, and
:mod:`repro.ann` registers itself with :func:`register_index` when its
module is imported.  The registry keeps a table of lazy *builtin* specs —
registry key -> defining module — so ``make_index("usp")`` works without
eagerly importing every back-end, preserving the package's lazy-import
scheme.

>>> from repro.api import make_index, available_indexes
>>> sorted(available_indexes())[:3]
['boosted-forest', 'bruteforce', 'cross-polytope-lsh']
>>> index = make_index("kmeans", n_bins=8, seed=0)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..utils.exceptions import ConfigurationError
from .protocol import IndexCapabilities

#: registry key -> module that performs the registration on import.
_BUILTIN_MODULES: Dict[str, str] = {
    "usp": "repro.core.index",
    "usp-ensemble": "repro.core.ensemble",
    "usp-hierarchical": "repro.core.hierarchical",
    "kmeans": "repro.baselines.kmeans",
    "neural-lsh": "repro.baselines.neural_lsh",
    "regression-lsh": "repro.baselines.neural_lsh",
    "cross-polytope-lsh": "repro.baselines.lsh",
    "pca-tree": "repro.baselines.trees",
    "rp-tree": "repro.baselines.trees",
    "kd-tree": "repro.baselines.trees",
    "two-means-tree": "repro.baselines.trees",
    "boosted-forest": "repro.baselines.boosted_forest",
    "bruteforce": "repro.ann.bruteforce",
    "ivf-flat": "repro.ann.ivf",
    "ivf-pq": "repro.ann.ivf",
    "hnsw": "repro.ann.hnsw",
    "scann": "repro.ann.scann",
    "kmeans-scann": "repro.ann.scann",
    "usp-scann": "repro.ann.scann",
    "sharded": "repro.shard.sharded",
    "sharded-bruteforce": "repro.shard.sharded",
    "sq8": "repro.quant.sq8",
    "pq-adc": "repro.quant.adc",
    "sharded-sq8": "repro.shard.sharded",
}


@dataclass(frozen=True)
class IndexSpec:
    """One registry entry: how to construct, describe, and reload an index."""

    name: str
    cls: type
    factory: Callable[..., Any]
    capabilities: IndexCapabilities
    description: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, IndexSpec] = {}


def register_index(
    name: str,
    *,
    capabilities: Optional[IndexCapabilities] = None,
    description: str = "",
    cls: Optional[type] = None,
    factory: Optional[Callable[..., Any]] = None,
    defaults: Optional[Mapping[str, Any]] = None,
):
    """Class/factory decorator adding an entry to the index registry.

    Applied directly to an index class, the class itself is the factory
    (``make_index(name, **params)`` calls ``cls(**params)``) unless an
    explicit ``factory=`` adapter is given (used by config-object classes
    so flat keyword parameters still work).  Applied to a factory
    function, pass ``cls=`` so persistence knows which class's ``load`` to
    dispatch to, e.g.::

        register_index("usp-scann", cls=ScannSearcher, ...)(usp_scann)

    The first registration of a class also stamps ``cls._registry_name``
    (the name written into saved indexes) and ``cls.capabilities``.
    """

    def decorator(target):
        target_cls = cls if cls is not None else target
        if not isinstance(target_cls, type):
            raise ConfigurationError(
                f"register_index({name!r}) needs cls= when decorating a factory function"
            )
        spec = IndexSpec(
            name=name,
            cls=target_cls,
            factory=factory if factory is not None else target,
            capabilities=capabilities or IndexCapabilities(),
            description=description,
            defaults=dict(defaults or {}),
        )
        if name in _REGISTRY and _REGISTRY[name].cls is not spec.cls:
            raise ConfigurationError(
                f"index name {name!r} is already registered to "
                f"{_REGISTRY[name].cls.__name__}"
            )
        _REGISTRY[name] = spec
        # The first registration wins: composite entries (e.g. the three
        # ScaNN configurations) share one class and one saved-index name.
        if target_cls.__dict__.get("_registry_name") is None:
            target_cls._registry_name = name
            target_cls.capabilities = spec.capabilities
        return target

    return decorator


def _ensure_registered(name: str) -> None:
    if name in _REGISTRY:
        return
    module = _BUILTIN_MODULES.get(name)
    if module is not None:
        importlib.import_module(module)


def _ensure_all_registered() -> None:
    for module in set(_BUILTIN_MODULES.values()):
        importlib.import_module(module)


def get_spec(name: str) -> IndexSpec:
    """Resolve a registry key to its :class:`IndexSpec`."""
    _ensure_registered(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        _ensure_all_registered()
        if name in _REGISTRY:
            return _REGISTRY[name]
        known = ", ".join(sorted(set(_REGISTRY) | set(_BUILTIN_MODULES)))
        raise ConfigurationError(
            f"unknown index {name!r}; available indexes: {known}"
        ) from None


def make_index(name: str, **params):
    """Construct an (unbuilt) index by registry name.

    Parameters are passed to the registered factory on top of the spec's
    defaults, so ``make_index("usp", n_bins=32, epochs=10)`` configures the
    USP index exactly like ``UspIndex(UspConfig(n_bins=32, epochs=10))``.
    """
    spec = get_spec(name)
    merged = {**spec.defaults, **params}
    return spec.factory(**merged)


def available_indexes() -> List[str]:
    """Sorted names of every registered index."""
    _ensure_all_registered()
    return sorted(_REGISTRY)


def index_info(name: str) -> Dict[str, Any]:
    """Human/JSON-friendly description of one registry entry."""
    spec = get_spec(name)
    return {
        "name": spec.name,
        "class": spec.cls.__name__,
        "description": spec.description,
        "defaults": dict(spec.defaults),
        "capabilities": spec.capabilities.as_dict(),
    }
