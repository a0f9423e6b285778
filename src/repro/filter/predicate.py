"""A composable predicate algebra that compiles to numpy boolean masks.

``Eq`` / ``In`` / ``Range`` are the leaves, ``And`` / ``Or`` / ``Not``
combine them; ``&`` / ``|`` / ``~`` operators are sugar for the
combinators.  A predicate is evaluated against an
:class:`~repro.filter.AttributeStore` with :meth:`Predicate.mask`, giving
one boolean per id, and against an index through the ``filter=`` keyword
of ``query`` / ``batch_query`` (the index resolves it via its attached
store).

Every predicate also has a canonical :meth:`~Predicate.fingerprint` — a
hashable value that is equal exactly when two predicates are structurally
equivalent up to ``And``/``Or`` child order — which the serving layer
folds into its result-cache keys, and a JSON round-trip
(:meth:`~Predicate.as_dict` / :func:`predicate_from_dict`) used by
request persistence.

>>> pred = Eq("shop", "a") & Range("price", high=40.0)
>>> mask = pred.mask(store)            # np.ndarray of bool, one per id
>>> pred.fingerprint() == (Range("price", high=40.0) & Eq("shop", "a")).fingerprint()
True
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..utils.exceptions import ValidationError
from .attributes import AttributeStore

#: value types allowed inside predicates (JSON-able, hashable)
_SCALAR_TYPES = (str, int, float, bool)


def _check_scalar(value: Any, where: str) -> Any:
    if not isinstance(value, _SCALAR_TYPES):
        raise ValidationError(
            f"{where} values must be str/int/float/bool, got {type(value).__name__}"
        )
    return value


class Predicate:
    """Base class: combinators, operators, and the shared surface."""

    def mask(self, store: AttributeStore) -> np.ndarray:
        """One boolean per store row: does the row satisfy this predicate?"""
        raise NotImplementedError  # pragma: no cover - abstract

    def cached_mask(self, store: AttributeStore) -> np.ndarray:
        """:meth:`mask`, memoized per (store token, store version).

        The serving layer evaluates one predicate against one store many
        times (once per micro-batch chunk, once per post-filter retry);
        the compiled mask is O(rows) per column, so the last result is
        kept on the predicate instance and reused until the store mutates.
        Callers must treat the returned array as read-only.
        """
        key = (store.token, store.version)
        cached = getattr(self, "_mask_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = self.mask(store)
        self._mask_cache = (key, mask)
        return mask

    def fingerprint(self) -> tuple:
        """Canonical hashable identity (And/Or child order does not matter)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :func:`predicate_from_dict`."""
        raise NotImplementedError  # pragma: no cover - abstract

    def selectivity(self, store: AttributeStore) -> float:
        """Fraction of rows matching (exact, from one mask evaluation)."""
        if store.n_rows == 0:
            return 0.0
        return float(self.mask(store).mean())

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())


class Eq(Predicate):
    """``column == value`` (for tags columns: "the row has this tag")."""

    def __init__(self, column: str, value: Any) -> None:
        self.column = str(column)
        self.value = _check_scalar(value, "Eq")

    def mask(self, store: AttributeStore) -> np.ndarray:
        return store.column(self.column).eq_mask(self.value)

    def fingerprint(self) -> tuple:
        return ("eq", self.column, type(self.value).__name__, self.value)

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "eq", "column": self.column, "value": self.value}


class In(Predicate):
    """``column in values`` (for tags columns: "has any of these tags")."""

    def __init__(self, column: str, values: Sequence[Any]) -> None:
        self.column = str(column)
        values = list(values)
        if not values:
            raise ValidationError("In needs at least one value")
        self.values = tuple(_check_scalar(v, "In") for v in values)

    def mask(self, store: AttributeStore) -> np.ndarray:
        return store.column(self.column).in_mask(self.values)

    def fingerprint(self) -> tuple:
        # Dedup on (type, value) pairs: a bare set() would collapse
        # numerically-equal values of different types (1 == True == 1.0)
        # before the type tag is attached, giving structurally different
        # predicates — hence different masks — one shared cache identity.
        frozen = sorted({(type(v).__name__, v) for v in self.values})
        return ("in", self.column, tuple(frozen))

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "in", "column": self.column, "values": list(self.values)}


class Range(Predicate):
    """``low <= column <= high`` on a numeric column (bounds inclusive).

    Either bound may be ``None`` (open); ``Range("price", high=40.0)``
    is "price at most 40".
    """

    def __init__(
        self, column: str, low: Optional[float] = None, high: Optional[float] = None
    ) -> None:
        self.column = str(column)
        if low is None and high is None:
            raise ValidationError("Range needs at least one bound")
        try:
            self.low = None if low is None else float(low)
            self.high = None if high is None else float(high)
        except (TypeError, ValueError):
            raise ValidationError(
                f"Range bounds must be numeric, got low={low!r} high={high!r}"
            ) from None
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ValidationError(f"Range low {self.low} exceeds high {self.high}")

    def mask(self, store: AttributeStore) -> np.ndarray:
        return store.column(self.column).range_mask(self.low, self.high)

    def fingerprint(self) -> tuple:
        return ("range", self.column, self.low, self.high)

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "range", "column": self.column, "low": self.low, "high": self.high}


def _flatten(op: type, children: Sequence[Predicate]) -> List[Predicate]:
    """Associativity: And(a, And(b, c)) keeps one flat child list."""
    flat: List[Predicate] = []
    for child in children:
        if not isinstance(child, Predicate):
            raise ValidationError(
                f"{op.__name__} children must be predicates, got {type(child).__name__}"
            )
        if type(child) is op:
            flat.extend(child.children)  # type: ignore[attr-defined]
        else:
            flat.append(child)
    if not flat:
        raise ValidationError(f"{op.__name__} needs at least one child")
    return flat


class And(Predicate):
    """Every child matches."""

    def __init__(self, *children: Predicate) -> None:
        self.children: Tuple[Predicate, ...] = tuple(_flatten(And, children))

    def mask(self, store: AttributeStore) -> np.ndarray:
        mask = self.children[0].mask(store)
        for child in self.children[1:]:
            mask = mask & child.mask(store)
        return mask

    def fingerprint(self) -> tuple:
        # Child order is commutative: sort by a stable textual key so
        # And(a, b) and And(b, a) share one cache identity.
        return ("and", tuple(sorted((c.fingerprint() for c in self.children), key=repr)))

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "and", "children": [c.as_dict() for c in self.children]}


class Or(Predicate):
    """At least one child matches."""

    def __init__(self, *children: Predicate) -> None:
        self.children: Tuple[Predicate, ...] = tuple(_flatten(Or, children))

    def mask(self, store: AttributeStore) -> np.ndarray:
        mask = self.children[0].mask(store)
        for child in self.children[1:]:
            mask = mask | child.mask(store)
        return mask

    def fingerprint(self) -> tuple:
        return ("or", tuple(sorted((c.fingerprint() for c in self.children), key=repr)))

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "or", "children": [c.as_dict() for c in self.children]}


class Not(Predicate):
    """The child does not match (plain set complement).

    Note the missing-value semantics: leaves never match rows whose
    attribute is missing (``NaN`` numeric, ``None`` categorical), so
    those rows *do* match the complement — ``~Eq("shop", "a")`` includes
    rows with no shop at all.  To exclude unknowns too, conjoin a
    presence test, e.g. ``~Eq("shop", "a") & In("shop", known_shops)``.
    """

    def __init__(self, child: Predicate) -> None:
        if not isinstance(child, Predicate):
            raise ValidationError(
                f"Not takes a predicate, got {type(child).__name__}"
            )
        self.child = child

    def mask(self, store: AttributeStore) -> np.ndarray:
        return ~self.child.mask(store)

    def fingerprint(self) -> tuple:
        return ("not", self.child.fingerprint())

    def as_dict(self) -> Dict[str, Any]:
        return {"op": "not", "child": self.child.as_dict()}


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    """Rebuild a predicate from :meth:`Predicate.as_dict` output."""
    op = data.get("op")
    if op == "eq":
        return Eq(data["column"], data["value"])
    if op == "in":
        return In(data["column"], data["values"])
    if op == "range":
        return Range(data["column"], low=data.get("low"), high=data.get("high"))
    if op == "and":
        return And(*(predicate_from_dict(c) for c in data["children"]))
    if op == "or":
        return Or(*(predicate_from_dict(c) for c in data["children"]))
    if op == "not":
        return Not(predicate_from_dict(data["child"]))
    raise ValidationError(f"unknown predicate op {op!r}")
