"""Columnar per-id metadata: the :class:`AttributeStore`.

Filtered search needs attributes next to the vectors — "only documents
this user may see", "price < 100" — evaluated for *every* id at query
time.  Row-major dicts would make every predicate a Python loop, so the
store is columnar: each attribute is one typed column over all ids, and a
predicate compiles to vectorised numpy operations per column.

Three column kinds cover the common predicate shapes:

* **numeric** — a float64 array; supports ``Eq`` / ``In`` / ``Range``.
  ``NaN`` marks a missing value and matches no *leaf* predicate (a
  ``Not`` complement therefore does include missing rows — see
  :class:`repro.filter.Not`).
* **categorical** — integer codes into a small vocabulary (country,
  shop, language); supports ``Eq`` / ``In``.  Code ``-1`` is missing.
* **tags** — a *set* of labels per id (CSR layout: one flat code array
  plus row offsets); ``Eq`` means "has this tag", ``In`` means "has any
  of these tags".

Rows align with index ids: row ``i`` describes the vector with global id
``i``.  :meth:`AttributeStore.extend` appends rows for vectors added to a
mutable index after the build; ids beyond the store (added without
metadata) match no predicate.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import SeedLike, resolve_rng

#: column kinds understood by the predicate compiler
COLUMN_KINDS = ("numeric", "categorical", "tags")


class _Column:
    """One attribute over all rows; subclasses implement the mask kernels."""

    kind: str = ""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def range_mask(self, low: Optional[float], high: Optional[float]) -> np.ndarray:
        raise ValidationError(f"{self.kind} column does not support Range")


def _as_float(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{where} needs a numeric value, got {value!r}"
        ) from None


class NumericColumn(_Column):
    kind = "numeric"

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def eq_mask(self, value: Any) -> np.ndarray:
        return self.values == _as_float(value, "Eq on a numeric column")

    def in_mask(self, values: Sequence[Any]) -> np.ndarray:
        wanted = [_as_float(v, "In on a numeric column") for v in values]
        return np.isin(self.values, np.asarray(wanted))

    def range_mask(self, low: Optional[float], high: Optional[float]) -> np.ndarray:
        # NaN (missing) compares False against both bounds, so it never matches.
        mask = ~np.isnan(self.values)
        if low is not None:
            mask &= self.values >= float(low)
        if high is not None:
            mask &= self.values <= float(high)
        return mask


class CategoricalColumn(_Column):
    kind = "categorical"

    def __init__(self, codes: np.ndarray, vocabulary: Sequence[str]) -> None:
        self.codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        self.vocabulary: List[str] = [str(v) for v in vocabulary]
        self._code_of = {value: code for code, value in enumerate(self.vocabulary)}

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "CategoricalColumn":
        vocabulary = sorted({str(v) for v in values if v is not None})
        code_of = {value: code for code, value in enumerate(vocabulary)}
        codes = np.array(
            [-1 if v is None else code_of[str(v)] for v in values], dtype=np.int64
        )
        return cls(codes, vocabulary)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def _code(self, value: Any) -> int:
        return self._code_of.get(str(value), -2)  # -2: never matches, incl. missing

    def eq_mask(self, value: Any) -> np.ndarray:
        return self.codes == self._code(value)

    def in_mask(self, values: Sequence[Any]) -> np.ndarray:
        wanted = np.asarray(sorted({self._code(v) for v in values}), dtype=np.int64)
        return np.isin(self.codes, wanted[wanted >= 0])


class TagsColumn(_Column):
    """A set of labels per row, stored CSR-style (offsets + flat codes)."""

    kind = "tags"

    def __init__(
        self, indptr: np.ndarray, codes: np.ndarray, vocabulary: Sequence[str]
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64).reshape(-1)
        self.codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        self.vocabulary: List[str] = [str(v) for v in vocabulary]
        self._code_of = {value: code for code, value in enumerate(self.vocabulary)}

    @classmethod
    def from_values(cls, values: Sequence[Iterable[Any]]) -> "TagsColumn":
        rows = [sorted({str(tag) for tag in row}) for row in values]
        vocabulary = sorted({tag for row in rows for tag in row})
        code_of = {value: code for code, value in enumerate(vocabulary)}
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        flat: List[int] = []
        for i, row in enumerate(rows):
            flat.extend(code_of[tag] for tag in row)
            indptr[i + 1] = len(flat)
        return cls(indptr, np.asarray(flat, dtype=np.int64), vocabulary)

    def __len__(self) -> int:
        return int(self.indptr.shape[0] - 1)

    def _rows_with_codes(self, wanted: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(self), dtype=bool)
        if wanted.size == 0 or self.codes.size == 0:
            return mask
        hits = np.flatnonzero(np.isin(self.codes, wanted))
        if hits.size:
            rows = np.searchsorted(self.indptr, hits, side="right") - 1
            mask[np.unique(rows)] = True
        return mask

    def eq_mask(self, value: Any) -> np.ndarray:
        code = self._code_of.get(str(value))
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self._rows_with_codes(np.asarray([code], dtype=np.int64))

    def in_mask(self, values: Sequence[Any]) -> np.ndarray:
        codes = {self._code_of.get(str(v)) for v in values}
        wanted = np.asarray(sorted(c for c in codes if c is not None), dtype=np.int64)
        return self._rows_with_codes(wanted)


class AttributeStore:
    """Columnar metadata for the ids of one index.

    >>> store = AttributeStore()
    >>> store.add_numeric("price", [9.5, 120.0, 42.0])
    >>> store.add_categorical("shop", ["a", "b", "a"])
    >>> store.add_tags("labels", [["new"], [], ["new", "sale"]])
    >>> store.n_rows
    3

    All columns must have the same length (one row per id).  The store is
    attached to an index with ``index.set_attributes(store)``; predicates
    passed as ``filter=`` then compile against it.

    Each store carries a process-unique identity ``token`` and a
    ``version`` counter bumped by every column addition and
    :meth:`extend`; the serving layer folds ``(token, version)`` into its
    result-cache keys so swapping or growing the metadata can never serve
    a stale filtered answer.
    """

    _tokens = itertools.count()

    def __init__(self) -> None:
        self._columns: Dict[str, _Column] = {}
        self.token = next(AttributeStore._tokens)
        self.version = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _check_length(self, name: str, column: _Column) -> None:
        if not name or not isinstance(name, str):
            raise ValidationError("attribute names must be non-empty strings")
        if name in self._columns:
            raise ValidationError(f"attribute {name!r} already exists")
        if self._columns and len(column) != self.n_rows:
            raise ValidationError(
                f"attribute {name!r} has {len(column)} rows, store has {self.n_rows}"
            )

    def add_numeric(self, name: str, values: Sequence[float]) -> "AttributeStore":
        column = NumericColumn(np.asarray(values, dtype=np.float64))
        self._check_length(name, column)
        self._columns[name] = column
        self.version += 1
        return self

    def add_categorical(self, name: str, values: Sequence[Any]) -> "AttributeStore":
        column = CategoricalColumn.from_values(list(values))
        self._check_length(name, column)
        self._columns[name] = column
        self.version += 1
        return self

    def add_tags(self, name: str, values: Sequence[Iterable[Any]]) -> "AttributeStore":
        column = TagsColumn.from_values(list(values))
        self._check_length(name, column)
        self._columns[name] = column
        self.version += 1
        return self

    # ------------------------------------------------------------------ #
    # introspection / access
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def columns(self) -> List[str]:
        return sorted(self._columns)

    def column_kind(self, name: str) -> str:
        return self.column(name).kind

    def column(self, name: str) -> _Column:
        try:
            return self._columns[name]
        except KeyError:
            known = ", ".join(sorted(self._columns)) or "<none>"
            raise ValidationError(
                f"unknown attribute {name!r}; available attributes: {known}"
            ) from None

    # ------------------------------------------------------------------ #
    # mutation (rows appended for vectors added to a mutable index)
    # ------------------------------------------------------------------ #
    def canonical_rows(
        self, rows: Mapping[str, Sequence[Any]], *, expected: Optional[int] = None
    ) -> Dict[str, List[Any]]:
        """Validate an :meth:`extend` batch and coerce it to canonical form.

        Performs every structural check ``extend`` would (all columns
        present, equal lengths, values coercible to each column's kind)
        *without touching the store*, and returns the rows in their
        JSON-able canonical shape: floats for numeric columns, strings or
        ``None`` for categorical ones, sorted unique string lists for
        tags.  Callers that must not mutate anything on bad input — the
        storage layer journaling ahead of the apply, the serving layer
        inserting vectors before metadata — validate through this first.
        """
        if not self._columns:
            raise ValidationError("canonical_rows() needs existing columns; add_* first")
        rows = {str(name): list(values) for name, values in rows.items()}
        missing = sorted(set(self._columns) - set(rows))
        if missing:
            raise ValidationError(f"attribute rows missing columns: {missing}")
        unknown = sorted(set(rows) - set(self._columns))
        if unknown:
            raise ValidationError(f"attribute rows name unknown columns: {unknown}")
        lengths = {name: len(values) for name, values in rows.items()}
        if len(set(lengths.values())) != 1:
            raise ValidationError(f"attribute rows are ragged: {lengths}")
        count = next(iter(lengths.values()))
        if expected is not None and count != expected:
            raise ValidationError(
                f"got {count} attribute rows for {expected} vectors"
            )
        canonical: Dict[str, List[Any]] = {}
        for name, values in rows.items():
            kind = self.column_kind(name)
            if kind == "numeric":
                try:
                    canonical[name] = [float(v) for v in values]
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"column {name!r} needs numeric values"
                    ) from None
            elif kind == "categorical":
                canonical[name] = [None if v is None else str(v) for v in values]
            else:  # tags
                try:
                    canonical[name] = [
                        sorted({str(tag) for tag in row}) for row in values
                    ]
                except TypeError:
                    raise ValidationError(
                        f"column {name!r} needs an iterable of tags per row"
                    ) from None
        return canonical

    def extend(self, rows: Mapping[str, Sequence[Any]]) -> "AttributeStore":
        """Append one batch of rows; every column must receive values.

        ``rows`` maps column name -> sequence of per-row values (tags
        columns take a sequence of iterables).  All sequences must have the
        same length, and every existing column must be present — attributes
        are dense by construction so predicate masks stay vectorised.
        """
        if not self._columns:
            raise ValidationError("extend() needs existing columns; add_* first")
        missing = sorted(set(self._columns) - set(rows))
        if missing:
            raise ValidationError(f"extend() missing values for columns: {missing}")
        unknown = sorted(set(rows) - set(self._columns))
        if unknown:
            raise ValidationError(f"extend() got unknown columns: {unknown}")
        # Materialise once: generators/iterators must not be consumed by
        # the length check and then silently appended as empty.
        rows = {name: list(values) for name, values in rows.items()}
        lengths = {name: len(values) for name, values in rows.items()}
        if len(set(lengths.values())) != 1:
            raise ValidationError(f"extend() got ragged row counts: {lengths}")
        # Build every extended column before publishing any: a bad value
        # in one column must not leave the store torn (ragged lengths
        # with an un-bumped version would also poison cached masks).
        new_columns: Dict[str, _Column] = {}
        for name, values in rows.items():
            column = self._columns[name]
            if isinstance(column, NumericColumn):
                try:
                    extra = np.asarray(values, dtype=np.float64)
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"extend(): column {name!r} needs numeric values"
                    ) from None
                new_columns[name] = NumericColumn(
                    np.concatenate([column.values, extra])
                )
            elif isinstance(column, CategoricalColumn):
                vocabulary = list(column.vocabulary)
                code_of = dict(column._code_of)
                codes = []
                for value in values:
                    if value is None:
                        codes.append(-1)
                        continue
                    key = str(value)
                    if key not in code_of:
                        code_of[key] = len(vocabulary)
                        vocabulary.append(key)
                    codes.append(code_of[key])
                new_columns[name] = CategoricalColumn(
                    np.concatenate([column.codes, np.asarray(codes, dtype=np.int64)]),
                    vocabulary,
                )
            else:
                assert isinstance(column, TagsColumn)
                vocabulary = list(column.vocabulary)
                code_of = dict(column._code_of)
                flat: List[int] = []
                indptr = [int(column.indptr[-1])]
                for row in values:
                    for tag in sorted({str(t) for t in row}):
                        if tag not in code_of:
                            code_of[tag] = len(vocabulary)
                            vocabulary.append(tag)
                        flat.append(code_of[tag])
                    indptr.append(int(column.indptr[-1]) + len(flat))
                new_columns[name] = TagsColumn(
                    np.concatenate([column.indptr, np.asarray(indptr[1:], dtype=np.int64)]),
                    np.concatenate([column.codes, np.asarray(flat, dtype=np.int64)]),
                    vocabulary,
                )
        self._columns.update(new_columns)
        self.version += 1
        return self

    # ------------------------------------------------------------------ #
    # persistence (ridden along by repro.api.persistence)
    # ------------------------------------------------------------------ #
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """(JSON-able config, numpy arrays) — the persistence hook pair."""
        config: Dict[str, Any] = {"columns": {}}
        arrays: Dict[str, np.ndarray] = {}
        for name, column in self._columns.items():
            entry: Dict[str, Any] = {"kind": column.kind}
            if isinstance(column, NumericColumn):
                arrays[f"attr.{name}.values"] = column.values
            elif isinstance(column, CategoricalColumn):
                entry["vocabulary"] = column.vocabulary
                arrays[f"attr.{name}.codes"] = column.codes
            else:
                assert isinstance(column, TagsColumn)
                entry["vocabulary"] = column.vocabulary
                arrays[f"attr.{name}.codes"] = column.codes
                arrays[f"attr.{name}.indptr"] = column.indptr
            config["columns"][name] = entry
        return config, arrays

    @classmethod
    def from_state(
        cls, config: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "AttributeStore":
        store = cls()
        for name, entry in config.get("columns", {}).items():
            kind = entry.get("kind")
            if kind == "numeric":
                store._columns[name] = NumericColumn(arrays[f"attr.{name}.values"])
            elif kind == "categorical":
                store._columns[name] = CategoricalColumn(
                    arrays[f"attr.{name}.codes"], entry.get("vocabulary", [])
                )
            elif kind == "tags":
                store._columns[name] = TagsColumn(
                    arrays[f"attr.{name}.indptr"],
                    arrays[f"attr.{name}.codes"],
                    entry.get("vocabulary", []),
                )
            else:
                raise ValidationError(f"unknown attribute column kind {kind!r}")
        return store


def random_attribute_store(n_rows: int, *, seed: SeedLike = 0) -> AttributeStore:
    """A synthetic store used by benchmarks, examples, and tests.

    Columns: ``price`` (numeric, uniform on [0, 100)), ``shop``
    (categorical over eight values, Zipf-ish skew), and ``labels`` (tags:
    zero to three of eight labels per row).
    """
    rng = resolve_rng(seed)
    store = AttributeStore()
    store.add_numeric("price", rng.uniform(0.0, 100.0, size=n_rows))
    shops = [f"shop-{i}" for i in range(8)]
    weights = 1.0 / np.arange(1, len(shops) + 1)
    store.add_categorical(
        "shop", rng.choice(shops, size=n_rows, p=weights / weights.sum())
    )
    labels = [f"label-{i}" for i in range(8)]
    counts = rng.integers(0, 4, size=n_rows)
    store.add_tags(
        "labels",
        [rng.choice(labels, size=int(c), replace=False).tolist() for c in counts],
    )
    return store
