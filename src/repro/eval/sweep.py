"""Accuracy-versus-cost sweeps — the curves behind every figure.

Figures 5 and 6 plot 10-NN accuracy against the average candidate set size
|C|, generated by probing successively more of the most probable bins.
Figure 7 plots accuracy against query throughput for full ANN pipelines.
This module produces both kinds of curves.  A candidate curve needs a
``routed`` index: |C| and the candidate ceiling are bin arithmetic over the
bins its ``route`` picks (:func:`repro.eval.metrics.candidate_stats`), the
same bins its ``batch_query`` scans.

All query execution (and therefore all timing) goes through
:class:`repro.service.SearchService`, so the throughput each curve reports
is measured on the same instrumented micro-batched path applications
would serve from — not on a bespoke benchmark loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.ann import AnnDataset
from ..service import QueryRequest, SearchService
from ..utils.exceptions import ValidationError
from .metrics import candidate_stats, knn_accuracy


@dataclass
class SweepPoint:
    """One operating point of an index on a dataset."""

    n_probes: int
    candidate_size: float
    accuracy: float
    candidate_ceiling: Optional[float] = None
    queries_per_second: Optional[float] = None


@dataclass
class SweepCurve:
    """A named accuracy/cost trade-off curve (one line in a paper figure)."""

    method: str
    points: List[SweepPoint] = field(default_factory=list)

    def candidate_sizes(self) -> np.ndarray:
        return np.array([p.candidate_size for p in self.points])

    def accuracies(self) -> np.ndarray:
        return np.array([p.accuracy for p in self.points])

    def candidate_size_at_accuracy(self, target_accuracy: float) -> float:
        """Smallest candidate size reaching ``target_accuracy`` (interpolated).

        This is what the paper's Table 4 reports (at 85% 10-NN accuracy).
        Returns ``inf`` if the curve never reaches the target.
        """
        sizes = self.candidate_sizes()
        accs = self.accuracies()
        order = np.argsort(sizes)
        sizes, accs = sizes[order], accs[order]
        if accs.max() < target_accuracy:
            return float("inf")
        for i, acc in enumerate(accs):
            if acc >= target_accuracy:
                if i == 0 or accs[i] == accs[i - 1]:
                    return float(sizes[i])
                # Linear interpolation between the bracketing points.
                fraction = (target_accuracy - accs[i - 1]) / (accs[i] - accs[i - 1])
                return float(sizes[i - 1] + fraction * (sizes[i] - sizes[i - 1]))
        return float("inf")


def resolve_index(index, base: Optional[np.ndarray] = None, params: Optional[dict] = None):
    """Accept an index instance *or* a registry name and return a built index.

    Strings are resolved through :func:`repro.api.make_index`; unbuilt
    indexes are built on ``base``.  This is what lets every sweep/figure
    driver name its methods ("usp", "kmeans", ...) instead of importing
    each back-end class.
    """
    if isinstance(index, SearchService):
        if params:
            raise ValidationError("params are only valid when index is a registry name")
        return index.index
    if isinstance(index, str):
        from ..api import make_index

        index = make_index(index, **(params or {}))
    elif params:
        raise ValidationError("params are only valid when index is a registry name")
    if not getattr(index, "is_built", True):
        if base is None:
            raise ValidationError(f"index {index!r} is not built and no base was given")
        index.build(base)
    return index


def resolve_service(
    index, base: Optional[np.ndarray] = None, params: Optional[dict] = None
) -> SearchService:
    """Like :func:`resolve_index`, but return a serving front-end.

    A :class:`~repro.service.SearchService` passed in is used as-is (with
    its cache and counters), so a sweep can run against the exact service
    instance a deployment exposes; anything else is resolved/built and
    wrapped in a fresh uncached service.
    """
    if isinstance(index, SearchService):
        if params:
            raise ValidationError("params are only valid when index is a registry name")
        return index
    return SearchService(resolve_index(index, base, params))


def probe_schedule(n_bins: int, max_points: int = 12) -> List[int]:
    """A roughly geometric multi-probe schedule covering 1..n_bins."""
    if n_bins < 1:
        raise ValidationError("n_bins must be positive")
    values: List[int] = []
    current = 1
    while current < n_bins and len(values) < max_points - 1:
        values.append(int(current))
        current = max(current + 1, int(round(current * 1.6)))
    values.append(int(n_bins))
    return sorted(set(values))


def accuracy_candidate_curve(
    index,
    dataset: AnnDataset,
    *,
    k: int = 10,
    probes: Optional[Sequence[int]] = None,
    method: Optional[str] = None,
    measure_time: bool = False,
    index_params: Optional[dict] = None,
) -> SweepCurve:
    """Sweep ``n_probes`` and record (candidate size, k-NN accuracy) points.

    ``index`` is either a built index instance, a registry name (e.g.
    ``"usp"``, built on ``dataset.base`` with ``index_params``), or a
    :class:`~repro.service.SearchService`.  It must be ``routed`` (every
    partition index and ensemble in this library is); queries execute
    through the serving layer so timings match the deployed path.
    """
    name = index if isinstance(index, str) else None
    service = resolve_service(index, dataset.base, index_params)
    index = service.index
    if not type(index).capabilities.routed:
        raise ValidationError(
            f"{type(index).__name__} does not route queries to bins, so it has "
            "no candidate set size; candidate curves need a partition index or ensemble"
        )
    if probes is None:
        probes = probe_schedule(index.n_bins)
    curve = SweepCurve(method=method or name or type(index).__name__)
    queries = dataset.queries
    ground_truth = dataset.ground_truth_for(k)
    for n_probes in probes:
        size, ceiling = candidate_stats(index, queries, ground_truth, k, n_probes)
        batch = service.search_batch(queries, QueryRequest(k=k, probes=int(n_probes)))
        accuracy = knn_accuracy(batch.ids, ground_truth, k)
        qps = batch.queries_per_second if measure_time else None
        curve.points.append(
            SweepPoint(
                n_probes=int(n_probes),
                candidate_size=size,
                accuracy=accuracy,
                candidate_ceiling=ceiling,
                queries_per_second=qps,
            )
        )
    return curve


@dataclass
class FilterSweepPoint:
    """One predicate of a filtered-search sweep on one index."""

    label: str
    selectivity: float
    strategy: str
    recall: float
    queries_per_second: float
    n_allowed: int


def _same_store_content(a, b) -> bool:
    """Whether two attribute stores hold identical columns and values.

    Distinguishes "a different store" (an error for the curve) from "the
    same store reloaded" — ``load_index`` re-attaches a fresh
    :class:`~repro.filter.AttributeStore` object with equal content.
    """
    config_a, arrays_a = a.to_state()
    config_b, arrays_b = b.to_state()
    if config_a != config_b or sorted(arrays_a) != sorted(arrays_b):
        return False

    def equal(x, y) -> bool:
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        # NaN marks a missing numeric value, so NaN == NaN here
        if np.issubdtype(x.dtype, np.floating):
            return bool(np.array_equal(x, y, equal_nan=True))
        return bool(np.array_equal(x, y))

    return all(equal(arrays_a[key], arrays_b[key]) for key in arrays_a)


def filtered_recall(ids: np.ndarray, exact_ids: np.ndarray, k: int) -> float:
    """Recall of filtered results against the exact filtered ground truth.

    Both arrays are ``-1``-padded when a predicate leaves fewer than ``k``
    matching points; each row is scored against the number of *real*
    exact neighbours it has, so a fully-correct short row still counts as
    recall 1.0.
    """
    ids = np.asarray(ids)[:, :k]
    exact_ids = np.asarray(exact_ids)[:, :k]
    hits = 0
    total = 0
    for row_ids, row_exact in zip(ids, exact_ids):
        truth = {int(x) for x in row_exact if x >= 0}
        if not truth:
            continue
        hits += sum(1 for x in row_ids if int(x) in truth)
        total += len(truth)
    return hits / total if total else 1.0


def filter_selectivity_curve(
    index,
    dataset: AnnDataset,
    store,
    predicates: Sequence[Tuple[str, Any]],
    *,
    k: int = 10,
    probes: Optional[int] = None,
    index_params: Optional[dict] = None,
) -> List[FilterSweepPoint]:
    """Sweep predicates and record recall / throughput per selectivity.

    For every ``(label, predicate)`` pair the exact filtered ground truth
    is computed by brute force over the surviving subset of
    ``dataset.base``, then the index answers the same filtered queries
    through :class:`~repro.service.SearchService` (the instrumented
    serving path) and the point records the predicate's selectivity, the
    strategy the :class:`repro.filter.FilterPlanner` picks, the filtered
    recall, and the measured throughput.

    An index passed without an attribute store gets ``store`` attached
    only for the duration of the sweep and detached again afterwards, so
    a later ``save`` cannot silently persist benchmark metadata into the
    artifact; an index already carrying an equal-content store keeps it.
    """
    from ..filter.planner import DEFAULT_PLANNER
    from ..shard import ShardedIndex
    from ..utils.distances import pairwise_topk

    service = resolve_service(index, dataset.base, index_params)
    index = service.index
    existing = getattr(index, "attributes", None)
    attached_for_sweep = False
    if existing is None:
        index.set_attributes(store)
        attached_for_sweep = True
    elif existing is not store and not _same_store_content(existing, store):
        # Ground truth below comes from ``store``; letting the index keep
        # answering against a *different* store would silently corrupt
        # every recall/selectivity number in the curve.  Equal-content
        # stores (e.g. the copy a load_index() re-attached) are fine.
        raise ValidationError(
            "index already carries a different attribute store than the one "
            "passed to filter_selectivity_curve; detach it or pass the same store"
        )
    metric = str(getattr(index, "metric", "euclidean") or "euclidean")
    queries = dataset.queries
    points: List[FilterSweepPoint] = []
    try:
        for label, predicate in predicates:
            mask = predicate.mask(store)
            n_allowed = int(np.count_nonzero(mask))
            if n_allowed:
                allowed = np.flatnonzero(mask)
                local, _ = pairwise_topk(
                    queries, dataset.base[allowed], min(k, n_allowed), metric=metric
                )
                exact_ids = allowed[local]
            else:
                exact_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
            # Label what actually executes: an all-true mask takes the
            # unfiltered fast path on every index; a sharded composite does
            # not plan centrally (it pushes per-shard mask slices down);
            # everything else runs the planner's decision.
            if mask.all():
                strategy = "unfiltered"
            elif isinstance(index, ShardedIndex):
                strategy = "shard-pushdown"
            else:
                strategy = DEFAULT_PLANNER.plan(index, mask, k).strategy
            batch = service.search_batch(
                queries, QueryRequest(k=k, probes=probes, filter=predicate)
            )
            points.append(
                FilterSweepPoint(
                    label=str(label),
                    selectivity=n_allowed / max(dataset.n_points, 1),
                    strategy=strategy,
                    recall=filtered_recall(batch.ids, exact_ids, k),
                    queries_per_second=batch.queries_per_second,
                    n_allowed=n_allowed,
                )
            )
    finally:
        if attached_for_sweep:
            index.set_attributes(None)
    return points


def throughput_accuracy_curve(
    searcher,
    dataset: AnnDataset,
    *,
    k: int = 10,
    probes: Optional[Sequence[int]] = None,
    efs: Optional[Sequence[int]] = None,
    method: Optional[str] = None,
    index_params: Optional[dict] = None,
) -> SweepCurve:
    """Figure-7 style sweep: accuracy versus queries/second.

    ``searcher`` is a built index/pipeline, a registry name, or a
    :class:`~repro.service.SearchService`.  For partition/ScaNN pipelines
    pass ``probes``; for HNSW pass ``efs``.  Either way the values feed
    the generic ``QueryRequest.probes`` knob, which the service maps onto
    the back-end's own parameter, and throughput is whatever the
    instrumented serving path measures.
    """
    name = searcher if isinstance(searcher, str) else None
    service = resolve_service(searcher, dataset.base, index_params)
    searcher = service.index
    curve = SweepCurve(method=method or name or type(searcher).__name__)
    queries = dataset.queries
    ground_truth = dataset.ground_truth_for(k)
    if efs is not None:
        settings = [int(v) for v in efs]
    else:
        if probes is None:
            probes = probe_schedule(int(getattr(searcher, "n_bins", 16)))
        settings = [int(v) for v in probes]
    for value in settings:
        batch = service.search_batch(queries, QueryRequest(k=k, probes=value))
        accuracy = knn_accuracy(batch.ids, ground_truth, k)
        curve.points.append(
            SweepPoint(
                n_probes=value,
                candidate_size=float("nan"),
                accuracy=accuracy,
                queries_per_second=batch.queries_per_second,
            )
        )
    return curve
