"""Cross-tenant micro-batching with deficit-round-robin fairness.

Tenants sharing a machine submit batches to one :class:`FairScheduler`
instead of calling their gateways directly.  The scheduler drains the
per-tenant queues in *deficit round robin* over **query rows** (the unit
actual work is proportional to, unlike request counts): each round every
backlogged tenant's deficit grows by ``quantum`` rows and it dequeues
batches while the head fits its deficit.  A tenant that floods its queue
therefore stretches only its own waiting time — neighbours keep draining
``quantum`` rows per round no matter how deep the flooder's backlog is.

Within a round, picks are grouped by ``(delegate service, effective
request)`` and each group executes as ONE stacked ``search_batch`` call:
tenants whose effective requests are equal (same namespace, same ``k``
and probes, fingerprint-equal ACL) genuinely coalesce into a single
kernel invocation.  Query rows are computed independently, so the
stacked call is bitwise-identical to running each tenant's slice
serially — the property test in ``tests/test_tenant.py`` pins this.

ACL injection and quota charging happen at submit time (through the
gateway), so an over-quota tenant is refused before it occupies queue
space and a queued batch can never bypass its tenant's ACL.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from time import perf_counter
from typing import Deque, Dict, List, Optional

import numpy as np

from ..obs.trace import current_span_id, current_trace
from ..service.request import BatchResult, QueryRequest
from ..utils.exceptions import QuotaExceededError, ValidationError
from .gateway import TenantGateway


class _Pick:
    __slots__ = (
        "gateway",
        "queries",
        "request",
        "future",
        "trace",
        "parent_id",
        "submitted_at",
    )

    def __init__(self, gateway, queries, request, future) -> None:
        self.gateway = gateway
        self.queries = queries
        self.request = request
        self.future = future
        # Queue time is attributed to the submitter's trace: the span is
        # recorded when the pick executes (on the drain thread), spanning
        # submit -> execution-done under the span active at submit time.
        self.trace = current_trace()
        self.parent_id = current_span_id() if self.trace is not None else None
        self.submitted_at = perf_counter()


class FairScheduler:
    """Deficit-round-robin batcher over per-tenant queues (row units)."""

    def __init__(
        self,
        *,
        quantum_rows: int = 64,
        max_pending_rows: int = 4096,
    ) -> None:
        if int(quantum_rows) < 1:
            raise ValidationError("FairScheduler quantum_rows must be >= 1")
        if int(max_pending_rows) < 1:
            raise ValidationError("FairScheduler max_pending_rows must be >= 1")
        self.quantum_rows = int(quantum_rows)
        self.max_pending_rows = int(max_pending_rows)
        self._queues: "OrderedDict[str, Deque[_Pick]]" = OrderedDict()
        self._pending_rows: Dict[str, int] = {}
        self._deficits: Dict[str, float] = {}
        self.served_rows: Dict[str, int] = {}
        self.rounds = 0
        self.coalesced_calls = 0
        self.executed_calls = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        gateway: TenantGateway,
        queries: np.ndarray,
        request: Optional[QueryRequest] = None,
        **overrides,
    ) -> "Future[BatchResult]":
        """Enqueue one tenant batch; the future resolves to a BatchResult.

        ACL injection and the query-rate quota are applied *now*: a
        denied tenant gets the typed quota error immediately instead of
        holding queue space, and the queued request already carries its
        mandatory predicate.  A per-tenant bound on queued rows turns a
        runaway submitter into its own 429 (``resource="queue"``).
        """
        request = gateway.effective_request(request, **overrides)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        rows = int(queries.shape[0])
        if rows == 0:
            raise ValidationError("FairScheduler.submit needs at least one query row")
        with self._lock:
            pending = self._pending_rows.get(gateway.name, 0)
            if pending + rows > self.max_pending_rows:
                raise QuotaExceededError(
                    f"tenant {gateway.name!r} has {pending} rows queued; "
                    f"{rows} more would exceed the {self.max_pending_rows}-row "
                    "pending bound",
                    resource="queue",
                    retry_after_seconds=None,
                )
        gateway._charge(gateway.query_bucket, rows, "qps")
        future: "Future[BatchResult]" = Future()
        pick = _Pick(gateway, queries, request, future)
        with self._lock:
            queue = self._queues.get(gateway.name)
            if queue is None:
                queue = self._queues[gateway.name] = deque()
            queue.append(pick)
            self._pending_rows[gateway.name] = (
                self._pending_rows.get(gateway.name, 0) + rows
            )
        return future

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._pending_rows.get(tenant, 0)
            return sum(self._pending_rows.values())

    # ------------------------------------------------------------------ #
    # one DRR round
    # ------------------------------------------------------------------ #
    def _collect_round(self) -> List[_Pick]:
        """Dequeue one round's fair share (callers must NOT hold the lock)."""
        picks: List[_Pick] = []
        with self._lock:
            for name in list(self._queues):
                queue = self._queues[name]
                if not queue:
                    # Empty queue: classic DRR resets the deficit so idle
                    # tenants cannot bank credit while away.
                    self._deficits.pop(name, None)
                    del self._queues[name]
                    continue
                deficit = self._deficits.get(name, 0.0) + self.quantum_rows
                while queue:
                    rows = int(queue[0].queries.shape[0])
                    if rows > deficit:
                        break
                    pick = queue.popleft()
                    deficit -= rows
                    self._pending_rows[name] = max(
                        0, self._pending_rows.get(name, 0) - rows
                    )
                    picks.append(pick)
                self._deficits[name] = deficit if queue else 0.0
        return picks

    def run_round(self) -> int:
        """Execute one fair round; returns the number of rows served."""
        picks = self._collect_round()
        if not picks:
            return 0
        with self._lock:
            self.rounds += 1

        # Group by (delegate identity, effective request): equal requests
        # against the same service stack into one kernel call.
        groups: "OrderedDict[tuple, List[_Pick]]" = OrderedDict()
        for pick in picks:
            key = (id(pick.gateway.service), pick.request)
            groups.setdefault(key, []).append(pick)

        served = 0
        for members in groups.values():
            served += self._execute_group(members)
        return served

    def _execute_group(self, members: List[_Pick]) -> int:
        service = members[0].gateway.service
        request = members[0].request
        stacked = (
            members[0].queries
            if len(members) == 1
            else np.vstack([pick.queries for pick in members])
        )
        rows = int(stacked.shape[0])
        start = perf_counter()
        try:
            result = service.search_batch(stacked, request)
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            done = perf_counter()
            for pick in members:
                self._record_span(pick, done, len(members), error=repr(exc))
                pick.future.set_exception(exc)
            return rows
        elapsed = perf_counter() - start
        done = start + elapsed
        with self._lock:
            self.executed_calls += 1
            if len(members) > 1:
                self.coalesced_calls += 1
        offset = 0
        for pick in members:
            n = int(pick.queries.shape[0])
            slice_result = BatchResult(
                ids=result.ids[offset : offset + n].copy(),
                distances=result.distances[offset : offset + n].copy(),
                request=pick.request,
                elapsed_seconds=elapsed,
                cache_hits=result.cache_hits if len(members) == 1 else 0,
            )
            offset += n
            self._record_span(pick, done, len(members))
            pick.gateway._observe_query(n, elapsed, hits=slice_result.cache_hits)
            with self._lock:
                self.served_rows[pick.gateway.name] = (
                    self.served_rows.get(pick.gateway.name, 0) + n
                )
            pick.future.set_result(slice_result)
        return rows

    @staticmethod
    def _record_span(pick: _Pick, done: float, group_size: int, **attributes) -> None:
        """Attribute queue + execution time to the submitter's trace."""
        if pick.trace is None:
            return
        pick.trace.record(
            "scheduler.batch",
            pick.submitted_at,
            done,
            parent_id=pick.parent_id,
            tenant=pick.gateway.name,
            rows=int(pick.queries.shape[0]),
            coalesced=group_size > 1,
            **attributes,
        )

    def flush(self) -> int:
        """Run rounds until every queue is empty; returns rows served.

        A round can serve zero rows while work is still queued (a batch
        bigger than the accumulated deficit waits, banking credit), so
        the loop keys on pending rows, not on the last round's yield.
        """
        total = 0
        while self.pending_rows() > 0:
            total += self.run_round()
        return total

    def stats(self) -> dict:
        with self._lock:
            return {
                "quantum_rows": self.quantum_rows,
                "max_pending_rows": self.max_pending_rows,
                "rounds": self.rounds,
                "executed_calls": self.executed_calls,
                "coalesced_calls": self.coalesced_calls,
                "pending_rows": dict(self._pending_rows),
                "served_rows": dict(self.served_rows),
            }
