"""Serving-layer observability: counters, histograms, Prometheus text.

The HTTP layer keeps its own counters — requests by endpoint × status,
deadline expiries by stage, ``/query`` executions by path (event loop
or thread pool), queue-wait and request-latency histograms —
and renders them with the admission controller's sheds and queue gauges
and the wrapped :meth:`SearchService.stats` counters as one Prometheus
text-format (version 0.0.4) page, so the numbers operators scrape are
the same numbers the in-process benchmarks report.

The histogram and exposition-format primitives live in
:mod:`repro.obs.metrics` (the shared telemetry layer); this module keeps
the HTTP-specific :class:`ServerMetrics` and the renderers that fold
service, replication, tenant, and per-stage tracing series into the
``/metrics`` page.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    emit_counter as _counter,
    emit_gauge as _gauge,
    emit_histogram as _histogram,
    emit_labeled_histogram as _labeled_histogram,
)

#: where a ``/query`` job can execute
QUERY_PATHS = ("executor", "inline")


class ServerMetrics:
    """Counters behind ``GET /metrics`` (thread-safe: the executor and the
    event loop both record into it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total: Dict[Tuple[str, int], int] = {}
        self.draining_refused_total = 0
        self.deadline_expired_total: Dict[str, int] = {}
        # Where each /query ran: on the event loop or the thread pool.
        self.query_executions_total: Dict[str, int] = dict.fromkeys(QUERY_PATHS, 0)
        self.request_seconds = Histogram(LATENCY_BUCKETS)
        self.queue_seconds = Histogram(LATENCY_BUCKETS)
        self.queue_depth_observed = Histogram(DEPTH_BUCKETS)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def observe_request(
        self,
        endpoint: str,
        status: int,
        *,
        seconds: Optional[float] = None,
    ) -> None:
        with self._lock:
            key = (str(endpoint), int(status))
            self.requests_total[key] = self.requests_total.get(key, 0) + 1
            if seconds is not None:
                self.request_seconds.observe(seconds)

    def observe_admission(self, queue_seconds: float, queue_depth: int) -> None:
        """One admitted request: how long it queued, how deep the queue was."""
        with self._lock:
            self.queue_seconds.observe(queue_seconds)
            self.queue_depth_observed.observe(queue_depth)

    def observe_query_path(self, path: str) -> None:
        """One ``/query`` executed ``"inline"`` or on the ``"executor"``."""
        with self._lock:
            self.query_executions_total[path] += 1

    def observe_draining_refusal(self) -> None:
        with self._lock:
            self.draining_refused_total += 1

    def observe_deadline(self, stage: str) -> None:
        with self._lock:
            self.deadline_expired_total[stage] = (
                self.deadline_expired_total.get(stage, 0) + 1
            )

    def errors_by_endpoint(self) -> Dict[str, int]:
        """Error responses (status >= 400) summed per endpoint.

        Derived from ``requests_total`` under the same lock, so the two
        views can never disagree.  Callers must hold ``_lock``.
        """
        errors: Dict[str, int] = {}
        for (endpoint, status), count in self.requests_total.items():
            if int(status) >= 400:
                errors[endpoint] = errors.get(endpoint, 0) + count
        return errors

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able counters (the ``/stats`` view of the same numbers)."""
        with self._lock:
            return {
                "requests_total": {
                    f"{endpoint}:{status}": count
                    for (endpoint, status), count in sorted(self.requests_total.items())
                },
                "errors_total": dict(sorted(self.errors_by_endpoint().items())),
                "draining_refused_total": self.draining_refused_total,
                "deadline_expired_total": dict(self.deadline_expired_total),
                "query_executions_total": dict(self.query_executions_total),
                "requests_observed": self.request_seconds.total,
                "request_seconds_sum": self.request_seconds.sum,
                "p50_request_seconds": self.request_seconds.percentile(50),
                "p95_request_seconds": self.request_seconds.percentile(95),
                "p99_request_seconds": self.request_seconds.percentile(99),
            }

    # ------------------------------------------------------------------ #
    # Prometheus rendering
    # ------------------------------------------------------------------ #
    def render(
        self,
        *,
        shed_total: int = 0,
        queue_depth: int = 0,
        queue_waiting: int = 0,
        draining: bool = False,
        service_stats: Optional[Mapping[str, Mapping[str, Any]]] = None,
        replication: Optional[Mapping[str, Any]] = None,
        tenant_stats: Optional[Mapping[str, Mapping[str, Any]]] = None,
        stage_seconds: Optional[Mapping[str, Histogram]] = None,
    ) -> str:
        """The full ``/metrics`` page.

        ``shed_total`` and the queue gauges come from the admission
        controller.  ``service_stats`` maps service name →
        ``SearchService.stats()``; the serving counters the stack already
        keeps (queries, cache hits, latency percentiles, mutation-pressure
        gauges, WAL counters) are re-exported under ``repro_service_*`` so
        one scrape covers the HTTP layer and the search stack beneath it.
        ``replication`` is a ``Primary.stats()`` / ``Follower.stats()``
        mapping (keyed by ``role``), rendered as ``repro_replica_*``
        gauges.  ``tenant_stats`` maps tenant name →
        ``TenantGateway.stats()``, rendered as ``repro_tenant_*`` series
        carrying a ``tenant`` label (values escaped — tenant names are
        caller-supplied).  ``stage_seconds`` maps traced stage name →
        latency histogram (from :meth:`repro.obs.Tracer.stage_histograms`),
        rendered as one ``repro_stage_seconds{stage=...}`` family so
        dashboards get per-stage attribution without reading traces.
        """
        lines: List[str] = []
        with self._lock:
            _counter(
                lines,
                "repro_http_requests_total",
                "HTTP requests answered, by endpoint and status.",
                [
                    ({"endpoint": endpoint, "status": status}, count)
                    for (endpoint, status), count in sorted(self.requests_total.items())
                ],
            )
            _counter(
                lines,
                "repro_http_errors_total",
                "HTTP error responses (status >= 400), by endpoint.",
                [
                    ({"endpoint": endpoint}, count)
                    for endpoint, count in sorted(self.errors_by_endpoint().items())
                ],
            )
            _counter(
                lines,
                "repro_http_shed_total",
                "Requests shed with 429 by admission control.",
                [({}, shed_total)],
            )
            _counter(
                lines,
                "repro_http_draining_refused_total",
                "Requests refused with 503 while draining.",
                [({}, self.draining_refused_total)],
            )
            _counter(
                lines,
                "repro_http_deadline_expired_total",
                "Requests that ran out of deadline, by stage.",
                [
                    ({"stage": stage}, count)
                    for stage, count in sorted(self.deadline_expired_total.items())
                ],
            )
            _counter(
                lines,
                "repro_http_query_executions_total",
                "/query executions, by path (inline on the event loop or on the executor).",
                [
                    ({"path": path}, count)
                    for path, count in sorted(self.query_executions_total.items())
                ],
            )
            _gauge(
                lines,
                "repro_http_queue_depth",
                "Requests currently admitted (waiting + executing).",
                [({}, queue_depth)],
            )
            _gauge(
                lines,
                "repro_http_queue_waiting",
                "Requests currently waiting for an execution slot.",
                [({}, queue_waiting)],
            )
            _gauge(
                lines,
                "repro_http_draining",
                "1 while the server is drain-stopping.",
                [({}, int(bool(draining)))],
            )
            _histogram(lines, "repro_http_request_seconds", self.request_seconds)
            _histogram(lines, "repro_http_queue_wait_seconds", self.queue_seconds)
            _histogram(
                lines, "repro_http_queue_depth_at_admission", self.queue_depth_observed
            )
        if service_stats:
            _render_stats(
                lines,
                service_stats,
                label="service",
                prefix="repro_service_",
                fields=_SERVICE_FIELDS,
                nested_prefix="repro_",
                nested_help="{section} gauge {field} from SearchService.stats().",
                nested=_SERVICE_NESTED,
            )
        if replication:
            _render_replication(lines, replication)
        if tenant_stats:
            _render_stats(
                lines,
                tenant_stats,
                label="tenant",
                prefix="repro_tenant_",
                fields=_TENANT_FIELDS,
                nested_prefix="repro_tenant_",
                nested_help="Tenant {section} gauge {field} from TenantGateway.stats().",
                nested=_TENANT_NESTED,
            )
        if stage_seconds:
            _labeled_histogram(
                lines,
                "repro_stage_seconds",
                "Traced per-stage latency, by stage (from sampled traces).",
                stage_seconds,
                "stage",
            )
        return "\n".join(lines) + "\n"


#: ``SearchService.stats()`` scalar fields exported per service:
#: (stats field, metric suffix, type, help) — counters carry the
#: ``_total`` suffix the exposition format expects.
_SERVICE_FIELDS = (
    ("queries", "queries_total", "counter", "Queries served."),
    ("batches", "batches_total", "counter", "Batches served."),
    ("cache_hits", "cache_hits_total", "counter", "Result-cache hits."),
    (
        "query_seconds",
        "query_seconds_total",
        "counter",
        "Total time spent answering queries.",
    ),
    ("queries_per_second", "queries_per_second", "gauge", "Recent serving throughput."),
    ("cache_hit_ratio", "cache_hit_ratio", "gauge", "Cache hits over queries."),
    ("mean_latency_ms", "mean_latency_ms", "gauge", "Mean per-query latency (ms)."),
    ("p50_latency_ms", "p50_latency_ms", "gauge", "Median per-query latency (ms)."),
    (
        "p95_latency_ms",
        "p95_latency_ms",
        "gauge",
        "95th percentile per-query latency (ms).",
    ),
)

#: nested gauges: (stats section, field)
_SERVICE_NESTED = (
    ("mutation", "n_pending"),
    ("mutation", "n_tombstones"),
    ("mutation", "mutation_pressure"),
    ("collection", "generation"),
    ("collection", "last_seq"),
    ("collection", "wal_ops"),
    ("collection", "wal_bytes"),
)


#: replication gauges exported when the server hosts a Primary/Follower:
#: (stats field, metric suffix, help text)
_REPLICA_FIELDS = (
    ("lag_seq", "lag_seq", "Sequence distance behind the primary (followers)."),
    (
        "last_applied_seq",
        "last_applied_seq",
        "Newest primary seq durably applied (followers); last_seq on primaries.",
    ),
    ("last_seq", "last_seq", "Newest acknowledged sequence number (primaries)."),
    ("records_shipped", "records_shipped_total", "WAL records shipped to followers."),
    ("records_applied", "records_applied_total", "Replicated records applied."),
    ("bootstraps", "bootstraps_total", "Snapshot bootstrap bundles served."),
    ("resyncs", "resyncs_total", "Snapshot re-bootstraps after falling behind."),
)


def _render_replication(lines: List[str], replication: Mapping[str, Any]) -> None:
    role = str(replication.get("role", "unknown"))
    name = str(replication.get("name", ""))
    labels = {"name": name, "role": role} if name else {"role": role}
    _gauge(
        lines,
        "repro_replica_role",
        "Replication role of this server (1 for the labeled role).",
        [(labels, 1)],
    )
    for field_name, suffix, help_text in _REPLICA_FIELDS:
        value = replication.get(field_name)
        if field_name == "last_applied_seq" and value is None:
            # A primary's own log is, definitionally, fully applied.
            value = replication.get("last_seq")
        if isinstance(value, (int, float)):
            emit = _counter if suffix.endswith("_total") else _gauge
            emit(lines, f"repro_replica_{suffix}", help_text, [(labels, value)])


#: ``TenantGateway.stats()`` scalar fields exported per tenant:
#: (stats field, metric suffix, type, help)
_TENANT_FIELDS = (
    ("queries", "queries_total", "counter", "Search calls served for this tenant."),
    (
        "query_rows",
        "query_rows_total",
        "counter",
        "Query rows served for this tenant.",
    ),
    (
        "cache_hits",
        "cache_hits_total",
        "counter",
        "Result-cache hits for this tenant.",
    ),
    (
        "write_calls",
        "write_calls_total",
        "counter",
        "Mutation calls served for this tenant.",
    ),
    (
        "quota_denials",
        "quota_denials_total",
        "counter",
        "Requests refused over a tenant quota.",
    ),
    (
        "latency_seconds_sum",
        "latency_seconds_total",
        "counter",
        "Total serving time for this tenant.",
    ),
    (
        "vectors_used",
        "vectors_used",
        "gauge",
        "Vectors counted against the tenant's cap.",
    ),
)

#: nested tenant gauges: (stats section, field)
_TENANT_NESTED = (
    ("qps_bucket", "tokens"),
    ("qps_bucket", "denied"),
    ("write_bucket", "tokens"),
    ("write_bucket", "denied"),
    ("cache", "entries"),
    ("cache", "cache_bytes"),
    ("cache", "hits"),
    ("cache", "evictions"),
)


def _render_stats(
    lines: List[str],
    stats_by_name: Mapping[str, Mapping[str, Any]],
    *,
    label: str,
    prefix: str,
    fields,
    nested_prefix: str,
    nested_help: str,
    nested,
) -> None:
    """Emit one ``{label="<name>"}`` family per table row that anyone reports.

    ``fields`` rows are ``(stats field, metric suffix, type, help)`` read
    from the top level of each stats mapping; ``nested`` rows are
    ``(section, field)`` gauges read one level down.
    """
    owners = sorted(stats_by_name.items())

    def samples(read):
        return [
            ({label: owner}, value)
            for owner, stats in owners
            if isinstance(value := read(stats), (int, float))
        ]

    for field_name, suffix, kind, help_text in fields:
        found = samples(lambda stats: stats.get(field_name))
        if found:
            emit = _counter if kind == "counter" else _gauge
            emit(lines, prefix + suffix, help_text, found)
    for section, field_name in nested:
        found = samples(lambda stats: stats.get(section, {}).get(field_name))
        if found:
            _gauge(
                lines,
                f"{nested_prefix}{section}_{field_name}",
                nested_help.format(section=section, field=field_name),
                found,
            )
