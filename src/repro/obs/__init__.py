"""Unified observability: tracing, per-stage attribution, shared metrics.

The single home for the telemetry every layer shares:

* :mod:`repro.obs.trace` — end-to-end query tracing.  A
  :class:`TraceContext` propagates via :mod:`contextvars` in process and
  a ``traceparent``-style header over HTTP; layers open spans with the
  free-when-off :func:`span` helper; a :class:`Tracer` applies head
  sampling plus slow/error tail rules and feeds per-stage latency
  histograms (``repro_stage_seconds{stage=...}``).
* :mod:`repro.obs.store` — where finished traces land: a bounded
  :class:`TraceStore` ring buffer (served from ``/debug/traces``,
  exportable as JSONL) and a :class:`SlowQueryLog` keeping the worst-N
  span trees.
* :mod:`repro.obs.metrics` — the histogram/Prometheus primitives
  (``repro.net.metrics`` imports the ones the server's ``/metrics`` page
  needs, the emitters under private aliases, and exports none).
"""

from .metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    emit_counter,
    emit_gauge,
    emit_histogram,
    emit_labeled_histogram,
    escape_label_value,
    format_labels,
    format_value,
)
from .store import SlowQueryLog, TraceStore
from .trace import (
    NOOP_SPAN,
    TRACEPARENT_HEADER,
    ActiveSpan,
    Span,
    TraceContext,
    Tracer,
    TracingConfig,
    activate,
    current_span_id,
    current_trace,
    current_traceparent,
    deactivate,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    span,
    validate_span_tree,
)

__all__ = [
    "DEPTH_BUCKETS",
    "LATENCY_BUCKETS",
    "Histogram",
    "emit_counter",
    "emit_gauge",
    "emit_histogram",
    "emit_labeled_histogram",
    "escape_label_value",
    "format_labels",
    "format_value",
    "SlowQueryLog",
    "TraceStore",
    "NOOP_SPAN",
    "TRACEPARENT_HEADER",
    "ActiveSpan",
    "Span",
    "TraceContext",
    "Tracer",
    "TracingConfig",
    "activate",
    "current_span_id",
    "current_trace",
    "current_traceparent",
    "deactivate",
    "format_traceparent",
    "new_trace_id",
    "parse_traceparent",
    "span",
    "validate_span_tree",
]
