"""End-to-end query tracing: spans, contextvar propagation, sampling.

One query through the full stack (HTTP parse → admission queue → tenant
ACL/quota → scheduler batch → service cache → shard scan → quant ADC
scan → exact re-rank → merge → serialize) becomes one tree of timed
spans.  The design goals, in order:

1. **Free when off.**  ``span(...)`` consults a single ContextVar; with
   no active trace it returns a shared no-op singleton — no allocation,
   no clock read.  Layers instrument unconditionally and pay nothing
   unless a trace is live.
2. **Propagates everywhere the query goes.**  In process the context
   rides :mod:`contextvars` (the HTTP server copies the context into
   its executor task, the one thread hop a request makes).  Across
   HTTP it rides a W3C ``traceparent``-style header: clients inject,
   servers extract, replication polls forward.
3. **The interesting traces survive.**  Head sampling decides whether a
   request records spans at all; tail rules (slow or errored requests)
   still leave a root-only record even when head sampling said no, and
   a :class:`~repro.obs.store.SlowQueryLog` keeps the worst-N with full
   trees after the ring buffer has cycled.

Spans time with ``time.perf_counter()`` and export as offsets from the
root so a JSON trace is self-contained and machine-diffable.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .metrics import LATENCY_BUCKETS, Histogram
from .store import SlowQueryLog, TraceStore

#: header carrying trace identity across HTTP hops (W3C trace-context
#: style: ``00-<32 hex trace_id>-<16 hex parent span_id>-<2 hex flags>``)
TRACEPARENT_HEADER = "traceparent"

_FLAG_SAMPLED = 0x01

#: span-id source — a private RNG so test code seeding ``random`` doesn't
#: collapse ids, and cheaper than uuid4 per span
_rng = random.Random()

#: the active (trace, parent span id) for this execution context
_CURRENT: ContextVar[Optional[Tuple["TraceContext", str]]] = ContextVar(
    "repro_trace", default=None
)


def _new_span_id() -> str:
    return f"{_rng.getrandbits(64):016x}"


def new_trace_id() -> str:
    return uuid.uuid4().hex


def format_traceparent(trace_id: str, span_id: str, sampled: bool = True) -> str:
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str, bool]]:
    """``(trace_id, parent_span_id, sampled)`` or None if malformed."""
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    if len(flags) != 2:
        return None
    try:
        int(version, 16)
        int(trace_id, 16)
        int(span_id, 16)
        flag_bits = int(flags, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id, bool(flag_bits & _FLAG_SAMPLED)


class Span:
    """One timed operation.  ``start``/``end`` are ``perf_counter`` reads."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attributes",
                 "status")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.status = "ok"

    @property
    def duration_seconds(self) -> float:
        if self.end is None:
            return 0.0
        return max(self.end - self.start, 0.0)

    def as_dict(self, epoch: float) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_offset_seconds": self.start - epoch,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload


class TraceContext:
    """One in-flight trace: identity, the root span, finished child spans.

    Thread-safe on the append path — the request's executor thread
    finishes spans while the event loop owns the root.  ``max_spans``
    bounds memory per trace; overflow is counted, not silently swallowed.
    """

    __slots__ = ("trace_id", "root", "started_at", "spans", "spans_dropped",
                 "max_spans", "origin", "status", "_lock")

    def __init__(
        self,
        trace_id: str,
        name: str,
        start: float,
        *,
        max_spans: int = 512,
        origin: str = "head",
        parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.root = Span(name, _new_span_id(), parent_id, start)
        self.started_at = time.time()
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self.max_spans = int(max_spans)
        self.origin = origin
        self.status = "ok"
        self._lock = threading.Lock()

    def add_span(self, span: Span) -> None:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.spans_dropped += 1
                return
            self.spans.append(span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        /,
        *,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Record a span with explicit ``perf_counter`` bounds.

        For work timed away from the context that owns it — e.g. the
        fair scheduler charges a request at submit time but executes it
        later on another thread — where a ``with span(...)`` block can't
        bracket the interval.
        """
        span = Span(name, _new_span_id(), parent_id or self.root.span_id, start)
        span.end = end
        if attributes:
            span.attributes.update(attributes)
        self.add_span(span)
        return span

    def as_dict(self) -> Dict[str, Any]:
        epoch = self.root.start
        with self._lock:
            children = sorted(self.spans, key=lambda s: s.start)
            dropped = self.spans_dropped
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "origin": self.origin,
            "status": self.status,
            "started_at": self.started_at,
            "duration_seconds": self.root.duration_seconds,
            "spans_dropped": dropped,
            "spans": [self.root.as_dict(epoch)]
            + [span.as_dict(epoch) for span in children],
        }


# ---------------------------------------------------------------------- #
# context propagation
# ---------------------------------------------------------------------- #
def activate(trace: TraceContext, span_id: Optional[str] = None):
    """Make ``trace`` current; returns a token for :func:`deactivate`."""
    return _CURRENT.set((trace, span_id or trace.root.span_id))


def deactivate(token) -> None:
    _CURRENT.reset(token)


def current_trace() -> Optional[TraceContext]:
    state = _CURRENT.get()
    return None if state is None else state[0]


def current_span_id() -> Optional[str]:
    state = _CURRENT.get()
    return None if state is None else state[1]


def current_traceparent() -> Optional[str]:
    """The header value to forward on an outbound HTTP call, if tracing."""
    state = _CURRENT.get()
    if state is None:
        return None
    trace, span_id = state
    return format_traceparent(trace.trace_id, span_id, True)


class _NoopSpan:
    """Shared do-nothing span: the cost of tracing when sampling said no."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class ActiveSpan:
    """Context manager that times a span and re-parents nested spans."""

    __slots__ = ("_trace", "_span", "_token")

    def __init__(self, trace: TraceContext, span: Span) -> None:
        self._trace = trace
        self._span = span
        self._token = None

    def __enter__(self) -> "ActiveSpan":
        self._token = _CURRENT.set((self._trace, self._span.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.end = time.perf_counter()
        if exc_type is not None:
            span.status = "error"
            span.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        _CURRENT.reset(self._token)
        self._trace.add_span(span)
        return False

    def set(self, **attributes: Any) -> "ActiveSpan":
        self._span.attributes.update(attributes)
        return self


def span(name: str, /, **attributes: Any):
    """Open a child span of whatever is current, or a no-op if nothing is.

    Usage::

        with span("quant.scan", budget=budget) as s:
            ...
            s.set(rows=rows)
    """
    state = _CURRENT.get()
    if state is None:
        return NOOP_SPAN
    trace, parent_id = state
    child = Span(name, _new_span_id(), parent_id, time.perf_counter())
    if attributes:
        child.attributes.update(attributes)
    return ActiveSpan(trace, child)


# ---------------------------------------------------------------------- #
# the tracer: sampling policy + finished-trace sinks
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TracingConfig:
    """Sampling and retention policy for one :class:`Tracer`."""

    sample_rate: float = 1.0          # head-sampling probability in [0, 1]
    slow_threshold_seconds: float = 0.25  # tail rule: always keep slower
    capacity: int = 256               # TraceStore ring size
    slow_log_size: int = 32           # SlowQueryLog worst-N
    max_spans_per_trace: int = 512

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.slow_threshold_seconds <= 0:
            raise ValueError(
                "slow_threshold_seconds must be positive, got "
                f"{self.slow_threshold_seconds}"
            )
        if self.max_spans_per_trace < 1:
            raise ValueError(
                f"max_spans_per_trace must be >= 1, got {self.max_spans_per_trace}"
            )


class Tracer:
    """Begins, finishes, and retains traces; owns per-stage histograms.

    One tracer serves a whole process (the server shares its tracer with
    every hosted service/gateway/replica so their ``stats()`` can report
    sampling and loss).  ``begin`` applies head sampling — a propagated
    ``traceparent`` wins over the local coin flip, so a sampled client
    trace stays sampled across hops.  ``finish`` exports the span tree
    to the ring buffer and slow log and feeds every span's duration into
    ``repro_stage_seconds{stage=...}`` histograms.
    """

    def __init__(
        self,
        config: Optional[TracingConfig] = None,
        *,
        store: Optional[TraceStore] = None,
    ) -> None:
        self.config = config or TracingConfig()
        self.store = store or TraceStore(self.config.capacity)
        self.slow_log = SlowQueryLog(self.config.slow_log_size)
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._stage_seconds: Dict[str, Histogram] = {}
        self.traces_started = 0
        self.traces_finished = 0
        self.tail_sampled = 0
        self.spans_recorded = 0
        self.spans_dropped = 0

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def begin(
        self,
        name: str,
        *,
        traceparent: Optional[str] = None,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Optional[TraceContext]:
        """Start a trace, or return None if sampling declined it."""
        parsed = parse_traceparent(traceparent)
        if parsed is not None:
            trace_id, parent_id, sampled = parsed
            if not sampled:
                return None
            origin = "propagated"
        else:
            rate = self.config.sample_rate
            if rate <= 0.0 or (rate < 1.0 and self._rng.random() >= rate):
                return None
            trace_id, parent_id, origin = new_trace_id(), None, "head"
        trace = TraceContext(
            trace_id,
            name,
            time.perf_counter() if start is None else start,
            max_spans=self.config.max_spans_per_trace,
            origin=origin,
            parent_id=parent_id,
        )
        if attributes:
            trace.root.attributes.update(attributes)
        with self._lock:
            self.traces_started += 1
        return trace

    def finish(
        self,
        trace: TraceContext,
        *,
        status: Any = "ok",
        end: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Close the root span, export the trace, feed stage histograms."""
        root = trace.root
        if root.end is None:
            root.end = time.perf_counter() if end is None else end
        trace.status = str(status)
        payload = trace.as_dict()
        with self._lock:
            self.traces_finished += 1
            self.spans_recorded += len(payload["spans"])
            self.spans_dropped += trace.spans_dropped
            for span_payload in payload["spans"]:
                stage = span_payload["name"]
                histogram = self._stage_seconds.get(stage)
                if histogram is None:
                    histogram = self._stage_seconds[stage] = Histogram(LATENCY_BUCKETS)
                histogram.observe(span_payload["duration_seconds"])
        self.store.put(payload)
        self.slow_log.offer(payload)
        return payload

    def should_tail_sample(self, duration_seconds: float, status: Any = "ok") -> bool:
        """Tail rule: keep slow or errored requests head sampling skipped."""
        if duration_seconds >= self.config.slow_threshold_seconds:
            return True
        try:
            return int(status) >= 500
        except (TypeError, ValueError):
            return str(status) not in ("ok", "")

    def tail_record(
        self,
        name: str,
        duration_seconds: float,
        *,
        status: Any = "ok",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record a root-only trace for an unsampled slow/error request."""
        end = time.perf_counter()
        trace = TraceContext(
            new_trace_id(),
            name,
            end - max(float(duration_seconds), 0.0),
            max_spans=self.config.max_spans_per_trace,
            origin="tail",
        )
        if attributes:
            trace.root.attributes.update(attributes)
        trace.root.end = end
        trace.status = str(status)
        payload = trace.as_dict()
        with self._lock:
            self.tail_sampled += 1
            self.spans_recorded += 1
        self.store.put(payload)
        self.slow_log.offer(payload)
        return payload

    # -------------------------------------------------------------- #
    # reporting
    # -------------------------------------------------------------- #
    def stage_histograms(self) -> Dict[str, Histogram]:
        """Stage name → latency histogram (live objects; render promptly)."""
        with self._lock:
            return dict(self._stage_seconds)

    def stats(self) -> Dict[str, Any]:
        store_stats = self.store.stats()
        with self._lock:
            return {
                "sample_rate": self.config.sample_rate,
                "slow_threshold_seconds": self.config.slow_threshold_seconds,
                "traces_started": self.traces_started,
                "traces_finished": self.traces_finished,
                "tail_sampled": self.tail_sampled,
                "spans_recorded": self.spans_recorded,
                "spans_dropped": self.spans_dropped,
                "traces_dropped": store_stats["dropped"],
                "store": store_stats,
                "slow_log_size": len(self.slow_log),
            }


# ---------------------------------------------------------------------- #
# structural validation (used by tests and by /debug consumers)
# ---------------------------------------------------------------------- #
def validate_span_tree(payload: Dict[str, Any], slack: float = 1e-6) -> List[str]:
    """Structural problems in a finished trace payload ([] when clean).

    Checks exactly one root, every child's parent present, and every
    child's interval inside its parent's (within ``slack`` seconds —
    clock reads bracketing a ``with`` block are not atomic).
    """
    problems: List[str] = []
    spans = payload.get("spans", [])
    if not spans:
        return ["trace has no spans"]
    by_id = {s["span_id"]: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    root = spans[0]
    roots = [
        s for s in spans
        if s.get("parent_id") is None or s["parent_id"] not in by_id
    ]
    if len(roots) != 1:
        problems.append(
            f"expected exactly one root span, found {len(roots)}: "
            f"{[s['name'] for s in roots]}"
        )
    elif roots[0] is not root:
        problems.append(f"first span {root['name']!r} is not the root")
    for child in spans:
        parent = by_id.get(child.get("parent_id"))
        if parent is None:
            continue
        child_start = child["start_offset_seconds"]
        child_end = child_start + child["duration_seconds"]
        parent_start = parent["start_offset_seconds"]
        parent_end = parent_start + parent["duration_seconds"]
        if child_start < parent_start - slack or child_end > parent_end + slack:
            problems.append(
                f"span {child['name']!r} [{child_start:.6f}, {child_end:.6f}] "
                f"escapes parent {parent['name']!r} "
                f"[{parent_start:.6f}, {parent_end:.6f}]"
            )
    return problems
