"""Shared telemetry primitives: histograms and Prometheus text.

This module is the single home for the metric machinery every layer
shares (``repro.net.metrics`` imports what the server's ``/metrics``
page needs, the emitters under private aliases): fixed-bucket
cumulative histograms with Prometheus ``le`` semantics, the
exposition-format helpers (``format_value`` / ``escape_label_value`` /
``format_labels``) and the family emitters used to build ``/metrics``
pages.  The test suite lints every page these build against the
text-format contract (``tests/prometheus_lint.py``).

Everything is plain stdlib + dict arithmetic; no client library.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Tuple

#: log-spaced latency buckets (seconds): 1ms .. 30s
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: queue-depth buckets (requests waiting+executing at admission time)
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    def __init__(self, buckets: Iterable[float]) -> None:
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += 1
        self.sum += value
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Approximate percentile from bucket upper bounds (for reports)."""
        if self.total == 0:
            return 0.0
        rank = q / 100.0 * self.total
        seen = 0
        for position, bound in enumerate(self.bounds):
            seen += self.counts[position]
            if seen >= rank:
                return bound
        return float("inf")

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        pairs: List[Tuple[str, int]] = []
        running = 0
        for position, bound in enumerate(self.bounds):
            running += self.counts[position]
            pairs.append((format_value(bound), running))
        pairs.append(("+Inf", self.total))
        return pairs


def format_value(value: Any) -> str:
    """A number in Prometheus exposition syntax (no trailing zeros noise)."""
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def escape_label_value(value: Any) -> str:
    """A label value escaped per the text exposition format (0.0.4).

    Backslash, double quote, and newline are the three characters the
    format requires escaping inside quoted label values.  Tenant names
    are caller-supplied, so without this a hostile name like
    ``evil"} 1\\n`` would split a sample line and corrupt the scrape.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


# ---------------------------------------------------------------------- #
# family emitters (shared by every /metrics renderer)
# ---------------------------------------------------------------------- #
def emit_counter(lines: List[str], name: str, help_text: str, samples) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} counter")
    for labels, value in samples:
        lines.append(f"{name}{format_labels(labels)} {format_value(value)}")


def emit_gauge(lines: List[str], name: str, help_text: str, samples) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} gauge")
    for labels, value in samples:
        lines.append(f"{name}{format_labels(labels)} {format_value(value)}")


def emit_histogram(lines: List[str], name: str, histogram: Histogram) -> None:
    lines.append(f"# HELP {name} Histogram of {name}.")
    lines.append(f"# TYPE {name} histogram")
    for le, count in histogram.cumulative():
        lines.append(f'{name}_bucket{{le="{le}"}} {count}')
    lines.append(f"{name}_sum {format_value(histogram.sum)}")
    lines.append(f"{name}_count {histogram.total}")


def emit_labeled_histogram(
    lines: List[str],
    name: str,
    help_text: str,
    histograms: Mapping[str, Histogram],
    label: str,
) -> None:
    """One histogram family whose series are split by a single label.

    Used for ``repro_stage_seconds{stage=...}``: each traced stage keeps
    its own :class:`Histogram` and they render as one family so a
    Grafana query can attribute latency per stage without traces.
    """
    if not histograms:
        return
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} histogram")
    for key in sorted(histograms):
        histogram = histograms[key]
        escaped = escape_label_value(key)
        for le, count in histogram.cumulative():
            lines.append(f'{name}_bucket{{{label}="{escaped}",le="{le}"}} {count}')
        lines.append(f'{name}_sum{{{label}="{escaped}"}} {format_value(histogram.sum)}')
        lines.append(f'{name}_count{{{label}="{escaped}"}} {histogram.total}')
