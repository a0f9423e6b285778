"""Shared telemetry primitives: histograms, Prometheus text, format lint.

This module is the single home for the metric machinery every layer
shares (``repro.net.metrics`` imports what the server's ``/metrics``
page needs, the emitters under private aliases): fixed-bucket
cumulative histograms with Prometheus ``le`` semantics, the
exposition-format helpers (``format_value`` / ``escape_label_value`` /
``format_labels``), the family emitters used to build ``/metrics``
pages, and a lint pass
(:func:`lint_prometheus_text`) that enforces the text-format contract —
counters end in ``_total``, one ``# HELP``/``# TYPE`` block per family,
label values escaped — so a hostile tenant name or a sloppy rename can't
silently corrupt a scrape.

Everything is plain stdlib + dict arithmetic; no client library.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Tuple

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


# ---------------------------------------------------------------------- #
# exposition-format lint
# ---------------------------------------------------------------------- #
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME}) (.*)$")
_TYPE_RE = re.compile(rf"^# TYPE ({_METRIC_NAME}) ([a-z]+)$")
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})(\{{(.*)\}})? "
    r"([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"')

_VALID_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def _lint_labels(raw: str, line_no: int, problems: List[str]) -> None:
    position = 0
    expect_label = True
    while position < len(raw):
        if expect_label:
            match = _LABEL_RE.match(raw, position)
            if match is None:
                problems.append(
                    f"line {line_no}: malformed or unescaped label at "
                    f"position {position}: {raw[position:position + 40]!r}"
                )
                return
            position = match.end()
            expect_label = False
        else:
            if raw[position] != ",":
                problems.append(
                    f"line {line_no}: expected ',' between labels, got "
                    f"{raw[position]!r}"
                )
                return
            position += 1
            expect_label = True
    if expect_label and raw:
        problems.append(f"line {line_no}: trailing ',' in label set")


def _family_of(name: str, declared: Mapping[str, str]) -> str:
    """Resolve a sample name to its declared family (histogram suffixes)."""
    if name in declared:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if declared.get(base) in ("histogram", "summary"):
                return base
    return ""


def lint_prometheus_text(text: str) -> List[str]:
    """Audit a text-format (0.0.4) exposition page; return violations.

    Checks the rules this repo's renderers must respect:

    * every ``# TYPE counter`` family name ends in ``_total``;
    * at most one ``# HELP`` and one ``# TYPE`` block per family, and
      the ``# TYPE`` precedes the family's first sample;
    * every sample line parses (name, optional labels, value) with
      label values escaped — raw quotes/newlines fail the parse;
    * every sample belongs to a declared family (histogram samples may
      use the ``_bucket``/``_sum``/``_count`` suffixes);
    * histogram families expose a ``+Inf`` bucket.

    Returns an empty list when the page is clean.
    """
    problems: List[str] = []
    declared_type: Dict[str, str] = {}
    declared_help: Dict[str, str] = {}
    sampled: Dict[str, bool] = {}
    saw_inf_bucket: Dict[str, bool] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            help_match = _HELP_RE.match(line)
            type_match = _TYPE_RE.match(line)
            if help_match:
                name = help_match.group(1)
                if name in declared_help:
                    problems.append(f"line {line_no}: duplicate # HELP for {name}")
                declared_help[name] = help_match.group(2)
            elif type_match:
                name, kind = type_match.groups()
                if name in declared_type:
                    problems.append(f"line {line_no}: duplicate # TYPE for {name}")
                if kind not in _VALID_TYPES:
                    problems.append(f"line {line_no}: unknown type {kind!r} for {name}")
                if kind == "counter" and not name.endswith("_total"):
                    problems.append(
                        f"line {line_no}: counter {name} must end in _total"
                    )
                if sampled.get(name):
                    problems.append(
                        f"line {line_no}: # TYPE for {name} after its samples"
                    )
                declared_type[name] = kind
            elif not line.startswith("# "):
                problems.append(f"line {line_no}: malformed comment line {line!r}")
            continue
        sample = _SAMPLE_RE.match(line)
        if sample is None:
            problems.append(f"line {line_no}: unparseable sample line {line!r}")
            continue
        name, _, raw_labels, _ = sample.groups()
        if raw_labels:
            _lint_labels(raw_labels, line_no, problems)
        family = _family_of(name, declared_type)
        if not family:
            problems.append(
                f"line {line_no}: sample {name} has no preceding # TYPE family"
            )
            continue
        sampled[family] = True
        if declared_type[family] == "histogram" and name.endswith("_bucket"):
            if raw_labels and 'le="+Inf"' in raw_labels:
                saw_inf_bucket[family] = True
    for family, kind in declared_type.items():
        if kind == "histogram" and sampled.get(family) and not saw_inf_bucket.get(family):
            problems.append(f"histogram {family} has no le=\"+Inf\" bucket")
    return problems
