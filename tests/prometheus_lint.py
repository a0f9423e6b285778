"""An exposition-format lint for the ``/metrics`` pages the tests scrape.

:func:`lint_prometheus_text` enforces the text-format contract —
counters end in ``_total``, one ``# HELP``/``# TYPE`` block per family,
label values escaped — so a hostile tenant name or a sloppy rename
can't silently corrupt a scrape.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping

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
