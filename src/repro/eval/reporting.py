"""Plain-text reporting of experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers render them as aligned ASCII tables so the output of
``pytest benchmarks/ --benchmark-only -s`` is directly readable and can be
compared with the committed ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .sweep import SweepCurve


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_curves(
    curves: Sequence[SweepCurve],
    *,
    title: Optional[str] = None,
    x_axis: str = "candidate_size",
) -> str:
    """Render a set of sweep curves as one table (one row per operating point)."""
    headers = ["method", "n_probes", "candidate_size", "accuracy", "qps"]
    rows: List[List[object]] = []
    for curve in curves:
        for point in curve.points:
            rows.append(
                [
                    curve.method,
                    point.n_probes,
                    round(point.candidate_size, 1),
                    round(point.accuracy, 4),
                    "-" if point.queries_per_second is None else round(point.queries_per_second, 1),
                ]
            )
    return format_table(headers, rows, title=title)


def format_frontier_summary(
    curves: Sequence[SweepCurve],
    target_accuracies: Sequence[float] = (0.8, 0.85, 0.9, 0.95),
    *,
    title: Optional[str] = None,
) -> str:
    """Candidate-set size each method needs at several accuracy targets."""
    headers = ["method"] + [f"|C| @ {acc:.0%}" for acc in target_accuracies]
    rows: List[List[object]] = []
    for curve in curves:
        row: List[object] = [curve.method]
        for target in target_accuracies:
            size = curve.candidate_size_at_accuracy(target)
            row.append("unreached" if size == float("inf") else round(size, 1))
        rows.append(row)
    return format_table(headers, rows, title=title)
