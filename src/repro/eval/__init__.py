"""Evaluation harness: metrics, sweeps, experiment runners, reporting."""

from .metrics import candidate_stats, knn_accuracy
from .sweep import (
    FilterSweepPoint,
    SweepCurve,
    SweepPoint,
    accuracy_candidate_curve,
    filter_selectivity_curve,
    filtered_recall,
    probe_schedule,
    resolve_index,
    resolve_service,
    throughput_accuracy_curve,
)
from .reporting import format_curves, format_frontier_summary, format_table
from .experiments import (
    ExperimentScale,
    benchmark_dataset,
    default_usp_config,
    run_figure5,
    run_figure6,
    run_figure7,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    speedup_at_accuracy,
)

__all__ = [
    "candidate_stats",
    "knn_accuracy",
    "FilterSweepPoint",
    "SweepCurve",
    "SweepPoint",
    "accuracy_candidate_curve",
    "filter_selectivity_curve",
    "filtered_recall",
    "probe_schedule",
    "resolve_index",
    "resolve_service",
    "throughput_accuracy_curve",
    "format_curves",
    "format_frontier_summary",
    "format_table",
    "ExperimentScale",
    "benchmark_dataset",
    "default_usp_config",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "speedup_at_accuracy",
]
