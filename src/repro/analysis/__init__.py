"""Analysis helpers for experiment traces and sweep row files.

The paper's figures are read qualitatively: which algorithms *converge*,
which *diverge* or oscillate, and how large the final accuracy gap is.
This package turns those readings into reproducible numbers so the
benchmark reports and EXPERIMENTS.md comparisons are computed rather
than eyeballed.

Three layers:

- :mod:`repro.analysis.traces` / :mod:`repro.analysis.reporting` —
  per-history classification and plain-text tables;
- :mod:`repro.analysis.streaming` — constant-memory group-by
  aggregation over arbitrarily large sweep JSONL files;
- :mod:`repro.analysis.figures` / :mod:`repro.analysis.report` —
  paper-figure reproductions, delivery heatmaps and the self-contained
  HTML report behind ``repro analyze``.
"""

from repro.analysis.traces import (
    TraceSummary,
    classify_trace,
    moving_average,
    summarize_history,
)
from repro.analysis.reporting import (
    comparison_table,
    delivery_rate,
    delivery_trace_summary,
    format_percent,
    histories_to_records,
    sweep_summary_table,
)
from repro.analysis.streaming import (
    GroupStats,
    StreamingMoments,
    SweepAnalysis,
    analysis_table,
    analyze_sweep_rows,
)
from repro.analysis.figures import (
    FigureArtifact,
    build_charts,
    render_figures,
    write_figures,
)
from repro.analysis.report import render_html_report

__all__ = [
    "FigureArtifact",
    "GroupStats",
    "StreamingMoments",
    "SweepAnalysis",
    "TraceSummary",
    "analysis_table",
    "analyze_sweep_rows",
    "build_charts",
    "classify_trace",
    "comparison_table",
    "delivery_rate",
    "delivery_trace_summary",
    "format_percent",
    "histories_to_records",
    "moving_average",
    "render_figures",
    "render_html_report",
    "summarize_history",
    "sweep_summary_table",
    "write_figures",
]
