"""Analysis helpers for experiment traces and sweep row files.

The paper's figures are read qualitatively: which algorithms *converge*,
which *diverge* or oscillate, and how large the final accuracy gap is.
This package turns those readings into reproducible numbers, and gives
each reading one implementation that every surface prints:

- :mod:`repro.analysis.traces` — per-history smoothing and the
  converging / unstable / diverging / stagnant classification;
- :mod:`repro.analysis.reporting` — :func:`run_summary`, the one
  summary of a finished run that sweep rows store and ``repro run``
  prints, plus ``repro compare``'s per-rule table;
- :mod:`repro.analysis.streaming` — constant-memory group-by
  aggregation over arbitrarily large sweep JSONL files, and
  :func:`group_table`, the one group table that ``repro analyze``,
  the closing lines of ``repro sweep run`` and the HTML report render;
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
    run_summary,
)
from repro.analysis.streaming import (
    GroupStats,
    StreamingMoments,
    SweepAnalysis,
    analysis_table,
    analyze_sweep_rows,
    group_table,
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
    "group_table",
    "moving_average",
    "render_figures",
    "render_html_report",
    "run_summary",
    "summarize_history",
    "write_figures",
]
