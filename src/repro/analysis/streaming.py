"""Constant-memory streaming analysis of sweep row files.

The fleet machinery (``repro.sweep``) streams millions of JSONL rows;
this module is the consumer that never needs them resident at once.
:func:`analyze_sweep_rows` makes **one pass** over a row iterable (or a
path, streamed line by line through :func:`repro.io.jsonl.iter_jsonl`)
and folds every row into bounded state:

- **group-by** over axis columns with streaming Welford mean/variance
  plus min/max per metric (:class:`StreamingMoments` — the numerically
  stable single-pass recurrence, so a billion-row file needs no second
  pass and no sorting);
- **classification counts** per group (converging / unstable /
  diverging / stagnant via :func:`repro.analysis.traces.classify_trace`
  over each row's embedded accuracy trace);
- **per-round accuracy curves** and **delivery-trace heatmap cells**
  (round × group accumulators bounded by the round budget, the data
  behind the paper-figure reproductions in
  :mod:`repro.analysis.figures`);
- **error rows tallied, never trusted**: a failed cell contributes to
  its group's ``failed`` count and to the capped failure listing, and
  to nothing else.

:func:`group_table` turns the groups into the one group table — its
columns and the text of each cell — that :func:`analysis_table` prints
for ``repro analyze`` and ``repro sweep run`` and
:mod:`repro.analysis.report` sets as HTML.

Memory is O(groups × rounds + metrics), independent of the row count —
the property the slow-marked RSS test in
``tests/test_analysis_streaming.py`` pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.io.jsonl import iter_jsonl
from repro.io.results import metric_from_json
from repro.utils.logging import get_logger

_logger = get_logger("analysis.streaming")

PathLike = Union[str, Path]

#: Metrics folded into every group, in table-column order: the row
#: summary key they come from and how they render.
SUMMARY_METRICS: Tuple[str, ...] = (
    "final_accuracy",
    "best_accuracy",
    "final_loss",
    "rounds",
)

#: Hard ceiling on retained per-round accumulators (curves and delivery
#: heatmaps).  Rounds beyond it are *counted* (``truncated_rounds``) but
#: not retained, so a pathological million-round history cannot defeat
#: the constant-memory guarantee.  Generous next to any real round
#: budget in this repo.
MAX_TRACKED_ROUNDS = 2048

#: How many failed cells the analysis retains verbatim (id + exception);
#: the total is always exact, the listing is capped.
MAX_FAILURE_DETAILS = 50


class StreamingMoments:
    """Single-pass mean / variance / min / max (Welford's recurrence).

    Non-finite updates (``NaN`` from a zero-sent delivery rate, ``None``
    sanitised by the strict-JSON writer) are counted in ``skipped`` and
    excluded from the moments, so one diverged cell cannot poison a
    group mean.
    """

    __slots__ = ("count", "skipped", "mean", "_m2", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def update(self, value: object) -> None:
        number = metric_from_json(value) if not isinstance(value, float) else value
        if not math.isfinite(number):
            self.skipped += 1
            return
        self.count += 1
        self.total += number
        delta = number - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (number - self.mean)
        self.minimum = min(self.minimum, number)
        self.maximum = max(self.maximum, number)

    @property
    def variance(self) -> float:
        """Population variance (0 for a single observation, NaN when empty)."""
        if self.count == 0:
            return float("nan")
        return self._m2 / self.count

    @property
    def std(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if math.isfinite(variance) else float("nan")

    def to_json(self) -> dict:
        """JSON-safe summary (non-finite values appear as ``None``)."""

        def safe(number: float) -> Optional[float]:
            return number if math.isfinite(number) else None

        return {
            "count": self.count,
            "skipped": self.skipped,
            "mean": safe(self.mean) if self.count else None,
            "std": safe(self.std),
            "min": safe(self.minimum) if self.count else None,
            "max": safe(self.maximum) if self.count else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.4g}, "
            f"std={self.std:.4g})"
        )


class RoundAccumulator:
    """Per-round streaming stats, bounded by :data:`MAX_TRACKED_ROUNDS`.

    One :class:`StreamingMoments` per round index plus an optional
    per-round minimum tracker — the backing store for accuracy curves
    (mean accuracy per round across a group's cells) and delivery
    heatmaps (worst per-round delivery across a group's cells).
    """

    __slots__ = ("moments", "truncated_rounds")

    def __init__(self) -> None:
        self.moments: List[StreamingMoments] = []
        self.truncated_rounds = 0

    def update(self, round_index: int, value: object) -> None:
        if round_index < 0:
            return
        if round_index >= MAX_TRACKED_ROUNDS:
            self.truncated_rounds += 1
            return
        while len(self.moments) <= round_index:
            self.moments.append(StreamingMoments())
        self.moments[round_index].update(value)

    @property
    def rounds(self) -> int:
        return len(self.moments)

    def series(self, stat: str = "mean") -> List[float]:
        """One value per round: ``mean``, ``min`` or ``max``."""
        if stat == "mean":
            return [
                m.mean if m.count else float("nan") for m in self.moments
            ]
        if stat == "min":
            return [
                m.minimum if m.count else float("nan") for m in self.moments
            ]
        if stat == "max":
            return [
                m.maximum if m.count else float("nan") for m in self.moments
            ]
        raise ValueError(f"unknown series stat {stat!r}")


#: A group key: the group-by axis values rendered as strings, in
#: group-by order — hashable, deterministic, JSON-safe.
GroupKey = Tuple[str, ...]


@dataclass
class GroupStats:
    """Everything the analysis accumulates for one axis-value group."""

    key: GroupKey
    cells: int = 0
    failed: int = 0
    metrics: Dict[str, StreamingMoments] = field(default_factory=dict)
    #: delivery_rate / worst_deliv / late from summary.network + .trace.
    delivery: Dict[str, StreamingMoments] = field(default_factory=dict)
    classifications: Dict[str, int] = field(default_factory=dict)
    #: Mean accuracy per round across the group's cells.
    accuracy_curve: RoundAccumulator = field(default_factory=RoundAccumulator)
    #: Worst per-round delivery rate across the group's cells (heatmap).
    round_delivery: RoundAccumulator = field(default_factory=RoundAccumulator)
    #: Late (delayed) messages per round, summed across cells (heatmap).
    round_late: RoundAccumulator = field(default_factory=RoundAccumulator)

    def metric(self, name: str) -> StreamingMoments:
        if name not in self.metrics:
            self.metrics[name] = StreamingMoments()
        return self.metrics[name]

    def delivery_metric(self, name: str) -> StreamingMoments:
        if name not in self.delivery:
            self.delivery[name] = StreamingMoments()
        return self.delivery[name]

    def to_json(self) -> dict:
        data = {
            "key": list(self.key),
            "cells": self.cells,
            "failed": self.failed,
            "metrics": {
                name: moments.to_json() for name, moments in self.metrics.items()
            },
        }
        if self.delivery:
            data["delivery"] = {
                name: moments.to_json() for name, moments in self.delivery.items()
            }
        if self.classifications:
            data["classifications"] = dict(sorted(self.classifications.items()))
        return data


@dataclass
class SweepAnalysis:
    """The bounded result of one streaming pass over a sweep file."""

    group_by: List[str]
    axis_names: List[str]
    rows_read: int = 0
    cells: int = 0
    failed: int = 0
    stale_rows: int = 0
    #: Insertion-ordered (first-seen == grid order for canonical files).
    groups: Dict[GroupKey, GroupStats] = field(default_factory=dict)
    #: Capped listing of (cell_id, exception) pairs; ``failed`` is exact.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def has_delivery(self) -> bool:
        return any(group.delivery for group in self.groups.values())

    def group_label(self, key: GroupKey) -> str:
        return "/".join(
            f"{name}={value}" for name, value in zip(self.group_by, key)
        ) or "(all)"

    def to_json(self) -> dict:
        """Deterministic JSON-safe form (the ``--format json`` payload)."""
        return {
            "group_by": list(self.group_by),
            "axis_names": list(self.axis_names),
            "rows_read": self.rows_read,
            "cells": self.cells,
            "failed": self.failed,
            "stale_rows": self.stale_rows,
            "groups": [group.to_json() for group in self.groups.values()],
            "failures": [
                {"cell_id": cell_id, "exception": exception}
                for cell_id, exception in self.failures
            ],
        }


def _row_schema_current(row: Mapping[str, object]) -> bool:
    from repro.sweep.executors import ROW_SCHEMA_VERSION

    return row.get("schema") == ROW_SCHEMA_VERSION


def _group_key(
    axes: Mapping[str, object], group_by: Sequence[str]
) -> GroupKey:
    # A row written before an axis existed (e.g. pre-``exchange`` rows)
    # has no value for it; render '-' rather than an invisible blank so
    # the group label stays readable.
    return tuple(str(axes[name]) if name in axes else "-" for name in group_by)


def _classify_row(history: Mapping[str, object]) -> Optional[str]:
    """Classification of a row's embedded accuracy trace, if readable."""
    from repro.analysis.traces import classify_trace

    records = history.get("records")
    if not isinstance(records, list) or not records:
        return None
    accuracies = [
        metric_from_json(record.get("accuracy"))
        for record in records
        if isinstance(record, Mapping)
    ]
    accuracies = [a for a in accuracies if math.isfinite(a)]
    if not accuracies:
        return None
    return classify_trace(accuracies)


def analyze_sweep_rows(
    rows: Union[PathLike, Iterable[dict]],
    *,
    group_by: Optional[Sequence[str]] = None,
    axis_names: Optional[Sequence[str]] = None,
    classify: bool = True,
) -> SweepAnalysis:
    """One streaming pass over sweep rows → a bounded :class:`SweepAnalysis`.

    Parameters
    ----------
    rows:
        A path to a JSONL file (streamed one line at a time; ``.gz``
        transparently decompressed) or any iterable of row dicts.
    group_by:
        Axis names to aggregate over.  Defaults to every axis (each
        group is then one cell — still bounded by the grid size, not the
        row count, since duplicate/stale rows collapse).
    axis_names:
        The grid's axis order, when the spec is at hand
        (``ScenarioGrid.axis_names()``); otherwise recovered from the
        first row (cell-id order where unambiguous, sorted otherwise).
    classify:
        Label each cell's accuracy trace (converging / unstable /
        diverging / stagnant) from its embedded history.  Costs one
        O(rounds) pass per row; disable for metric-only scans.

    Per-round accuracy curves and delivery heatmap cells accumulate from
    each row's embedded history (bounded by :data:`MAX_TRACKED_ROUNDS`).
    Rows from another schema version are counted in ``stale_rows`` and
    skipped (their metrics cannot be trusted); error rows are tallied
    per group and listed (capped) but contribute to no metric.
    """
    if isinstance(rows, (str, Path)):
        rows = iter_jsonl(rows)

    analysis = SweepAnalysis(
        group_by=list(group_by) if group_by is not None else [],
        axis_names=list(axis_names) if axis_names is not None else [],
    )
    resolved_group_by = list(group_by) if group_by is not None else None

    for row in rows:
        analysis.rows_read += 1
        if not isinstance(row, Mapping) or not _row_schema_current(row):
            analysis.stale_rows += 1
            continue
        axes = row.get("axes")
        if not isinstance(axes, Mapping):
            analysis.stale_rows += 1
            continue
        if not analysis.axis_names:
            analysis.axis_names = _recover_axis_names(row, axes)
        if resolved_group_by is None:
            resolved_group_by = list(analysis.axis_names)
            analysis.group_by = list(resolved_group_by)
        # A group-by name absent from this row's axes is only an error
        # when it is not a config field at all — a row written before an
        # axis existed (a sweep predating ``exchange``, say) groups
        # under the '-' placeholder instead of aborting the whole pass.
        unknown = [name for name in resolved_group_by if name not in axes]
        if unknown:
            from repro.sweep.grid import CONFIG_FIELDS

            bogus = [name for name in unknown if name not in CONFIG_FIELDS]
            if bogus:
                raise ValueError(
                    f"group-by axis {bogus[0]!r} is not an axis of row "
                    f"{row.get('cell_id')!r}; available: {sorted(axes)}"
                )

        key = _group_key(axes, resolved_group_by)
        group = analysis.groups.get(key)
        if group is None:
            group = analysis.groups[key] = GroupStats(key=key)
        analysis.cells += 1
        group.cells += 1

        if "error" in row:
            analysis.failed += 1
            group.failed += 1
            error = row["error"] if isinstance(row["error"], Mapping) else {}
            if len(analysis.failures) < MAX_FAILURE_DETAILS:
                analysis.failures.append(
                    (
                        str(row.get("cell_id", "?")),
                        str(error.get("exception", "unknown error")),
                    )
                )
            continue

        summary = row.get("summary")
        summary = summary if isinstance(summary, Mapping) else {}
        for name in SUMMARY_METRICS:
            if name in summary:
                group.metric(name).update(summary.get(name))
        network = summary.get("network")
        if isinstance(network, Mapping):
            from repro.analysis.reporting import delivery_rate

            group.delivery_metric("delivery_rate").update(delivery_rate(network))
        trace = summary.get("trace")
        if isinstance(trace, Mapping):
            group.delivery_metric("worst_deliv").update(trace.get("worst_deliv"))
            group.delivery_metric("late").update(float(trace.get("late", 0) or 0))

        history = row.get("history")
        history = history if isinstance(history, Mapping) else {}
        if classify:
            label = _classify_row(history)
            if label is not None:
                group.classifications[label] = (
                    group.classifications.get(label, 0) + 1
                )
        _accumulate_curves(group, history)

    if resolved_group_by is not None:
        analysis.group_by = list(resolved_group_by)
    _warn_on_truncation(analysis)
    return analysis


def _recover_axis_names(
    row: Mapping[str, object], axes: Mapping[str, object]
) -> List[str]:
    """Axis names (and grid order) recovered from the first row.

    The row's ``"axes"`` mapping is authoritative for the *names* —
    splitting the cell id would mis-parse legacy ids whose values embed
    raw ``/`` or ``=`` (values are escaped since the cell-id escaping
    fix, but archived rows predate it).  The cell id is only consulted
    to restore the grid's axis *order*, which a sorted-keys JSONL round
    trip loses, and only when it parses to exactly the axes mapping's
    names.
    """
    cell_id = row.get("cell_id")
    if isinstance(cell_id, str) and "=" in cell_id:
        from repro.sweep.grid import parse_cell_id

        parsed = list(parse_cell_id(cell_id))
        if set(parsed) == set(axes) and len(parsed) == len(axes):
            return parsed
    return list(axes)


def _accumulate_curves(group: GroupStats, history: Mapping[str, object]) -> None:
    records = history.get("records")
    if isinstance(records, list):
        for position, record in enumerate(records):
            if not isinstance(record, Mapping):
                continue
            index = record.get("round_index")
            index = index if isinstance(index, int) else position
            group.accuracy_curve.update(index, record.get("accuracy"))
    trace = history.get("delivery_trace")
    if isinstance(trace, list):
        # Engine trace rounds are a monotone wall-clock count across
        # exchanges; re-base on the first entry so heatmap columns line
        # up with training rounds.
        base: Optional[int] = None
        for position, entry in enumerate(trace):
            if not isinstance(entry, Mapping):
                continue
            round_index = entry.get("round")
            round_index = round_index if isinstance(round_index, int) else position
            if base is None:
                base = round_index
            column = round_index - base
            sent = int(entry.get("sent", 0) or 0)
            if sent > 0:
                delivered = int(entry.get("delivered", 0) or 0)
                group.round_delivery.update(column, delivered / sent)
            group.round_late.update(
                column, float(int(entry.get("delayed", 0) or 0))
            )


def _warn_on_truncation(analysis: SweepAnalysis) -> None:
    truncated = sum(
        accumulator.truncated_rounds
        for group in analysis.groups.values()
        for accumulator in (
            group.accuracy_curve, group.round_delivery, group.round_late,
        )
    )
    if truncated:
        # No silent caps: per-round accumulators stop at
        # MAX_TRACKED_ROUNDS, so a longer history is partially rendered.
        _logger.warning(
            "per-round accumulation truncated %d update(s) beyond round %d; "
            "curves and heatmaps cover the first %d rounds only",
            truncated, MAX_TRACKED_ROUNDS, MAX_TRACKED_ROUNDS,
        )


def group_table(
    analysis: SweepAnalysis,
) -> Tuple[List[Tuple[str, int]], List[List[str]]]:
    """The group table's columns and the text of each cell.

    The one definition of the table that ``repro analyze`` prints, the
    HTML report embeds and ``repro sweep run`` closes with.  Returns
    ``(columns, rows)``: each column is a ``(header, width)`` pair,
    where ``width`` is what the text table right-aligns the column to
    and ``0`` marks the two free-text columns (the group label and the
    classification tally); each row holds one group's cell texts,
    unpadded, in column order.  Delivery columns appear when any cell
    carried delivery counters; an empty statistic renders ``-``.
    """
    from repro.analysis.reporting import format_percent

    columns = [("group", 0), ("cells", 5), ("fail", 4), ("final", 7),
               ("±std", 7), ("min", 7), ("max", 7), ("best", 7)]
    if analysis.has_delivery:
        columns += [("deliv%", 7), ("wrst%", 7), ("late", 6)]
    columns.append(("classes", 0))

    def stat(
        moments: Optional[StreamingMoments], attribute: str, percent: bool = False
    ) -> str:
        if moments is None or moments.count == 0:
            return "-"
        value = getattr(moments, attribute)
        return format_percent(value).strip() if percent else f"{value:.3f}"

    rows = []
    for key, group in analysis.groups.items():
        final = group.metrics.get("final_accuracy")
        cells = [
            analysis.group_label(key), str(group.cells), str(group.failed),
            stat(final, "mean"), stat(final, "std"), stat(final, "minimum"),
            stat(final, "maximum"), stat(group.metrics.get("best_accuracy"), "mean"),
        ]
        if analysis.has_delivery:
            late = group.delivery.get("late")
            cells += [
                stat(group.delivery.get("delivery_rate"), "mean", percent=True),
                stat(group.delivery.get("worst_deliv"), "minimum", percent=True),
                str(int(round(late.total)) if late and late.count else 0),
            ]
        tally = " ".join(
            f"{name}:{count}"
            for name, count in sorted(group.classifications.items())
        )
        cells.append(tally or "-")
        rows.append(cells)
    return columns, rows


def analysis_table(analysis: SweepAnalysis) -> str:
    """Plain-text rendering of :func:`group_table`, plus a summary line.

    The group label is left-aligned to the longest label, every other
    column right-aligned to its width, and the classification tally
    closes each line after two spaces.
    """
    if not analysis.groups:
        return "(no sweep rows)"
    columns, rows = group_table(analysis)
    header = [name for name, _ in columns]
    label_width = max(len(cells[0]) for cells in [header] + rows)

    def line(cells: List[str]) -> str:
        label, *numbers, tally = cells
        padded = [
            f"{text:>{width}s}" for text, (_, width) in zip(numbers, columns[1:-1])
        ]
        return " ".join([f"{label:<{label_width}s}", *padded]) + "  " + tally

    head = line(header)
    lines = [head, "-" * len(head)] + [line(cells) for cells in rows]
    summary = (
        f"{analysis.cells} cell(s) in {len(analysis.groups)} group(s); "
        f"{analysis.failed} failed"
    )
    if analysis.stale_rows:
        summary += f"; {analysis.stale_rows} stale row(s) skipped"
    lines.append("")
    lines.append(summary)
    return "\n".join(lines)


__all__ = [
    "GroupStats",
    "MAX_FAILURE_DETAILS",
    "MAX_TRACKED_ROUNDS",
    "RoundAccumulator",
    "StreamingMoments",
    "SUMMARY_METRICS",
    "SweepAnalysis",
    "analysis_table",
    "analyze_sweep_rows",
    "group_table",
]
