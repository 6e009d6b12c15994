"""Paper-figure reproductions rendered from sweep analyses.

The paper's Figures 1–3 are accuracy-vs-round curves and final-accuracy
comparisons across scenario grids; this module rebuilds their
equivalents **from sweep rows** (via
:class:`~repro.analysis.streaming.SweepAnalysis`) instead of bespoke
benchmark scripts, and adds the delivery-trace heatmaps (round × group
worst-delivery / late-message maps) that make bursty MMPP-style regimes
visible — per-round worst-case delivery shows bursts that cumulative
``deliv%`` averages away.

Charts are described independently of their drawing and rendered by a
dependency-free SVG writer whose output is byte-identical for identical
input, which the determinism tests and CI pin.

Charts follow a fixed-order colourblind-validated categorical palette
(assigned by series identity, never cycled: past eight series the rest
fold into an explicit note), a single-hue sequential ramp for the
heatmaps, one axis per chart, and a legend whenever two or more series
share a plot.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union
from xml.sax.saxutils import escape

from repro.analysis.streaming import SweepAnalysis

PathLike = Union[str, Path]

#: Fixed-order categorical palette (colourblind-validated, light mode).
#: Hues are assigned by series position and never cycled.
PALETTE: Tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Single-hue sequential ramp stops (light → dark blue) for heatmaps.
SEQUENTIAL_STOPS: Tuple[str, str, str] = ("#eef4fb", "#2a78d6", "#122f54")

#: Cell colour for missing heatmap values (no data ≠ zero).
MISSING_COLOR = "#e3e2de"

SURFACE_COLOR = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID_COLOR = "#e7e6e2"

#: Series beyond this fold into the chart note instead of new hues.
MAX_SERIES = len(PALETTE)

#: Heatmap rows beyond this fold into the chart note.
MAX_HEATMAP_ROWS = 24


@dataclass(frozen=True)
class FigureArtifact:
    """One rendered figure: SVG bytes plus enough metadata to embed it."""

    name: str
    title: str
    data: bytes

    def data_uri(self) -> str:
        """Self-contained ``data:`` URI (inline-HTML embedding)."""
        payload = base64.b64encode(self.data).decode("ascii")
        return f"data:image/svg+xml;base64,{payload}"


@dataclass
class LineChart:
    """A line chart, described independently of its SVG rendering."""

    name: str
    title: str
    xlabel: str
    ylabel: str
    #: (label, [(x, y), ...]) in fixed series order.
    series: List[Tuple[str, List[Tuple[float, float]]]]
    #: Category labels when the x axis is categorical (x = positions).
    x_tick_labels: Optional[List[str]] = None
    note: str = ""


@dataclass
class Heatmap:
    """A heatmap, described independently of its SVG rendering."""

    name: str
    title: str
    xlabel: str
    ylabel: str
    row_labels: List[str]
    #: rows × cols; NaN marks a missing cell.
    matrix: List[List[float]] = field(default_factory=list)
    vmin: float = 0.0
    vmax: float = 1.0
    #: Render values as percentages in the colourbar labels.
    percent: bool = False
    note: str = ""


Chart = Union[LineChart, Heatmap]


# -- chart construction from a SweepAnalysis ---------------------------------

def _cap_series(
    series: List[Tuple[str, List[Tuple[float, float]]]]
) -> Tuple[List[Tuple[str, List[Tuple[float, float]]]], str]:
    """Fold series beyond the palette into an explicit note (never cycle)."""
    if len(series) <= MAX_SERIES:
        return series, ""
    kept = series[:MAX_SERIES]
    note = (
        f"+{len(series) - MAX_SERIES} more group(s) not drawn; "
        f"use --group-by to reduce the group count"
    )
    return kept, note


def accuracy_curves_chart(analysis: SweepAnalysis) -> Optional[LineChart]:
    """Mean accuracy per round, one series per group (Fig 1–3 analogue)."""
    series: List[Tuple[str, List[Tuple[float, float]]]] = []
    for key, group in analysis.groups.items():
        curve = group.accuracy_curve.series("mean")
        points = [
            (float(index), value)
            for index, value in enumerate(curve)
            if math.isfinite(value)
        ]
        if points:
            series.append((analysis.group_label(key), points))
    if not series:
        return None
    series, note = _cap_series(series)
    return LineChart(
        name="accuracy_curves",
        title="Accuracy per round (group mean)",
        xlabel="round",
        ylabel="test accuracy",
        series=series,
        note=note,
    )


def final_accuracy_chart(analysis: SweepAnalysis) -> Optional[LineChart]:
    """Mean final accuracy vs the first group-by axis, one series per
    combination of the remaining axes (the paper's panel comparisons)."""
    if not analysis.group_by or not analysis.groups:
        return None
    x_axis, rest = analysis.group_by[0], analysis.group_by[1:]
    x_values: List[str] = []
    table: Dict[str, Dict[str, float]] = {}
    for key, group in analysis.groups.items():
        final = group.metrics.get("final_accuracy")
        if final is None or final.count == 0:
            continue
        x_value = key[0]
        series_label = "/".join(
            f"{name}={value}" for name, value in zip(rest, key[1:])
        ) or "all cells"
        if x_value not in x_values:
            x_values.append(x_value)
        table.setdefault(series_label, {})[x_value] = final.mean
    if not table or len(x_values) < 1:
        return None
    series = [
        (
            label,
            [
                (float(position), values[x_value])
                for position, x_value in enumerate(x_values)
                if x_value in values
            ],
        )
        for label, values in table.items()
    ]
    series = [(label, points) for label, points in series if points]
    if not series:
        return None
    series, note = _cap_series(series)
    return LineChart(
        name="final_accuracy",
        title=f"Final accuracy by {x_axis}",
        xlabel=x_axis,
        ylabel="final test accuracy",
        series=series,
        x_tick_labels=list(x_values),
        note=note,
    )


def _heatmap_from_rounds(
    analysis: SweepAnalysis,
    *,
    name: str,
    title: str,
    stat: str,
    accumulator: str,
    percent: bool,
) -> Optional[Heatmap]:
    rows: List[Tuple[str, List[float]]] = []
    for key, group in analysis.groups.items():
        series = getattr(group, accumulator).series(stat)
        if any(math.isfinite(value) for value in series):
            rows.append((analysis.group_label(key), series))
    if not rows:
        return None
    note = ""
    if len(rows) > MAX_HEATMAP_ROWS:
        note = (
            f"+{len(rows) - MAX_HEATMAP_ROWS} more group(s) not drawn; "
            f"use --group-by to reduce the group count"
        )
        rows = rows[:MAX_HEATMAP_ROWS]
    columns = max(len(series) for _, series in rows)
    matrix = [
        series + [float("nan")] * (columns - len(series)) for _, series in rows
    ]
    finite = [v for row in matrix for v in row if math.isfinite(v)]
    vmax = 1.0 if percent else max(finite + [1.0])
    return Heatmap(
        name=name,
        title=title,
        xlabel="round",
        ylabel="group",
        row_labels=[label for label, _ in rows],
        matrix=matrix,
        vmin=0.0,
        vmax=vmax,
        percent=percent,
        note=note,
    )


def delivery_heatmap_chart(analysis: SweepAnalysis) -> Optional[Heatmap]:
    """Round × group worst per-round delivery rate (burst depth)."""
    return _heatmap_from_rounds(
        analysis,
        name="delivery_worst_heatmap",
        title="Worst per-round delivery (round × group)",
        stat="min",
        accumulator="round_delivery",
        percent=True,
    )


def late_heatmap_chart(analysis: SweepAnalysis) -> Optional[Heatmap]:
    """Round × group mean late (delayed) messages per cell."""
    return _heatmap_from_rounds(
        analysis,
        name="delivery_late_heatmap",
        title="Late messages per round (round × group)",
        stat="mean",
        accumulator="round_late",
        percent=False,
    )


def build_charts(analysis: SweepAnalysis) -> List[Chart]:
    """Every chart the analysis has data for, in report order."""
    charts: List[Optional[Chart]] = [
        accuracy_curves_chart(analysis),
        final_accuracy_chart(analysis),
        delivery_heatmap_chart(analysis),
        late_heatmap_chart(analysis),
    ]
    return [chart for chart in charts if chart is not None]


# -- deterministic SVG rendering --------------------------------------------

def _fmt(value: float) -> str:
    """Fixed-precision coordinate formatting (deterministic bytes)."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _tick_label(value: float) -> str:
    return f"{value:.3g}"


def _lerp_color(a: str, b: str, t: float) -> str:
    av = [int(a[i : i + 2], 16) for i in (1, 3, 5)]
    bv = [int(b[i : i + 2], 16) for i in (1, 3, 5)]
    mixed = [round(x + (y - x) * t) for x, y in zip(av, bv)]
    return "#" + "".join(f"{channel:02x}" for channel in mixed)


def sequential_color(t: float) -> str:
    """Single-hue light→dark ramp over ``t`` in [0, 1]."""
    t = min(1.0, max(0.0, t))
    light, mid, dark = SEQUENTIAL_STOPS
    if t < 0.5:
        return _lerp_color(light, mid, t * 2.0)
    return _lerp_color(mid, dark, (t - 0.5) * 2.0)


_CHART_W, _CHART_H = 760, 380
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 44, 56
_LEGEND_W = 220


def _svg_text(
    x: float, y: float, text: str, *, size: int = 12,
    color: str = TEXT_SECONDARY, anchor: str = "start", bold: bool = False,
) -> str:
    weight = ' font-weight="600"' if bold else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'fill="{color}" text-anchor="{anchor}"{weight}>{escape(text)}</text>'
    )


def _svg_document(width: int, height: int, body: List[str]) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="{SURFACE_COLOR}"/>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts)


def render_line_chart_svg(chart: LineChart) -> str:
    """Deterministic SVG for a :class:`LineChart`."""
    legend = len(chart.series) >= 2
    width = _CHART_W + (_LEGEND_W if legend else 0)
    height = _CHART_H
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    xs = [x for _, points in chart.series for x, _ in points]
    ys = [y for _, points in chart.series for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    body: List[str] = [
        _svg_text(_MARGIN_L, 24, chart.title, size=14, color=TEXT_PRIMARY,
                  bold=True),
    ]
    # Recessive grid + y ticks.
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        body.append(
            f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_L + plot_w)}" y2="{_fmt(y)}" '
            f'stroke="{GRID_COLOR}" stroke-width="1"/>'
        )
        body.append(
            _svg_text(_MARGIN_L - 8, y + 4, _tick_label(tick), anchor="end")
        )
    # X ticks: categorical labels when given, numeric otherwise.
    if chart.x_tick_labels is not None:
        for position, label in enumerate(chart.x_tick_labels):
            x = sx(float(position))
            body.append(
                _svg_text(x, _MARGIN_T + plot_h + 18, label, anchor="middle")
            )
    else:
        for tick in _ticks(x_lo, x_hi):
            x = sx(tick)
            body.append(
                _svg_text(x, _MARGIN_T + plot_h + 18, _tick_label(tick),
                          anchor="middle")
            )
    # Axes (drawn over the grid).
    body.append(
        f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(_MARGIN_T)}" '
        f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(_MARGIN_T + plot_h)}" '
        f'stroke="{TEXT_SECONDARY}" stroke-width="1"/>'
    )
    body.append(
        f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(_MARGIN_T + plot_h)}" '
        f'x2="{_fmt(_MARGIN_L + plot_w)}" y2="{_fmt(_MARGIN_T + plot_h)}" '
        f'stroke="{TEXT_SECONDARY}" stroke-width="1"/>'
    )
    body.append(
        _svg_text(_MARGIN_L + plot_w / 2, height - 16, chart.xlabel,
                  anchor="middle")
    )
    body.append(
        f'<g transform="translate(16 {_fmt(_MARGIN_T + plot_h / 2)}) '
        f'rotate(-90)">{_svg_text(0, 0, chart.ylabel, anchor="middle")}</g>'
    )
    # Series: 2px lines, markers when sparse; native tooltips via <title>.
    for position, (label, points) in enumerate(chart.series):
        color = PALETTE[position]
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{_fmt(sx(x))},{_fmt(sy(y))}"
            for i, (x, y) in enumerate(points)
        )
        body.append(
            f'<path d="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"><title>{escape(label)}</title></path>'
        )
        if len(points) <= 24:
            for x, y in points:
                body.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                    f'fill="{color}"><title>{escape(label)}: '
                    f'{_tick_label(y)}</title></circle>'
                )
    if legend:
        lx = _CHART_W + 8
        for position, (label, _) in enumerate(chart.series):
            ly = _MARGIN_T + 16 * position
            body.append(
                f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 8)}" width="10" '
                f'height="10" rx="2" fill="{PALETTE[position]}"/>'
            )
            body.append(_svg_text(lx + 16, ly, label, size=11))
    if chart.note:
        body.append(
            _svg_text(_MARGIN_L, height - 2, chart.note, size=10)
        )
    return _svg_document(width, height, body)


def render_heatmap_svg(chart: Heatmap) -> str:
    """Deterministic SVG for a :class:`Heatmap`."""
    rows = len(chart.matrix)
    columns = max((len(row) for row in chart.matrix), default=0)
    label_w = max(
        [_MARGIN_L] + [6 * len(label) + 16 for label in chart.row_labels]
    )
    label_w = min(label_w, 260)
    cell_h = max(14, min(28, 240 // max(rows, 1)))
    cell_w = max(4, min(24, 640 // max(columns, 1)))
    plot_w, plot_h = cell_w * columns, cell_h * rows
    width = label_w + plot_w + 120
    height = _MARGIN_T + plot_h + _MARGIN_B

    body: List[str] = [
        _svg_text(label_w, 24, chart.title, size=14, color=TEXT_PRIMARY,
                  bold=True),
    ]
    span = chart.vmax - chart.vmin
    for r, (label, row) in enumerate(zip(chart.row_labels, chart.matrix)):
        y = _MARGIN_T + r * cell_h
        body.append(
            _svg_text(label_w - 6, y + cell_h / 2 + 4, label, size=11,
                      anchor="end")
        )
        for c, value in enumerate(row):
            x = label_w + c * cell_w
            if math.isfinite(value):
                t = (value - chart.vmin) / span if span > 0 else 0.0
                color = sequential_color(t)
                shown = (
                    f"{100.0 * value:.1f}%" if chart.percent
                    else f"{value:.3g}"
                )
                tooltip = f"{label} · round {c}: {shown}"
            else:
                color = MISSING_COLOR
                tooltip = f"{label} · round {c}: no data"
            body.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                f'width="{_fmt(max(cell_w - 1, 1))}" '
                f'height="{_fmt(max(cell_h - 1, 1))}" fill="{color}">'
                f"<title>{escape(tooltip)}</title></rect>"
            )
    # Column ticks (every few rounds, to avoid label collisions).
    step = max(1, columns // 10)
    for c in range(0, columns, step):
        body.append(
            _svg_text(label_w + c * cell_w + cell_w / 2,
                      _MARGIN_T + plot_h + 16, str(c), size=10,
                      anchor="middle")
        )
    body.append(
        _svg_text(label_w + plot_w / 2, _MARGIN_T + plot_h + 36,
                  chart.xlabel, anchor="middle")
    )
    # Colourbar.
    bar_x, bar_w = label_w + plot_w + 24, 14
    bar_h = max(plot_h, 60)
    steps = 24
    for i in range(steps):
        t = 1.0 - i / (steps - 1)
        body.append(
            f'<rect x="{_fmt(bar_x)}" y="{_fmt(_MARGIN_T + i * bar_h / steps)}" '
            f'width="{bar_w}" height="{_fmt(bar_h / steps + 0.5)}" '
            f'fill="{sequential_color(t)}"/>'
        )
    top = f"{100.0 * chart.vmax:.0f}%" if chart.percent else f"{chart.vmax:.3g}"
    bottom = f"{100.0 * chart.vmin:.0f}%" if chart.percent else f"{chart.vmin:.3g}"
    body.append(_svg_text(bar_x + bar_w + 4, _MARGIN_T + 10, top, size=10))
    body.append(
        _svg_text(bar_x + bar_w + 4, _MARGIN_T + bar_h, bottom, size=10)
    )
    if chart.note:
        body.append(_svg_text(label_w, height - 2, chart.note, size=10))
    return _svg_document(width, height, body)


def render_chart_svg(chart: Chart) -> str:
    if isinstance(chart, LineChart):
        return render_line_chart_svg(chart)
    return render_heatmap_svg(chart)


# -- entry points ------------------------------------------------------------

def render_figures(analysis: SweepAnalysis) -> List[FigureArtifact]:
    """Render every available chart for an analysis as SVG."""
    return [
        FigureArtifact(
            name=chart.name,
            title=chart.title,
            data=render_chart_svg(chart).encode("utf-8"),
        )
        for chart in build_charts(analysis)
    ]


def write_figures(
    artifacts: Sequence[FigureArtifact], directory: PathLike
) -> List[Path]:
    """Write one file per artifact into ``directory``; returns the paths."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for artifact in artifacts:
        path = target / f"{artifact.name}.svg"
        path.write_bytes(artifact.data)
        paths.append(path)
    return paths


__all__ = [
    "FigureArtifact",
    "Heatmap",
    "LineChart",
    "MAX_HEATMAP_ROWS",
    "MAX_SERIES",
    "PALETTE",
    "accuracy_curves_chart",
    "build_charts",
    "delivery_heatmap_chart",
    "final_accuracy_chart",
    "late_heatmap_chart",
    "render_chart_svg",
    "render_figures",
    "render_heatmap_svg",
    "render_line_chart_svg",
    "sequential_color",
    "write_figures",
]
