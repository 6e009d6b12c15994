"""Tests for the streaming sweep analysis, figures and report pipeline.

Covers ``repro.analysis.streaming`` (constant-memory group-by
aggregation), ``repro.analysis.figures`` (deterministic SVG renderer),
``repro.analysis.report`` (self-contained HTML) and the ``repro
analyze`` CLI — including the slow-marked bounded-memory guarantee over
a 100k-row file.
"""

from __future__ import annotations

import gzip
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.analysis.figures import (
    FigureArtifact,
    build_charts,
    render_chart_svg,
    render_figures,
    sequential_color,
    write_figures,
)
from repro.analysis.report import render_html_report
from repro.analysis.streaming import (
    MAX_FAILURE_DETAILS,
    MAX_TRACKED_ROUNDS,
    RoundAccumulator,
    StreamingMoments,
    analysis_table,
    analyze_sweep_rows,
    group_table,
)
from repro.cli import main
from repro.io.jsonl import dump_row, iter_jsonl, write_jsonl
from repro.sweep.executors import ROW_SCHEMA_VERSION


def make_row(
    index,
    axes,
    *,
    final=0.5,
    best=None,
    loss=1.0,
    rounds=2,
    network=None,
    trace=None,
    accuracies=None,
    delivery_trace=None,
):
    """Synthetic current-schema sweep row with the documented shape."""
    summary = {
        "final_accuracy": final,
        "best_accuracy": best if best is not None else final,
        "final_loss": loss,
        "rounds": rounds,
    }
    if network is not None:
        summary["network"] = network
    if trace is not None:
        summary["trace"] = trace
    history = {}
    if accuracies is not None:
        history["records"] = [
            {"round_index": i, "accuracy": acc}
            for i, acc in enumerate(accuracies)
        ]
    if delivery_trace is not None:
        history["delivery_trace"] = delivery_trace
    cell_id = "/".join(f"{k}={v}" for k, v in axes.items())
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": index,
        "cell_id": cell_id,
        "axes": dict(axes),
        "config": {},
        "summary": summary,
        "history": history,
    }


def make_error_row(index, axes, exception="RuntimeError: boom"):
    cell_id = "/".join(f"{k}={v}" for k, v in axes.items())
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": index,
        "cell_id": cell_id,
        "axes": dict(axes),
        "config": {},
        "error": {"schema": 1, "exception": exception, "traceback": [],
                  "attempts": 1},
    }


class TestStreamingMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=200)
        moments = StreamingMoments()
        for value in values:
            moments.update(float(value))
        assert moments.count == 200
        assert moments.mean == pytest.approx(values.mean())
        assert moments.variance == pytest.approx(values.var())
        assert moments.std == pytest.approx(values.std())
        assert moments.minimum == values.min()
        assert moments.maximum == values.max()
        assert moments.total == pytest.approx(values.sum())

    def test_skips_non_finite(self):
        moments = StreamingMoments()
        for value in (1.0, float("nan"), None, float("inf"), 3.0):
            moments.update(value)
        assert moments.count == 2
        assert moments.skipped == 3
        assert moments.mean == pytest.approx(2.0)

    def test_empty(self):
        moments = StreamingMoments()
        assert math.isnan(moments.variance)
        assert moments.to_json()["mean"] is None

    def test_single_observation(self):
        moments = StreamingMoments()
        moments.update(0.25)
        assert moments.variance == 0.0
        assert moments.to_json()["std"] == 0.0


class TestRoundAccumulator:
    def test_series(self):
        acc = RoundAccumulator()
        acc.update(0, 0.2)
        acc.update(0, 0.4)
        acc.update(1, 0.6)
        assert acc.rounds == 2
        assert acc.series("mean") == pytest.approx([0.3, 0.6])
        assert acc.series("min") == pytest.approx([0.2, 0.6])
        assert acc.series("max") == pytest.approx([0.4, 0.6])
        with pytest.raises(ValueError):
            acc.series("median")

    def test_gap_rounds_are_nan(self):
        acc = RoundAccumulator()
        acc.update(2, 0.5)
        series = acc.series("mean")
        assert math.isnan(series[0]) and math.isnan(series[1])
        assert series[2] == 0.5

    def test_truncation_counted_not_stored(self):
        acc = RoundAccumulator()
        acc.update(MAX_TRACKED_ROUNDS + 5, 0.5)
        acc.update(-1, 0.5)
        assert acc.rounds == 0
        assert acc.truncated_rounds == 1


class TestAnalyzeSweepRows:
    def test_groups_by_every_axis_by_default(self):
        rows = [
            make_row(0, {"a": "x", "b": "1"}),
            make_row(1, {"a": "x", "b": "2"}),
            make_row(2, {"a": "y", "b": "1"}),
        ]
        analysis = analyze_sweep_rows(rows)
        assert analysis.cells == 3
        assert len(analysis.groups) == 3
        assert analysis.group_by == ["a", "b"]

    def test_group_by_subset_aggregates(self):
        rows = [
            make_row(0, {"a": "x", "b": "1"}, final=0.2),
            make_row(1, {"a": "x", "b": "2"}, final=0.4),
            make_row(2, {"a": "y", "b": "1"}, final=0.8),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        assert len(analysis.groups) == 2
        group = analysis.groups[("x",)]
        assert group.cells == 2
        assert group.metrics["final_accuracy"].mean == pytest.approx(0.3)
        assert analysis.group_label(("x",)) == "a=x"

    def test_unknown_group_by_axis_raises(self):
        rows = [make_row(0, {"a": "x"})]
        with pytest.raises(ValueError, match="not an axis"):
            analyze_sweep_rows(rows, group_by=["nope"])

    def test_rows_predating_an_axis_group_under_placeholder(self):
        """Stale-schema tolerance: grouping by an axis older rows lack.

        A config field that became a sweep axis later (``exchange``) is
        absent from archived rows; those rows group under '-' instead of
        aborting the pass or rendering an invisible blank.
        """
        rows = [
            make_row(0, {"topology": "ring"}, final=0.4),
            make_row(1, {"topology": "ring", "exchange": "gossip"}, final=0.6),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["exchange"])
        assert set(analysis.groups) == {("-",), ("gossip",)}
        assert analysis.group_label(("-",)) == "exchange=-"
        table = analysis_table(analysis)
        assert "exchange=-" in table and "exchange=gossip" in table

    def test_summary_table_renders_dash_for_missing_axis(self):
        rows = [
            make_row(0, {"topology": "ring"}),
            make_row(1, {"topology": "ring", "exchange": "gossip"}),
        ]
        table = analysis_table(
            analyze_sweep_rows(rows, axis_names=["topology", "exchange"])
        )
        labels = [line.split()[0] for line in table.splitlines()[2:4]]
        assert labels == ["topology=ring/exchange=-", "topology=ring/exchange=gossip"]

    def test_error_rows_tallied_never_trusted(self):
        rows = [
            make_row(0, {"a": "x"}, final=0.5),
            make_error_row(1, {"a": "x"}),
        ]
        analysis = analyze_sweep_rows(rows)
        group = analysis.groups[("x",)]
        assert analysis.failed == 1 and group.failed == 1
        assert group.cells == 2
        # The error row contributed to no metric.
        assert group.metrics["final_accuracy"].count == 1
        assert analysis.failures == [("a=x", "RuntimeError: boom")]

    def test_failure_listing_capped_count_exact(self):
        rows = [
            make_error_row(i, {"a": str(i)})
            for i in range(MAX_FAILURE_DETAILS + 7)
        ]
        analysis = analyze_sweep_rows(rows, group_by=[])
        assert analysis.failed == MAX_FAILURE_DETAILS + 7
        assert len(analysis.failures) == MAX_FAILURE_DETAILS

    def test_stale_and_malformed_rows_skipped(self):
        rows = [
            make_row(0, {"a": "x"}),
            {"schema": ROW_SCHEMA_VERSION - 1, "axes": {"a": "y"}},
            {"schema": ROW_SCHEMA_VERSION, "cell_id": "no-axes"},
        ]
        analysis = analyze_sweep_rows(rows)
        assert analysis.rows_read == 3
        assert analysis.cells == 1
        assert analysis.stale_rows == 2

    def test_non_finite_metrics_skipped_not_poisoning(self):
        rows = [
            make_row(0, {"a": "x"}, final=0.5, loss=None),
            make_row(1, {"a": "x"}, final=None, loss=2.0),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        group = analysis.groups[("x",)]
        assert group.metrics["final_accuracy"].count == 1
        assert group.metrics["final_accuracy"].skipped == 1
        assert group.metrics["final_accuracy"].mean == pytest.approx(0.5)

    def test_delivery_and_trace_metrics(self):
        rows = [
            make_row(
                0, {"a": "x"},
                network={"sent": 8, "delivered": 6},
                trace={"rounds": 2, "worst_deliv": 0.5, "late": 3},
            ),
            make_row(
                1, {"a": "x"},
                network={"sent": 0, "delivered": 0},
                trace={"rounds": 2, "worst_deliv": None, "late": 0},
            ),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        group = analysis.groups[("x",)]
        assert analysis.has_delivery
        assert group.delivery["delivery_rate"].count == 1  # zero-sent skipped
        assert group.delivery["worst_deliv"].minimum == 0.5
        assert group.delivery["late"].total == 3.0

    def test_classification_tally(self):
        converging = list(np.linspace(0.1, 0.9, 20))
        stagnant = [0.1] * 20
        rows = [
            make_row(0, {"a": "x"}, accuracies=converging),
            make_row(1, {"a": "x"}, accuracies=stagnant),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        tally = analysis.groups[("x",)].classifications
        assert tally == {"converging": 1, "stagnant": 1}
        no_classify = analyze_sweep_rows(rows, group_by=["a"], classify=False)
        assert no_classify.groups[("x",)].classifications == {}

    def test_curves_and_heatmap_accumulation(self):
        trace = [
            {"round": 10, "sent": 4, "delivered": 4, "delayed": 0},
            {"round": 11, "sent": 4, "delivered": 2, "delayed": 2},
        ]
        rows = [
            make_row(0, {"a": "x"}, accuracies=[0.1, 0.3],
                     delivery_trace=trace),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        group = analysis.groups[("x",)]
        assert group.accuracy_curve.series("mean") == pytest.approx([0.1, 0.3])
        # Trace rounds re-based on the first entry: columns 0 and 1.
        assert group.round_delivery.series("min") == pytest.approx([1.0, 0.5])
        assert group.round_late.series("mean") == pytest.approx([0.0, 2.0])

    def test_reads_path_and_gzip(self, tmp_path):
        rows = [make_row(i, {"a": str(i % 2)}) for i in range(4)]
        plain = tmp_path / "rows.jsonl"
        write_jsonl(plain, rows)
        zipped = tmp_path / "rows.jsonl.gz"
        with gzip.open(zipped, "wt", encoding="utf-8") as handle:
            for row in rows:
                handle.write(dump_row(row) + "\n")
        from_plain = analyze_sweep_rows(plain, group_by=["a"])
        from_gzip = analyze_sweep_rows(zipped, group_by=["a"])
        assert from_plain.to_json() == from_gzip.to_json()
        assert list(iter_jsonl(zipped)) == list(iter_jsonl(plain))

    def test_json_deterministic(self):
        rows = [make_row(i, {"a": str(i % 2)}, final=0.1 * i) for i in range(6)]
        first = json.dumps(analyze_sweep_rows(rows).to_json(), sort_keys=True)
        second = json.dumps(analyze_sweep_rows(rows).to_json(), sort_keys=True)
        assert first == second


class TestAnalysisTable:
    def test_renders_groups_and_summary(self):
        rows = [
            make_row(0, {"a": "x"}, final=0.2),
            make_row(1, {"a": "y"}, final=0.8),
            make_error_row(2, {"a": "y"}),
        ]
        table = analysis_table(analyze_sweep_rows(rows, group_by=["a"]))
        assert "a=x" in table and "a=y" in table
        assert "3 cell(s) in 2 group(s); 1 failed" in table

    def test_nan_delivery_renders_dash(self):
        rows = [
            make_row(
                0, {"a": "x"},
                network={"sent": 0, "delivered": 0},
                trace={"rounds": 1, "worst_deliv": None, "late": 0},
            ),
        ]
        table = analysis_table(analyze_sweep_rows(rows, group_by=["a"]))
        assert "nan" not in table
        assert "-" in table

    def test_empty(self):
        assert analysis_table(analyze_sweep_rows([])) == "(no sweep rows)"


def analysis_with_figures():
    trace = [
        {"round": 0, "sent": 4, "delivered": 4, "delayed": 0},
        {"round": 1, "sent": 4, "delivered": 3, "delayed": 1},
    ]
    rows = [
        make_row(
            i, {"a": group, "b": str(i % 2)},
            final=0.1 * (i + 1),
            accuracies=[0.05 * (i + 1), 0.1 * (i + 1)],
            delivery_trace=trace,
        )
        for i, group in enumerate(["x", "x", "y", "y"])
    ]
    return analyze_sweep_rows(rows, group_by=["a", "b"])


class TestFigures:
    def test_build_charts_covers_all_kinds(self):
        charts = build_charts(analysis_with_figures())
        names = [chart.name for chart in charts]
        assert names == [
            "accuracy_curves",
            "final_accuracy",
            "delivery_worst_heatmap",
            "delivery_late_heatmap",
        ]

    def test_svg_renders_parse_and_are_deterministic(self):
        analysis = analysis_with_figures()
        for chart in build_charts(analysis):
            svg = render_chart_svg(chart)
            assert svg == render_chart_svg(chart)
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")
            assert float(root.get("width")) > 0

    def test_render_figures_svg_artifacts(self):
        artifacts = render_figures(analysis_with_figures())
        assert len(artifacts) == 4
        for artifact in artifacts:
            assert isinstance(artifact, FigureArtifact)
            assert len(artifact.data) > 200
            assert artifact.data_uri().startswith(
                "data:image/svg+xml;base64,"
            )

    def test_no_figures_without_histories(self):
        rows = [make_row(0, {"a": "x"})]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        charts = build_charts(analysis)
        # No embedded records or traces: only the final-accuracy chart
        # (built from summary metrics) remains.
        assert [chart.name for chart in charts] == ["final_accuracy"]

    def test_series_capped_with_note_never_cycled(self):
        rows = [
            make_row(i, {"a": f"g{i:02d}"}, accuracies=[0.1, 0.2])
            for i in range(11)
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        chart = build_charts(analysis)[0]
        assert chart.name == "accuracy_curves"
        assert len(chart.series) == 8
        assert "+3 more group(s)" in chart.note
        svg = render_chart_svg(chart)
        assert "+3 more group(s)" in svg

    def test_write_figures(self, tmp_path):
        artifacts = render_figures(analysis_with_figures())
        paths = write_figures(artifacts, tmp_path / "figs")
        assert len(paths) == 4
        for path in paths:
            assert path.suffix == ".svg"
            assert path.stat().st_size > 0

    def test_sequential_ramp_monotone_single_hue(self):
        # Light → dark: perceived lightness must strictly decrease.
        def luma(color):
            r, g, b = (int(color[i : i + 2], 16) for i in (1, 3, 5))
            return 0.2126 * r + 0.7152 * g + 0.0722 * b

        samples = [sequential_color(t / 10) for t in range(11)]
        lumas = [luma(color) for color in samples]
        assert all(a > b for a, b in zip(lumas, lumas[1:]))


class TestHtmlReport:
    def test_self_contained_and_deterministic(self):
        analysis = analysis_with_figures()
        figures = render_figures(analysis)
        html = render_html_report(analysis, figures, source="rows.jsonl")
        assert html == render_html_report(analysis, figures,
                                          source="rows.jsonl")
        assert html.count("data:image/svg+xml;base64,") == 4
        assert "<script" not in html
        assert 'href="http' not in html and 'src="http' not in html
        assert "rows.jsonl" in html

    def test_escapes_untrusted_text(self):
        rows = [
            make_error_row(
                0, {"a": "<script>alert(1)</script>"},
                exception="ValueError: <b>&nasty</b>",
            )
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        html = render_html_report(analysis)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
        assert "&lt;b&gt;" in html

    def test_failed_cells_listed(self):
        rows = [
            make_row(0, {"a": "x"}),
            make_error_row(1, {"a": "y"}, exception="RuntimeError: kaput"),
        ]
        analysis = analyze_sweep_rows(rows, group_by=["a"])
        html = render_html_report(analysis)
        assert "Failed cells" in html
        assert "kaput" in html

    def test_empty_analysis(self):
        html = render_html_report(analyze_sweep_rows([]))
        assert "No current-schema rows" in html

    def test_group_table_cells_match_the_text_table(self):
        rows = [
            make_row(0, {"a": "x"}, network={"sent": 8, "delivered": 6},
                     trace={"rounds": 2, "worst_deliv": 0.5, "late": 3},
                     accuracies=[0.1, 0.3]),
            make_error_row(1, {"a": "y"}),
        ]
        analysis = analyze_sweep_rows(rows)
        columns, cells = group_table(analysis)
        report = render_html_report(analysis)
        groups = report[report.index("<h2>Groups</h2>"):report.index("</table>")]
        assert re.findall(r"<th(?: [^>]*)?>(.*?)</th>", groups) == [
            name for name, _ in columns
        ]
        assert re.findall(r"<td(?: [^>]*)?>(.*?)</td>", groups) == [
            text for row in cells for text in row
        ]
        assert '<td class="bad">1</td>' in groups
        # The text table holds the same cells, padded.
        text = analysis_table(analysis).splitlines()
        assert [line.split() for line in text[2:4]] == cells
        assert cells[0][8:11] == ["75.0%", "50.0%", "3"]


class TestAnalyzeCli:
    @staticmethod
    def _write_rows(tmp_path, count=4):
        rows = [
            make_row(
                i, {"a": "xy"[i % 2], "b": str(i // 2)},
                final=0.1 * (i + 1), accuracies=[0.1, 0.2],
                delivery_trace=[
                    {"round": 0, "sent": 2, "delivered": 2, "delayed": 0}
                ],
            )
            for i in range(count)
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, rows)
        return path

    def test_table_format(self, capsys, tmp_path):
        path = self._write_rows(tmp_path)
        assert main(["analyze", str(path), "--group-by", "a"]) == 0
        out = capsys.readouterr().out
        assert "a=x" in out and "a=y" in out
        assert "4 cell(s) in 2 group(s)" in out

    def test_json_format(self, capsys, tmp_path):
        path = self._write_rows(tmp_path)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 4
        assert payload["group_by"] == ["a", "b"]

    def test_html_format_with_figures(self, capsys, tmp_path):
        path = self._write_rows(tmp_path)
        report = tmp_path / "report.html"
        figs = tmp_path / "figs"
        code = main([
            "analyze", str(path), "--format", "html",
            "--output", str(report), "--figures", str(figs),
        ])
        assert code == 0
        html = report.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("data:image/svg+xml;base64,") >= 2
        assert sorted(p.suffix for p in figs.iterdir()) == [".svg"] * 4

    def test_missing_file_errors(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_group_by_errors(self, capsys, tmp_path):
        path = self._write_rows(tmp_path)
        assert main(["analyze", str(path), "--group-by", "bogus"]) == 2
        assert "not an axis" in capsys.readouterr().err

    def test_spec_pins_axis_order(self, capsys, tmp_path):
        # A spec whose grid axis order disagrees with sorted-key order.
        spec = {
            "base": {
                "attack": None, "num_byzantine": 0, "num_clients": 4,
                "rounds": 1, "num_samples": 40, "batch_size": 8,
                "mlp_hidden": [8, 4], "seed": 5,
            },
            "axes": {"seed": [1, 2], "heterogeneity": ["uniform"]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rows = [
            make_row(i, {"seed": str(s), "heterogeneity": "uniform"})
            for i, s in enumerate([1, 2])
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, rows)
        assert main([
            "analyze", str(path), "--spec", str(spec_path), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axis_names"] == ["seed", "heterogeneity"]


@pytest.mark.slow
class TestBoundedMemory:
    def test_100k_rows_constant_memory(self, tmp_path):
        """Streaming analysis of a ≥100k-row file stays in bounded memory.

        The file itself is tens of MB; the analysis must hold only the
        per-group accumulators.  tracemalloc measures allocations during
        the pass — the bound (8 MB) is far below the file size and far
        above the accumulator footprint, so it fails loudly on any
        accidental materialisation of the row list.
        """
        path = tmp_path / "big.jsonl"
        count = 100_000
        with path.open("w", encoding="utf-8") as handle:
            for i in range(count):
                row = make_row(
                    i, {"a": "abcd"[i % 4], "b": str(i % 2)},
                    final=(i % 100) / 100.0,
                    accuracies=[(i % 7) / 10.0, (i % 11) / 11.0],
                    delivery_trace=[
                        {"round": 0, "sent": 4, "delivered": 3, "delayed": 1},
                    ],
                )
                handle.write(dump_row(row) + "\n")
        assert path.stat().st_size > 20 * 1024 * 1024

        tracemalloc.start()
        analysis = analyze_sweep_rows(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert analysis.cells == count
        assert len(analysis.groups) == 4  # i%4 and i%2 are correlated
        assert peak < 8 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
