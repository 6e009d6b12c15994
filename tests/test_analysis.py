"""Tests for repro.analysis (trace statistics and reporting)."""

import numpy as np
import pytest

from repro.analysis.reporting import comparison_table
from repro.analysis.streaming import analysis_table, analyze_sweep_rows
from repro.analysis.traces import (
    classify_trace,
    moving_average,
    summarize_history,
)
from repro.learning.history import RoundRecord, TrainingHistory
from repro.sweep.executors import ROW_SCHEMA_VERSION


def make_history(accuracies, aggregation="box-geom"):
    history = TrainingHistory(
        setting="centralized", aggregation=aggregation, attack="sign-flip",
        heterogeneity="mild", num_clients=10, num_byzantine=1,
    )
    for r, acc in enumerate(accuracies):
        history.append(RoundRecord(round_index=r, accuracy=acc, loss=1.0 - acc))
    return history


class TestMovingAverage:
    def test_constant_sequence_unchanged(self):
        assert moving_average([0.5] * 6, window=3) == [0.5] * 6

    def test_length_preserved(self):
        assert len(moving_average([0.1, 0.2, 0.9], window=5)) == 3

    def test_smooths_spike(self):
        smooth = moving_average([0.0, 0.0, 1.0, 0.0, 0.0], window=3)
        assert max(smooth) < 1.0

    def test_window_one_is_identity(self):
        values = [0.1, 0.9, 0.3]
        assert moving_average(values, window=1) == values

    def test_empty(self):
        assert moving_average([], window=3) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([0.1], window=0)


class TestClassifyTrace:
    def test_converging(self):
        trace = list(np.linspace(0.1, 0.9, 30))
        assert classify_trace(trace) == "converging"

    def test_stagnant(self):
        trace = [0.1] * 20
        assert classify_trace(trace) == "stagnant"

    def test_diverging(self):
        trace = list(np.linspace(0.1, 0.7, 15)) + [0.12] * 15
        assert classify_trace(trace) == "diverging"

    def test_unstable(self):
        rng = np.random.default_rng(0)
        trace = (0.5 + 0.3 * np.sin(np.arange(40)) + rng.normal(0, 0.02, 40)).clip(0, 1)
        assert classify_trace(trace.tolist()) in ("unstable", "diverging")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_trace([])


class TestSummaries:
    def test_summarize_history(self):
        history = make_history(list(np.linspace(0.1, 0.8, 20)))
        summary = summarize_history(history)
        assert summary.final == pytest.approx(0.8)
        assert summary.best == pytest.approx(0.8)
        assert summary.classification == "converging"
        assert summary.chance_level == pytest.approx(0.1)
        # Smoothed over the last 5 rounds, well above chance.
        assert summary.smoothed_final == pytest.approx(
            np.linspace(0.1, 0.8, 20)[-5:].mean()
        )

    def test_summarize_empty_rejected(self):
        history = TrainingHistory(
            setting="centralized", aggregation="mean", attack=None,
            heterogeneity="uniform", num_clients=2, num_byzantine=0,
        )
        with pytest.raises(ValueError):
            summarize_history(history)

    def test_comparison_table_classifies_each_rule(self):
        histories = {
            "box-geom": make_history(list(np.linspace(0.1, 0.8, 20))),
            "mean": make_history([0.1] * 20, aggregation="mean"),
        }
        lines = comparison_table(histories).splitlines()
        assert len(lines) == 4
        by_label = {line.split()[0]: line.split() for line in lines[2:]}
        assert by_label["box-geom"][1:3] == ["0.800", "0.800"]
        assert by_label["box-geom"][-1] == "converging"
        assert by_label["mean"][-1] == "stagnant"

    def test_comparison_table_contains_all_labels(self):
        histories = {
            "box-geom": make_history([0.1, 0.5, 0.8]),
            "md-mean": make_history([0.1, 0.1, 0.1], aggregation="md-mean"),
        }
        table = comparison_table(histories)
        assert "box-geom" in table and "md-mean" in table
        assert "verdict" in table


class TestFormatPercent:
    """The shared NaN-aware percent formatter (PR 6 bugfix)."""

    def test_finite(self):
        from repro.analysis.reporting import format_percent

        assert format_percent(0.5) == "  50.0%"
        assert format_percent(1.0) == " 100.0%"
        assert len(format_percent(0.123)) == 7

    def test_nan_and_none_render_dash(self):
        from repro.analysis.reporting import format_percent

        assert format_percent(float("nan")) == "      -"
        # None is what the strict-JSON writer leaves behind for NaN.
        assert format_percent(None) == "      -"
        assert "nan" not in format_percent(float("nan"))


class TestSweepTableNaN:
    """Zero-sent cells render '-' instead of 'nan%' (PR 6 bugfix)."""

    @staticmethod
    def _row(index, worst, sent=0, delivered=0, late=0):
        return {
            "schema": ROW_SCHEMA_VERSION,
            "index": index,
            "cell_id": f"aggregation=rule{index}",
            "axes": {"aggregation": f"rule{index}"},
            "summary": {
                "final_accuracy": 0.5,
                "best_accuracy": 0.6,
                "rounds": 2,
                "network": {"sent": sent, "delivered": delivered},
                "trace": {"rounds": 2, "worst_deliv": worst, "late": late},
            },
        }

    def test_zero_sent_trace_renders_dash(self):
        rows = [
            self._row(0, worst=None),  # zero sent: NaN nulled by writer
            self._row(1, worst=0.75, sent=8, delivered=6),
        ]
        table = analysis_table(analyze_sweep_rows(rows))
        assert "nan" not in table
        lines = table.splitlines()
        # deliv% and wrst% render '-', late 0, no classification.
        assert lines[2].endswith("      -       -      0  -")
        assert "75.0%" in lines[3]

    def test_zero_sent_float_nan_renders_dash(self):
        # In-process rows (no JSON round trip) carry the real NaN.
        table = analysis_table(
            analyze_sweep_rows([self._row(0, worst=float("nan"))])
        )
        assert "nan" not in table
        assert table.splitlines()[2].endswith("      -       -      0  -")


class TestAxisNameRecovery:
    """Axes-mapping-first column recovery (PR 6 bugfix)."""

    @staticmethod
    def _row(axes, cell_id):
        return {
            "schema": ROW_SCHEMA_VERSION,
            "index": 0,
            "cell_id": cell_id,
            "axes": axes,
            "summary": {"final_accuracy": 0.1, "best_accuracy": 0.1,
                        "rounds": 1},
        }

    def test_order_recovered_from_escaped_cell_id(self):
        rows = [self._row({"alpha": "a/b", "beta": "x"}, "beta=x/alpha=a%2Fb")]
        analysis = analyze_sweep_rows(rows)
        # Grid order (beta first) restored from the cell id, not the
        # mapping's sorted order.
        assert analysis.axis_names == ["beta", "alpha"]
        assert analysis_table(analysis).splitlines()[2].startswith(
            "beta=x/alpha=a/b "
        )

    def test_axes_mapping_wins_over_ambiguous_legacy_id(self):
        # A legacy id whose value embeds a raw '/' mis-parses into bogus
        # names; the axes mapping is authoritative.
        rows = [self._row({"alpha": "a/b=c"}, "alpha=a/b=c")]  # pre-escaping id
        analysis = analyze_sweep_rows(rows)
        assert analysis.axis_names == ["alpha"]
        assert analysis_table(analysis).splitlines()[2].startswith("alpha=a/b=c ")

    def test_explicit_axis_names_pin_order(self):
        rows = [self._row({"a": "1", "b": "2"}, "a=1/b=2")]
        analysis = analyze_sweep_rows(rows, axis_names=["b", "a"])
        assert analysis.group_by == ["b", "a"]
        assert analysis_table(analysis).splitlines()[2].startswith("b=2/a=1 ")
