"""Tests for the scenario-sweep engine (repro.sweep) and JSONL io."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io.jsonl import (
    append_jsonl,
    dump_row,
    read_jsonl,
    truncate_partial_tail,
    write_jsonl,
)
from repro.learning.experiment import ExperimentConfig
from repro.sweep import (
    ROW_SCHEMA_VERSION,
    ScenarioGrid,
    SweepRunner,
    config_from_dict,
    config_to_dict,
    rows_to_histories,
)


def tiny_config(**overrides) -> ExperimentConfig:
    """Smallest config that still exercises the full experiment path."""
    base = ExperimentConfig(
        num_clients=4,
        num_byzantine=1,
        rounds=2,
        num_samples=40,
        batch_size=8,
        learning_rate=0.05,
        mlp_hidden=(8, 4),
        seed=5,
    )
    return base.with_overrides(**overrides)


def tiny_grid() -> ScenarioGrid:
    return ScenarioGrid(
        tiny_config(),
        {"heterogeneity": ["uniform", "extreme"], "aggregation": ["mean", "krum"]},
    )


class TestJsonl:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "rows" / "out.jsonl"
        append_jsonl(path, {"b": 2, "a": 1})
        append_jsonl(path, {"c": [1, 2]})
        assert read_jsonl(path) == [{"a": 1, "b": 2}, {"c": [1, 2]}]
        # Sorted keys make the bytes deterministic.
        assert path.read_text().splitlines()[0] == '{"a": 1, "b": 2}'

    def test_write_jsonl_overwrites(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        write_jsonl(path, [{"b": 2}])
        assert read_jsonl(path) == [{"b": 2}]

    def test_writers_refuse_gz_paths(self, tmp_path):
        # Readers gunzip a .gz path, so plain rows there would be unreadable.
        path = tmp_path / "out.jsonl.gz"
        for write in (lambda: append_jsonl(path, {"a": 1}),
                      lambda: write_jsonl(path, [{"a": 1}])):
            with pytest.raises(ValueError, match="gzip the finished file"):
                write()
        assert not path.exists()

    def test_partial_tail_skipped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"a": 1}\n{"b": 2')  # interrupted final write
        assert read_jsonl(path) == [{"a": 1}]

    def test_parseable_unterminated_tail_also_skipped(self, tmp_path):
        # A prefix of a longer row can itself be valid JSON; without a
        # terminating newline it is still an interrupted write.
        path = tmp_path / "out.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}')
        assert read_jsonl(path) == [{"a": 1}]

    def test_truncate_partial_tail(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert truncate_partial_tail(path) == 0  # missing file
        path.write_text('{"a": 1}\n{"b": 2')
        assert truncate_partial_tail(path) == len('{"b": 2')
        assert path.read_text() == '{"a": 1}\n'
        assert truncate_partial_tail(path) == 0  # already clean
        path.write_text("{partial only")
        truncate_partial_tail(path)
        assert path.read_text() == ""

    def test_invalid_middle_line_raises(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_non_object_row_rejected(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("[1, 2]\n{}\n")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_non_finite_floats_become_null(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_jsonl(path, {"loss": float("nan"), "ratio": float("inf"), "ok": 1.5})
        line = path.read_text().strip()
        assert "NaN" not in line and "Infinity" not in line
        assert read_jsonl(path) == [{"loss": None, "ratio": None, "ok": 1.5}]

    def test_nan_metrics_round_trip_through_history(self):
        from repro.io.results import history_from_dict, history_to_dict
        from repro.learning.history import RoundRecord, TrainingHistory

        history = TrainingHistory(
            setting="centralized", aggregation="mean", attack="magnitude",
            heterogeneity="mild", num_clients=4, num_byzantine=1,
        )
        history.append(RoundRecord(round_index=0, accuracy=0.1, loss=float("nan")))
        payload = json.loads(dump_row(history_to_dict(history)))
        restored = history_from_dict(payload)
        assert np.isnan(restored.records[0].loss)
        assert restored.records[0].accuracy == 0.1


class TestConfigSerialization:
    def test_round_trip(self):
        config = tiny_config(attack=None, aggregation_kwargs={"max_subsets": 5})
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config
        assert isinstance(config_from_dict(data).mlp_hidden, tuple)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig fields"):
            config_from_dict({"not_a_field": 1})


class TestScenarioGrid:
    def test_expansion_size_order_and_ids(self):
        grid = tiny_grid()
        cells = grid.cells()
        assert len(grid) == len(cells) == 4
        assert [c.cell_id for c in cells] == [
            "heterogeneity=uniform/aggregation=mean",
            "heterogeneity=uniform/aggregation=krum",
            "heterogeneity=extreme/aggregation=mean",
            "heterogeneity=extreme/aggregation=krum",
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        for cell in cells:
            assert cell.config.heterogeneity == cell.axes["heterogeneity"]
            assert cell.config.aggregation == cell.axes["aggregation"]

    def test_per_cell_seeds_distinct_and_stable(self):
        first = tiny_grid().cells()
        second = tiny_grid().cells()
        seeds = [c.config.seed for c in first]
        assert len(set(seeds)) == len(seeds)  # decorrelated cells
        assert seeds == [c.config.seed for c in second]  # reproducible
        assert all(c.config.seed != tiny_config().seed for c in first)

    def test_seed_axis_wins_over_derivation(self):
        grid = ScenarioGrid(tiny_config(), {"seed": [1, 2]})
        assert [c.config.seed for c in grid.cells()] == [1, 2]

    def test_derive_seeds_off_keeps_base_seed_for_paired_comparisons(self):
        grid = ScenarioGrid(
            tiny_config(), {"aggregation": ["mean", "krum"]}, derive_seeds=False
        )
        assert [c.config.seed for c in grid.cells()] == [5, 5]
        spec = json.loads(json.dumps(grid.to_spec()))
        assert spec["derive_seeds"] is False
        restored = ScenarioGrid.from_spec(spec)
        assert restored.derive_seeds is False
        assert [c.config.seed for c in restored.cells()] == [5, 5]
        # Default specs stay minimal and keep deriving.
        assert "derive_seeds" not in tiny_grid().to_spec()

    def test_attack_none_axis_value(self):
        grid = ScenarioGrid(tiny_config(), {"attack": [None, "sign-flip"]})
        cells = grid.cells()
        assert cells[0].cell_id == "attack=none"
        assert cells[0].config.attack is None

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="unknown axis"):
            ScenarioGrid(tiny_config(), {"not_a_field": [1]})
        with pytest.raises(ValueError, match="no values"):
            ScenarioGrid(tiny_config(), {"aggregation": []})
        with pytest.raises(ValueError, match="must be a sequence"):
            ScenarioGrid(tiny_config(), {"aggregation": "mean"})
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioGrid(tiny_config(), {"aggregation": ["mean", "mean"]})
        with pytest.raises(ValueError, match="at least one axis"):
            ScenarioGrid(tiny_config(), {})
        with pytest.raises(ValueError, match="must be a sequence"):
            ScenarioGrid(tiny_config(), {"rounds": 5})

    def test_scalar_mlp_hidden_rejected(self):
        with pytest.raises(ValueError, match="mlp_hidden"):
            config_from_dict({"mlp_hidden": 8})

    def test_validate_catches_unknown_names_early(self):
        # ExperimentConfig resolves rule and attack names, so expanding
        # the grid rejects a typo before any cell runs.
        grid = ScenarioGrid(tiny_config(), {"aggregation": ["mean", "bogus-rule"]})
        with pytest.raises(ValueError, match="unknown aggregation 'bogus-rule'"):
            grid.cells()
        grid = ScenarioGrid(tiny_config(), {"attack": ["sign-flip", "bogus-attack"]})
        with pytest.raises(ValueError, match="unknown attack 'bogus-attack'"):
            grid.cells()
        assert len(tiny_grid().cells()) == 4

    def test_validate_catches_invalid_cell_config(self):
        # Valid field name, invalid value: caught at expansion time.
        grid = ScenarioGrid(tiny_config(), {"num_byzantine": [1, 5]})
        with pytest.raises(ValueError, match="num_byzantine"):
            grid.cells()

    @pytest.mark.parametrize("base,axes", [
        ({}, {"aggregation_kwargs": [{}, {"bogus": 1}]}),
        ({}, {"aggregation_kwargs": [{"max_subsets": 0}]}),
        ({}, {"attack_kwargs": [{"bogus": 2}]}),
        ({"setting": "decentralized", "topology": "random-regular",
          "exchange": "gossip", "num_clients": 6, "num_samples": 60},
         {"topology_kwargs": [{"degree": 100}]}),
        ({"setting": "decentralized", "num_clients": 6, "num_samples": 60},
         {"topology": ["complete", "ring"]}),
    ])
    def test_unbuildable_cell_fails_at_expansion(self, tmp_path, capsys, base, axes):
        # The config builds its topology, rule and attack, so bad kwargs
        # or a ring too sparse for the agreement quorum exit 2 before any
        # cell runs or any row is written.
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"base": {**config_to_dict(tiny_config()), **base}, "axes": axes}
        ))
        out = tmp_path / "rows.jsonl"
        assert main(["sweep", "run", str(spec), "--output", str(out), "--quiet"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_spec_round_trip(self):
        grid = tiny_grid()
        spec = json.loads(json.dumps(grid.to_spec()))
        restored = ScenarioGrid.from_spec(spec)
        assert restored.axes == grid.axes
        assert [c.cell_id for c in restored.cells()] == [c.cell_id for c in grid.cells()]
        assert [c.config for c in restored.cells()] == [c.config for c in grid.cells()]

    def test_from_spec_defaults_and_errors(self):
        grid = ScenarioGrid.from_spec({"axes": {"heterogeneity": ["uniform"]}})
        assert grid.base == ExperimentConfig()
        with pytest.raises(ValueError, match="axes"):
            ScenarioGrid.from_spec({"base": {}})
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            ScenarioGrid.from_spec({"axes": {"seed": [1]}, "extra": 1})


class TestSweepRunner:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(tiny_grid(), workers=0)

    def test_same_spec_gives_identical_jsonl(self, tmp_path):
        grid = tiny_grid()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        rows1 = SweepRunner(grid, output_path=first).run()
        rows2 = SweepRunner(grid, output_path=second).run()
        assert first.read_bytes() == second.read_bytes()
        assert rows1 == rows2
        assert all(row["schema"] == ROW_SCHEMA_VERSION for row in rows1)
        histories = rows_to_histories(rows1)
        assert set(histories) == {c.cell_id for c in grid.cells()}
        assert all(h.rounds == 2 for h in histories.values())

    def test_resume_skips_completed_cells(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        baseline = SweepRunner(grid, output_path=path).run()
        original = path.read_bytes()

        # Drop the last row, as an interrupt would.
        lines = original.decode().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")

        executed = []
        runner = SweepRunner(
            grid,
            output_path=path,
            on_cell=lambda cell, row, reused: executed.append((cell.cell_id, reused)),
        )
        assert len(runner.completed_rows()) == len(grid) - 1
        resumed = runner.run()
        assert path.read_bytes() == original
        assert resumed == baseline
        # Exactly one cell re-ran; every other one was reused, and the
        # progress callbacks fired in grid order (cached interleaved).
        fresh = [cell_id for cell_id, reused in executed if not reused]
        assert fresh == [grid.cells()[-1].cell_id]
        assert [cell_id for cell_id, _ in executed] == [
            c.cell_id for c in grid.cells()
        ]

    def test_resume_after_partial_final_line(self, tmp_path):
        """An interrupted write (partial line, no newline) must not glue
        the re-run row onto the partial bytes."""
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        SweepRunner(grid, output_path=path).run()
        original = path.read_bytes()

        # Cut the final row mid-line, as a mid-write interrupt would.
        path.write_bytes(original[:-40])
        resumed = SweepRunner(grid, output_path=path).run()
        assert path.read_bytes() == original
        assert [row["cell_id"] for row in resumed] == [
            c.cell_id for c in grid.cells()
        ]
        # And the repaired file keeps resuming cleanly.
        assert len(SweepRunner(grid, output_path=path).completed_rows()) == len(grid)

    def test_stale_row_with_changed_config_reruns(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        baseline = SweepRunner(grid, output_path=path).run()

        # Rewrite the first row as if it came from a different spec.
        rows = read_jsonl(path)
        rows[0]["config"]["rounds"] = 99
        write_jsonl(path, rows)
        runner = SweepRunner(grid, output_path=path)
        assert len(runner.completed_rows()) == len(grid) - 1
        assert runner.run() == baseline

    def test_no_resume_restarts_stream_without_duplicates(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        SweepRunner(grid, output_path=path).run()
        first = path.read_bytes()
        runner = SweepRunner(grid, output_path=path, resume=False)
        assert runner.completed_rows() == {}
        runner.run()
        # The file is rewritten, not appended: same rows, no duplicates.
        assert path.read_bytes() == first
        assert len(read_jsonl(path)) == len(grid)

    def test_parallel_matches_serial(self, tmp_path):
        grid = tiny_grid()
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        rows1 = SweepRunner(grid, workers=1, output_path=serial).run()
        rows2 = SweepRunner(grid, workers=2, output_path=parallel).run()
        assert serial.read_bytes() == parallel.read_bytes()
        assert rows1 == rows2

    def test_three_axis_sweep_parallel_and_resume(self, tmp_path):
        """Acceptance: 2 heterogeneity x 2 attacks x 2 rules, workers=2."""
        grid = ScenarioGrid(
            tiny_config(rounds=1),
            {
                "heterogeneity": ["uniform", "extreme"],
                "attack": ["sign-flip", "crash"],
                "aggregation": ["krum", "box-mean"],
            },
        )
        assert len(grid) == 8
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        rows1 = SweepRunner(grid, workers=1, output_path=serial).run()
        rows2 = SweepRunner(grid, workers=2, output_path=parallel).run()
        assert rows1 == rows2
        assert serial.read_bytes() == parallel.read_bytes()

        # Resume correctly after deleting the last row.
        original = parallel.read_bytes()
        lines = original.decode().splitlines()
        parallel.write_text("\n".join(lines[:-1]) + "\n")
        resumed = SweepRunner(grid, workers=2, output_path=parallel).run()
        assert resumed == rows1
        assert parallel.read_bytes() == original


class TestResumeEdgeCases:
    """Resume bookkeeping against adversarial on-disk states."""

    def _fabricated_rows(self, grid):
        """Plausible completed rows without running any experiment."""
        return [
            {
                "schema": ROW_SCHEMA_VERSION,
                "index": cell.index,
                "cell_id": cell.cell_id,
                "axes": cell.axes,
                "config": config_to_dict(cell.config),
                "summary": {"final_accuracy": 0.5, "best_accuracy": 0.5,
                            "final_loss": 1.0, "rounds": 2},
                "history": {},
            }
            for cell in grid.cells()
        ]

    def test_valid_json_partial_tail_not_trusted(self, tmp_path):
        # A partial final line whose prefix happens to parse as complete
        # JSON is still an interrupted write: its cell must re-run.
        grid = tiny_grid()
        rows = self._fabricated_rows(grid)
        path = tmp_path / "sweep.jsonl"
        write_jsonl(path, rows[:-1])
        # The tail is a byte-complete row -- but unterminated.
        with path.open("a") as handle:
            handle.write(json.dumps(rows[-1]))
        completed = SweepRunner(grid, output_path=path).completed_rows()
        assert set(completed) == {row["cell_id"] for row in rows[:-1]}

    def test_stale_schema_version_reruns(self, tmp_path):
        grid = tiny_grid()
        rows = self._fabricated_rows(grid)
        rows[1]["schema"] = ROW_SCHEMA_VERSION - 1  # written by an old code version
        path = tmp_path / "sweep.jsonl"
        write_jsonl(path, rows)
        completed = SweepRunner(grid, output_path=path).completed_rows()
        assert set(completed) == {
            row["cell_id"] for i, row in enumerate(rows) if i != 1
        }

    def test_duplicate_cell_id_fresh_row_wins(self, tmp_path):
        # A stale row (older spec, same cell id) next to a fresh one:
        # the matching row wins regardless of file order.
        grid = tiny_grid()
        rows = self._fabricated_rows(grid)
        stale = json.loads(json.dumps(rows[0]))
        stale["config"]["rounds"] = 99
        stale["summary"]["final_accuracy"] = -1.0
        path = tmp_path / "stale_first.jsonl"
        write_jsonl(path, [stale] + rows)
        completed = SweepRunner(grid, output_path=path).completed_rows()
        assert len(completed) == len(grid)
        assert completed[rows[0]["cell_id"]]["summary"]["final_accuracy"] == 0.5

        path = tmp_path / "stale_last.jsonl"
        write_jsonl(path, rows + [stale])
        completed = SweepRunner(grid, output_path=path).completed_rows()
        assert completed[rows[0]["cell_id"]]["summary"]["final_accuracy"] == 0.5

    def test_duplicate_matching_rows_last_wins(self, tmp_path):
        # Two *matching* rows for one cell (e.g. a resume raced a crash):
        # read-back keeps the later one, mirroring append order.
        grid = tiny_grid()
        rows = self._fabricated_rows(grid)
        rewritten = json.loads(json.dumps(rows[0]))
        rewritten["summary"]["final_accuracy"] = 0.75
        path = tmp_path / "sweep.jsonl"
        write_jsonl(path, rows + [rewritten])
        completed = SweepRunner(grid, output_path=path).completed_rows()
        assert completed[rows[0]["cell_id"]]["summary"]["final_accuracy"] == 0.75

    def test_run_repairs_parseable_partial_tail(self, tmp_path):
        """run() after an interrupt that left a *parseable* partial line:
        the affected cell re-runs and the stream converges byte-for-byte."""
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        baseline = SweepRunner(grid, output_path=path).run()
        original = path.read_bytes()

        # Strip the final newline: the last row is now a parseable but
        # unterminated tail, exactly what a mid-flush interrupt leaves.
        path.write_bytes(original[:-1])
        runner = SweepRunner(grid, output_path=path)
        assert len(runner.completed_rows()) == len(grid) - 1
        resumed = runner.run()
        assert resumed == baseline
        assert path.read_bytes() == original

    def test_run_reruns_stale_schema_rows(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "sweep.jsonl"
        baseline = SweepRunner(grid, output_path=path).run()

        rows = read_jsonl(path)
        rows[0]["schema"] = ROW_SCHEMA_VERSION - 1
        write_jsonl(path, rows)
        runner = SweepRunner(grid, output_path=path)
        assert len(runner.completed_rows()) == len(grid) - 1
        # The re-run appends a fresh (current-schema) row after the
        # stale one; read-back resolves the duplicate fresh-row-wins.
        resumed = runner.run()
        assert resumed == baseline
        assert all(row["schema"] == ROW_SCHEMA_VERSION for row in resumed)
        on_disk = read_jsonl(path)
        assert len(on_disk) == len(grid) + 1  # stale row still on disk
        assert len(SweepRunner(grid, output_path=path).completed_rows()) == len(grid)


class TestSweepReporting:
    def test_summary_table_lists_every_cell(self):
        rows = [
            {
                "index": i,
                "axes": {"heterogeneity": het, "aggregation": rule},
                "summary": {"final_accuracy": 0.5, "best_accuracy": 0.6, "rounds": 2},
            }
            for i, (het, rule) in enumerate(
                [("uniform", "mean"), ("extreme", "krum")]
            )
        ]
        from repro.analysis.reporting import sweep_summary_table

        table = sweep_summary_table(rows)
        assert "heterogeneity" in table and "aggregation" in table
        assert "uniform" in table and "krum" in table
        assert "0.500" in table and "0.600" in table
        assert sweep_summary_table([]) == "(no sweep rows)"


class TestCellIdEscaping:
    """Separator escaping keeps every cell id unambiguous (PR 6 bugfix)."""

    def test_escape_round_trip(self):
        from repro.sweep import escape_axis_value, unescape_axis_value

        for text in ("a/b=c", "1/4", "%2F", "%", "plain", "a%3Db", ""):
            escaped = escape_axis_value(text)
            assert "/" not in escaped and "=" not in escaped
            assert unescape_axis_value(escaped) == text

    def test_plain_values_unchanged(self):
        # Ids without separators are byte-identical to the legacy format
        # (pinned fixtures and merge byte-identity depend on this).
        from repro.sweep import escape_axis_value

        assert escape_axis_value("uniform") == "uniform"
        cells = tiny_grid().cells()
        assert [c.cell_id for c in cells] == [
            "heterogeneity=uniform/aggregation=mean",
            "heterogeneity=uniform/aggregation=krum",
            "heterogeneity=extreme/aggregation=mean",
            "heterogeneity=extreme/aggregation=krum",
        ]

    def test_parse_cell_id_inverts_escaped_ids(self):
        from repro.sweep import parse_cell_id

        grid = ScenarioGrid(
            tiny_config(attack=None, num_byzantine=0),
            {
                "heterogeneity": ["uniform"],
                "attack_kwargs": [{"note": "a/b=c"}, {"note": "x%y"}],
            },
        )
        for cell in grid.cells():
            parsed = parse_cell_id(cell.cell_id)
            assert list(parsed) == ["heterogeneity", "attack_kwargs"]
            assert parsed["attack_kwargs"] == str(cell.axes["attack_kwargs"])

    def test_separator_values_yield_distinct_parseable_ids(self):
        grid = ScenarioGrid(
            tiny_config(attack=None, num_byzantine=0),
            {"attack_kwargs": [{"note": "a/b"}, {"note": "a"}, {"note": "b"}]},
        )
        ids = [c.cell_id for c in grid.cells()]
        assert len(set(ids)) == len(ids)
        # The raw separator never leaks: each id still has exactly one
        # name=value pair per axis.
        for cell_id in ids:
            assert cell_id.count("=") == 1 and cell_id.count("/") == 0

    def test_collision_guard_rejects_identically_rendered_values(self):
        # A list window and a tuple window are distinct axis values
        # (distinct reprs) but render identically in the cell id; seeds,
        # resume and merge key on the id, so expansion must refuse.
        grid = ScenarioGrid(
            tiny_config(scheduler="lossy"),
            {"crash_schedule": [[[1, 0, 3]], [(1, 0, 3)]]},
        )
        with pytest.raises(ValueError, match="collision"):
            grid.cells()

    def test_escaped_ids_survive_run_merge_table(self, tmp_path):
        # Round trip: run a grid whose axis values embed the cell-id
        # separators, merge the stream, and render the summary table
        # with the grid's axis order.
        from repro.analysis.reporting import sweep_summary_table
        from repro.sweep import merge_shards

        grid = ScenarioGrid(
            tiny_config(attack=None, num_byzantine=0, rounds=1),
            {"attack_kwargs": [{"note": "a/b=c"}, {"note": "plain"}]},
        )
        path = tmp_path / "rows.jsonl"
        rows = SweepRunner(grid, output_path=path).run()
        assert [row["cell_id"] for row in rows] == [
            c.cell_id for c in grid.cells()
        ]
        merged = tmp_path / "merged.jsonl"
        merge_shards([path], merged, grid=grid)
        assert merged.read_bytes() == path.read_bytes()
        table = sweep_summary_table(
            read_jsonl(merged), axis_names=grid.axis_names()
        )
        assert "{'note': 'a/b=c'}" in table
        # Recovered order (no axis_names) matches, thanks to the
        # escaped-id fallback parse.
        assert sweep_summary_table(read_jsonl(merged)) == table
