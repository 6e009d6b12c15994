"""Tests for the pluggable sweep execution backends (repro.sweep.executors),
shard merging (repro.sweep.merge) and the error-row / resume semantics."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.learning.experiment import ExperimentConfig
from repro.sweep import (
    ERROR_ROW_SCHEMA_VERSION,
    ROW_SCHEMA_VERSION,
    ProcessPoolBackend,
    ScenarioGrid,
    SerialBackend,
    SweepRunner,
    assign_shard,
    config_to_dict,
    execute_payload,
    failed_rows,
    iter_rows_to_histories,
    make_backend,
    merge_shard_rows,
    merge_shards,
    rows_to_histories,
)

FIXTURE = Path(__file__).parent / "fixtures" / "sweep_rows_pre_backends.jsonl"


def tiny_config(**overrides) -> ExperimentConfig:
    """The exact configuration the pinned fixture was generated from."""
    base = ExperimentConfig(
        num_clients=4,
        num_byzantine=1,
        rounds=1,
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


def fake_run_cell(payload: dict) -> dict:
    """Deterministic stand-in for run_cell: no experiment, same row shape."""
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": payload["index"],
        "cell_id": payload["cell_id"],
        "axes": payload["axes"],
        "config": payload["config"],
        "summary": {"final_accuracy": 0.5, "best_accuracy": 0.5,
                    "final_loss": 1.0, "rounds": 1},
        "history": {},
    }


@pytest.fixture
def fast_cells(monkeypatch):
    """Patch the cell executor so backend tests run without experiments."""
    monkeypatch.setattr("repro.sweep.executors.run_cell", fake_run_cell)


class TestAssignShard:
    def test_partition_is_deterministic_for_any_shard_count(self):
        cells = tiny_grid().cells()
        for count in range(1, 6):
            first = [assign_shard(c.index, count) for c in cells]
            second = [assign_shard(c.index, count) for c in tiny_grid().cells()]
            assert first == second  # pure function of the grid
            assert set(first) <= set(range(count))

    def test_partition_covers_and_balances(self):
        cells = tiny_grid().cells()
        for count in (1, 2, 3, 4):
            by_shard = {
                i: [c for c in cells if assign_shard(c.index, count) == i]
                for i in range(count)
            }
            merged = sorted(
                (c.index for group in by_shard.values() for c in group)
            )
            assert merged == [c.index for c in cells]  # disjoint cover
            sizes = [len(group) for group in by_shard.values()]
            assert max(sizes) - min(sizes) <= 1  # balanced round-robin

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            assign_shard(0, 0)


class TestBackendConstruction:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
        for name in ("bogus", "shard"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_runner_shard_validation(self):
        for shard in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(ValueError, match="shard must be"):
                SweepRunner(tiny_grid(), shard=shard)

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(0)
        with pytest.raises(ValueError, match="max_retries"):
            SerialBackend(max_retries=-1)

    def test_runner_backend_defaults(self):
        assert isinstance(SweepRunner(tiny_grid()).backend, SerialBackend)
        assert isinstance(
            SweepRunner(tiny_grid(), workers=2).backend, ProcessPoolBackend
        )
        assert SweepRunner(tiny_grid(), max_retries=3).backend.max_retries == 3


class TestByteIdentityAgainstPinnedFixture:
    """Every backend must reproduce the pinned serial JSONL stream
    exactly.  The fixture was generated at the pre-backend code revision.
    Its rows were rewritten twice, each time only in the ``config``
    block: once to add ``"dtype": "float64"`` when ``ExperimentConfig``
    grew a ``dtype`` field, and once to drop that key again when the
    field was removed.  Every result stayed byte-identical."""

    def test_serial_backend_matches_fixture(self, tmp_path):
        out = tmp_path / "serial.jsonl"
        SweepRunner(tiny_grid(), backend=SerialBackend(), output_path=out).run()
        assert out.read_bytes() == FIXTURE.read_bytes()

    def test_process_pool_backend_matches_fixture(self, tmp_path):
        out = tmp_path / "pool.jsonl"
        SweepRunner(
            tiny_grid(), backend=ProcessPoolBackend(2), output_path=out
        ).run()
        assert out.read_bytes() == FIXTURE.read_bytes()

    def test_two_static_shards_merge_to_fixture(self, tmp_path):
        grid = tiny_grid()
        shards = []
        for index in range(2):
            out = tmp_path / f"shard{index}.jsonl"
            # Shard 1 runs on a pool: a shard only filters the cells.
            rows = SweepRunner(
                grid, shard=(index, 2), workers=1 + index, output_path=out
            ).run()
            assert all(
                assign_shard(row["index"], 2) == index for row in rows
            )
            shards.append(out)
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(shards, merged, grid=grid)
        assert merged.read_bytes() == FIXTURE.read_bytes()
        assert report.cells == len(grid) and not report.missing


class TestErrorRows:
    """A raising cell emits an error row instead of killing the sweep."""

    def _grid(self):
        return tiny_grid()

    def _failing(self, bad_cell_ids, fail_counts=None):
        """fake_run_cell that raises for the given cells.

        ``fail_counts`` (cell_id -> int) makes a cell fail only its
        first N attempts, to exercise retries.
        """
        remaining = dict(fail_counts or {})

        def run(payload):
            cell_id = payload["cell_id"]
            if cell_id in remaining:
                if remaining[cell_id] > 0:
                    remaining[cell_id] -= 1
                    raise RuntimeError(f"flaky {cell_id}")
                return fake_run_cell(payload)
            if cell_id in bad_cell_ids:
                raise ValueError(f"broken {cell_id}")
            return fake_run_cell(payload)

        return run

    def test_failing_cell_does_not_abort_sweep(self, monkeypatch, tmp_path):
        grid = self._grid()
        bad = grid.cells()[1].cell_id
        monkeypatch.setattr(
            "repro.sweep.executors.run_cell", self._failing({bad})
        )
        out = tmp_path / "rows.jsonl"
        rows = SweepRunner(grid, output_path=out).run()
        assert len(rows) == len(grid)  # every cell produced a row
        failures = failed_rows(rows)
        assert [row["cell_id"] for row in failures] == [bad]
        error = failures[0]["error"]
        assert error["schema"] == ERROR_ROW_SCHEMA_VERSION
        assert error["exception"].startswith("ValueError: broken")
        assert error["attempts"] == 1
        assert any("ValueError" in line for line in error["traceback"])
        # The error row is streamed like any other (valid JSONL).
        on_disk = read_jsonl(out)
        assert sum("error" in row for row in on_disk) == 1

    def test_retries_rescue_flaky_cells(self, monkeypatch):
        grid = self._grid()
        flaky = grid.cells()[0].cell_id
        monkeypatch.setattr(
            "repro.sweep.executors.run_cell",
            self._failing(set(), fail_counts={flaky: 2}),
        )
        rows = SweepRunner(grid, max_retries=2).run()
        assert failed_rows(rows) == []

    def test_retries_exhausted_emit_attempt_count(self, monkeypatch):
        grid = self._grid()
        bad = grid.cells()[0].cell_id
        monkeypatch.setattr(
            "repro.sweep.executors.run_cell", self._failing({bad})
        )
        rows = SweepRunner(grid, max_retries=2).run()
        failures = failed_rows(rows)
        assert failures[0]["error"]["attempts"] == 3
        assert len(rows) == len(grid) and len(failures) == 1

    def test_error_rows_not_trusted_by_resume(self, monkeypatch, tmp_path):
        grid = self._grid()
        bad = grid.cells()[2].cell_id
        monkeypatch.setattr(
            "repro.sweep.executors.run_cell", self._failing({bad})
        )
        out = tmp_path / "rows.jsonl"
        SweepRunner(grid, output_path=out).run()

        # After the "fix" only the failed cell re-runs.
        monkeypatch.setattr("repro.sweep.executors.run_cell", fake_run_cell)
        executed = []
        runner = SweepRunner(
            grid,
            output_path=out,
            on_cell=lambda cell, row, reused: executed.append(
                (cell.cell_id, reused)
            ),
        )
        assert len(runner.completed_rows()) == len(grid) - 1
        rows = runner.run()
        assert failed_rows(rows) == []
        fresh = [cell_id for cell_id, reused in executed if not reused]
        assert fresh == [bad]
        # Read-back resolves the duplicate (error row still on disk).
        on_disk = read_jsonl(out)
        assert len(on_disk) == len(grid) + 1
        assert len(SweepRunner(grid, output_path=out).completed_rows()) == len(grid)

    def test_execute_payload_never_raises(self):
        payload = {"index": 0, "cell_id": "x", "axes": {}, "config": {"bogus": 1}}
        row = execute_payload(payload)  # config_from_dict raises inside
        assert "error" in row and row["cell_id"] == "x"


class TestShardExecution:
    def test_static_shards_partition_payloads(self, fast_cells, tmp_path):
        # Five shards over four cells: the last one owns no cell but
        # still leaves a mergeable (empty) file behind.
        grid = tiny_grid()
        files = []
        for index in range(5):
            out = tmp_path / f"s{index}.jsonl"
            rows = SweepRunner(grid, shard=(index, 5), output_path=out).run()
            assert [row["index"] for row in rows] == list(range(index, len(grid), 5))
            files.append(out)
        assert files[-1].read_bytes() == b""
        merged, report = merge_shard_rows(files, grid=grid)
        assert [row["cell_id"] for row in merged] == [
            c.cell_id for c in grid.cells()
        ]
        assert report.duplicates == 0

    def test_shard_no_resume_restarts_its_file(self, fast_cells, tmp_path):
        # resume=False rewrites the shard's file instead of appending
        # duplicate rows after the existing ones.
        out = tmp_path / "s.jsonl"
        SweepRunner(tiny_grid(), shard=(0, 2), output_path=out).run()
        first = out.read_bytes()
        rows = SweepRunner(
            tiny_grid(), shard=(0, 2), output_path=out, resume=False
        ).run()
        assert [row["index"] for row in rows] == [0, 2]
        assert out.read_bytes() == first


def _fabricated_rows(grid):
    """Plausible completed rows without running any experiment."""
    return [fake_run_cell(
        {
            "index": cell.index,
            "cell_id": cell.cell_id,
            "axes": cell.axes,
            "config": config_to_dict(cell.config),
        }
    ) for cell in grid.cells()]


class TestMerge:
    def test_merge_reorders_and_is_byte_identical(self, tmp_path):
        grid = tiny_grid()
        rows = _fabricated_rows(grid)
        single = tmp_path / "single.jsonl"
        write_jsonl(single, rows)
        # Shards hold interleaved, out-of-order subsets.
        write_jsonl(tmp_path / "a.jsonl", [rows[3], rows[0]])
        write_jsonl(tmp_path / "b.jsonl", [rows[2], rows[1]])
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(
            [tmp_path / "a.jsonl", tmp_path / "b.jsonl"], merged, grid=grid
        )
        assert merged.read_bytes() == single.read_bytes()
        assert report.cells == len(grid) and report.failed == 0

    def test_success_beats_error_and_duplicates_collapse(self, tmp_path):
        grid = tiny_grid()
        rows = _fabricated_rows(grid)
        error = {
            "schema": ROW_SCHEMA_VERSION,
            "index": rows[0]["index"],
            "cell_id": rows[0]["cell_id"],
            "axes": rows[0]["axes"],
            "config": rows[0]["config"],
            "error": {"schema": ERROR_ROW_SCHEMA_VERSION,
                      "exception": "ValueError: x", "traceback": [], "attempts": 1},
        }
        # Error row before and after the success: success survives both.
        write_jsonl(tmp_path / "a.jsonl", [error] + rows[:2])
        write_jsonl(tmp_path / "b.jsonl", rows[2:] + [error])
        merged_rows, report = merge_shard_rows(
            [tmp_path / "a.jsonl", tmp_path / "b.jsonl"], grid=grid
        )
        assert [row["cell_id"] for row in merged_rows] == [
            c.cell_id for c in grid.cells()
        ]
        assert report.failed == 0 and report.duplicates == 2

    def test_missing_cells_raise_unless_allowed(self, tmp_path):
        grid = tiny_grid()
        rows = _fabricated_rows(grid)
        write_jsonl(tmp_path / "a.jsonl", rows[:-1])
        with pytest.raises(ValueError, match="missing"):
            merge_shard_rows([tmp_path / "a.jsonl"], grid=grid)
        merged_rows, report = merge_shard_rows(
            [tmp_path / "a.jsonl"], grid=grid, require_complete=False
        )
        assert report.missing == [rows[-1]["cell_id"]]
        assert len(merged_rows) == len(grid) - 1

    def test_gridless_merge_checks_index_contiguity(self, tmp_path):
        grid = tiny_grid()
        rows = _fabricated_rows(grid)
        write_jsonl(tmp_path / "a.jsonl", [rows[0], rows[2], rows[3]])
        with pytest.raises(ValueError, match="missing"):
            merge_shard_rows([tmp_path / "a.jsonl"])

    def test_gridless_merge_of_empty_shards_fails(self, tmp_path):
        # Contiguity is vacuously true over zero rows; an all-empty
        # merge (e.g. a misconfigured fleet's eagerly-touched files)
        # must not pass as a complete sweep.
        (tmp_path / "a.jsonl").touch()
        (tmp_path / "b.jsonl").touch()
        with pytest.raises(ValueError, match="zero rows"):
            merge_shard_rows([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
        rows, report = merge_shard_rows(
            [tmp_path / "a.jsonl"], require_complete=False
        )
        assert rows == [] and report.cells == 0

    def test_axis_value_reorder_renumbers_rows(self, tmp_path):
        # Reordering values within an axis keeps every cell id and
        # config (so old rows pass vetting) but renumbers the cells;
        # the merge must emit the *edited* spec's enumeration.
        grid = tiny_grid()
        write_jsonl(tmp_path / "a.jsonl", _fabricated_rows(grid))
        reordered = ScenarioGrid(
            tiny_config(),
            {"heterogeneity": ["extreme", "uniform"],
             "aggregation": ["krum", "mean"]},
        )
        rows, report = merge_shard_rows([tmp_path / "a.jsonl"], grid=reordered)
        assert report.renumbered == len(grid)  # every cell moved
        expected = {c.cell_id: c.index for c in reordered.cells()}
        assert [row["cell_id"] for row in rows] == [
            c.cell_id for c in reordered.cells()
        ]
        assert all(row["index"] == expected[row["cell_id"]] for row in rows)

    def test_stale_rows_dropped_with_grid(self, tmp_path):
        grid = tiny_grid()
        rows = _fabricated_rows(grid)
        stale = json.loads(json.dumps(rows[0]))
        stale["config"]["rounds"] = 99  # from an older spec
        old_schema = json.loads(json.dumps(rows[1]))
        old_schema["schema"] = ROW_SCHEMA_VERSION - 1
        write_jsonl(tmp_path / "a.jsonl", [stale, old_schema] + rows)
        merged_rows, report = merge_shard_rows([tmp_path / "a.jsonl"], grid=grid)
        assert report.stale == 2
        assert [row["summary"]["rounds"] for row in merged_rows] == [1] * len(grid)


class TestIterRowsToHistories:
    def test_streams_from_path_and_matches_eager(self):
        pairs = list(iter_rows_to_histories(FIXTURE))
        eager = rows_to_histories(read_jsonl(FIXTURE))
        assert dict((k, h.rounds) for k, h in pairs) == {
            k: h.rounds for k, h in eager.items()
        }
        assert len(pairs) == 4

    def test_skips_error_rows(self):
        rows = [
            {"cell_id": "bad", "history": {}, "error": {"exception": "x"}},
        ]
        assert list(iter_rows_to_histories(rows)) == []

    def test_other_schema_rows_skipped_with_warning(self, caplog):
        rows = [
            {"cell_id": "old", "history": {}, "schema": ROW_SCHEMA_VERSION - 1},
        ]
        with caplog.at_level("WARNING", logger="repro.sweep.runner"):
            assert list(iter_rows_to_histories(rows)) == []
        assert "schema" in caplog.text  # an archived file isn't silently empty


class TestCliBackends:
    SPEC = {
        "base": {
            "num_clients": 4, "num_byzantine": 1, "rounds": 1, "num_samples": 40,
            "batch_size": 8, "mlp_hidden": [8, 4], "seed": 5,
        },
        "axes": {"aggregation": ["mean", "krum"]},
    }
    #: Four cells, so a shard of two runs two of them.
    FOUR_CELLS = {
        "axes": {"heterogeneity": ["uniform", "extreme"],
                 "aggregation": ["mean", "krum"]},
    }

    def _write_spec(self, tmp_path, extra=None):
        spec = json.loads(json.dumps(self.SPEC))
        spec.update(extra or {})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        return spec_path

    def test_sweep_without_subcommand_still_runs(self, fast_cells, capsys, tmp_path):
        code = main(["sweep", str(self._write_spec(tmp_path)), "--dry-run"])
        assert code == 0
        assert "2 cells" in capsys.readouterr().out

    def test_sweep_flag_first_still_runs(self, fast_cells, capsys, tmp_path):
        # argparse always allowed optionals before the positional spec.
        code = main(["sweep", "--dry-run", str(self._write_spec(tmp_path))])
        assert code == 0
        assert "2 cells" in capsys.readouterr().out

    def test_dry_run_vets_fleet_flags(self, fast_cells, capsys, tmp_path):
        # A --dry-run pre-flight must not green-light a bad launch line.
        spec = str(self._write_spec(tmp_path))
        assert main(["sweep", "run", spec, "--dry-run", "--shard", "9/2"]) == 2
        assert "--shard index" in capsys.readouterr().err
        # ...and a valid one stays side-effect free: no output file yet.
        code = main(["sweep", "run", spec, "--dry-run", "--shard", "0/2",
                     "--output", str(tmp_path / "w.jsonl")])
        assert code == 0
        assert not (tmp_path / "w.jsonl").exists()

    def test_dry_run_lists_only_the_shards_cells(
        self, fast_cells, capsys, tmp_path
    ):
        spec = str(self._write_spec(tmp_path, extra=self.FOUR_CELLS))
        assert main(["sweep", "run", spec, "--dry-run", "--shard", "1/2"]) == 0
        listed = [line.split("]")[0].strip(" [")
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  [")]
        assert listed == ["1", "3"]

    def test_sweep_run_subcommand(self, fast_cells, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code = main(["sweep", "run", str(self._write_spec(tmp_path)),
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells/s" in out and "eta" in out
        assert len(read_jsonl(out_path)) == 2

    def test_quiet_suppresses_progress(self, fast_cells, capsys, tmp_path):
        code = main(["sweep", "run", str(self._write_spec(tmp_path)), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "done" not in out and "cells/s" not in out
        assert "aggregation" in out  # the summary table still prints

    def test_shard_flags_run_and_merge_byte_identical(
        self, fast_cells, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path, extra=self.FOUR_CELLS)
        single = tmp_path / "single.jsonl"
        assert main(["sweep", "run", str(spec), "--output", str(single),
                     "--quiet"]) == 0
        for index in range(2):
            # Shard 1 runs its two cells on a process pool.
            code = main([
                "sweep", "run", str(spec), "--shard", f"{index}/2",
                "--workers", str(1 + index), "--quiet",
                "--output", str(tmp_path / f"shard{index}.jsonl"),
            ])
            assert code == 0
        merged = tmp_path / "merged.jsonl"
        code = main(["sweep", "merge",
                     str(tmp_path / "shard0.jsonl"), str(tmp_path / "shard1.jsonl"),
                     "--output", str(merged), "--spec", str(spec)])
        assert code == 0
        assert merged.read_bytes() == single.read_bytes()
        assert "merged 4 cell(s)" in capsys.readouterr().out

    def test_shard_flag_validation(self, fast_cells, capsys, tmp_path):
        spec = str(self._write_spec(tmp_path))
        assert main(["sweep", "run", spec, "--shard", "nope"]) == 2
        assert "i/M" in capsys.readouterr().err
        # An explicit serial backend with a pool request would silently
        # run serially: say so instead.
        assert main(["sweep", "run", spec, "--backend", "serial",
                     "--workers", "4"]) == 2
        assert "process backend" in capsys.readouterr().err

    def test_removed_spellings_fail_loudly(self, fast_cells, capsys, tmp_path):
        spec = str(self._write_spec(tmp_path))
        for argv, fragment in (
            (["sweep", "run", spec, "--backend", "shard", "--shard", "0/2"],
             "invalid choice: 'shard'"),
            (["sweep", "run", spec, "--lease-dir", str(tmp_path / "leases")],
             "unrecognized arguments: --lease-dir"),
            (["sweep", "run", spec, "--lease-timeout", "60"],
             "unrecognized arguments: --lease-timeout"),
            (["sweep", "status", "--lease-dir", str(tmp_path / "leases")],
             "unrecognized arguments: --lease-dir"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert fragment in capsys.readouterr().err
        assert main(["sweep", "status"]) == 2
        assert "sweep spec not found: status" in capsys.readouterr().err
        for execution, fragment in (
            ({"lease_timeout": 60}, "unknown execution keys: ['lease_timeout']"),
            ({"backend": "shard"}, '"backend" must be one of'),
        ):
            spec = self._write_spec(tmp_path, extra={"execution": execution})
            assert main(["sweep", "run", str(spec)]) == 2
            assert fragment in capsys.readouterr().err
        assert not (tmp_path / "leases").exists()

    def test_gz_outputs_refused_before_any_write(
        self, fast_cells, capsys, tmp_path
    ):
        # Readers gunzip every .gz path, so plain rows under that name
        # could be neither resumed nor analysed.
        spec = str(self._write_spec(tmp_path))
        rows_gz = tmp_path / "rows.jsonl.gz"
        assert main(["sweep", "run", spec, "--output", str(rows_gz)]) == 2
        assert "gzip the finished file" in capsys.readouterr().err
        assert not rows_gz.exists()
        rows = tmp_path / "rows.jsonl"
        assert main(["sweep", "run", spec, "--output", str(rows),
                     "--quiet"]) == 0
        merged_gz = tmp_path / "merged.jsonl.gz"
        assert main(["sweep", "merge", str(rows), "--output", str(merged_gz)]) == 2
        assert "gzip the finished file" in capsys.readouterr().err
        assert not merged_gz.exists()

    def test_spec_defaults_yield_to_explicit_flags(
        self, fast_cells, capsys, tmp_path
    ):
        # A spec-level workers default must not block an explicit
        # serial run, and JSON null execution values mean "unset".
        spec = self._write_spec(
            tmp_path, extra={"execution": {"workers": 4}}
        )
        assert main(["sweep", "run", str(spec), "--backend", "serial",
                     "--quiet"]) == 0
        null_spec = self._write_spec(
            tmp_path, extra={"execution": {"workers": None, "backend": None}}
        )
        assert main(["sweep", "run", str(null_spec), "--quiet"]) == 0

    def test_execution_spec_section(self, fast_cells, capsys, tmp_path):
        spec = self._write_spec(
            tmp_path, extra={"execution": {"max_retries": 2, "backend": "serial"}}
        )
        assert main(["sweep", "run", str(spec), "--quiet"]) == 0
        bad = self._write_spec(tmp_path, extra={"execution": {"bogus": 1}})
        assert main(["sweep", "run", str(bad)]) == 2
        assert "unknown execution keys" in capsys.readouterr().err

    def test_execution_spec_values_type_checked(self, fast_cells, capsys, tmp_path):
        for execution, fragment in (
            ({"workers": "4"}, '"workers" must be an integer'),
            ({"max_retries": True}, '"max_retries" must be an integer'),
            ({"backend": "bogus"}, '"backend" must be one of'),
        ):
            spec = self._write_spec(tmp_path, extra={"execution": execution})
            assert main(["sweep", "run", str(spec)]) == 2
            assert fragment in capsys.readouterr().err

    def test_shard_flags_override_spec_backend_default(
        self, fast_cells, capsys, tmp_path
    ):
        # The same spec serves every worker: a spec-level backend
        # default runs the cells of a host-specific --shard.
        spec = self._write_spec(
            tmp_path, extra={"execution": {"backend": "process", "workers": 2}}
        )
        out_path = tmp_path / "shard0.jsonl"
        code = main(["sweep", "run", str(spec), "--shard", "0/2",
                     "--output", str(out_path), "--quiet"])
        assert code == 0
        assert "other shards" in capsys.readouterr().out
        assert len(read_jsonl(out_path)) == 1

    def test_shard_progress_shows_rate_and_eta(
        self, fast_cells, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        code = main(["sweep", "run", str(spec), "--shard", "0/2"])
        assert code == 0
        out = capsys.readouterr().out
        # A shard knows its cells up front, so it prices the ETA too.
        assert "cells/s" in out and "eta" in out

    def test_failed_cells_reported_and_exit_nonzero(
        self, monkeypatch, capsys, tmp_path
    ):
        def failing(payload):
            if "krum" in payload["cell_id"]:
                raise RuntimeError("boom")
            return fake_run_cell(payload)

        monkeypatch.setattr("repro.sweep.executors.run_cell", failing)
        out_path = tmp_path / "rows.jsonl"
        code = main(["sweep", "run", str(self._write_spec(tmp_path)),
                     "--output", str(out_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out and "RuntimeError: boom" in out
        assert "FAILED" in out  # summary table marks the cell
        # Merge reports the failure too (and exits non-zero).
        code = main(["sweep", "merge", str(out_path),
                     "--output", str(tmp_path / "merged.jsonl"),
                     "--allow-incomplete"])
        assert code == 1
        assert "error rows" in capsys.readouterr().out

    def test_merge_allow_incomplete_exits_zero(self, fast_cells, capsys, tmp_path):
        # The opt-in flag must not fail the pipeline it exists to enable.
        spec = self._write_spec(tmp_path)
        shard0 = tmp_path / "shard0.jsonl"
        assert main(["sweep", "run", str(spec), "--shard", "0/2",
                     "--output", str(shard0), "--quiet"]) == 0
        out = tmp_path / "partial.jsonl"
        assert main(["sweep", "merge", str(shard0), "--output", str(out),
                     "--spec", str(spec), "--allow-incomplete"]) == 0
        assert "missing" in capsys.readouterr().out
        assert len(read_jsonl(out)) == 1

    def test_merge_missing_shard_file(self, capsys, tmp_path):
        code = main(["sweep", "merge", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "m.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
