"""Tests for the pluggable sweep execution backends (repro.sweep.executors),
shard merging (repro.sweep.merge) and the error-row / resume semantics."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.learning.experiment import ExperimentConfig
from repro.sweep import (
    ERROR_ROW_SCHEMA_VERSION,
    ROW_SCHEMA_VERSION,
    LeaseStore,
    ProcessPoolBackend,
    ScenarioGrid,
    SerialBackend,
    ShardBackend,
    SweepRunner,
    assign_shard,
    config_to_dict,
    execute_payload,
    failed_rows,
    grid_fingerprint,
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
        shard = make_backend("shard", shard_index=1, shard_count=3)
        assert isinstance(shard, ShardBackend) and not shard.exhaustive
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("bogus")

    def test_shard_backend_needs_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one mode"):
            ShardBackend()
        with pytest.raises(ValueError, match="exactly one mode"):
            ShardBackend(shard_index=0, shard_count=2, lease_dir="/tmp/x")
        with pytest.raises(ValueError, match="both shard_index and shard_count"):
            ShardBackend(shard_index=0)
        with pytest.raises(ValueError, match="shard_index must be in"):
            ShardBackend(shard_index=2, shard_count=2)

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

    @pytest.mark.slow
    def test_serial_backend_matches_fixture(self, tmp_path):
        out = tmp_path / "serial.jsonl"
        SweepRunner(tiny_grid(), backend=SerialBackend(), output_path=out).run()
        assert out.read_bytes() == FIXTURE.read_bytes()

    @pytest.mark.slow
    def test_process_pool_backend_matches_fixture(self, tmp_path):
        out = tmp_path / "pool.jsonl"
        SweepRunner(
            tiny_grid(), backend=ProcessPoolBackend(2), output_path=out
        ).run()
        assert out.read_bytes() == FIXTURE.read_bytes()

    @pytest.mark.slow
    def test_two_static_shards_merge_to_fixture(self, tmp_path):
        grid = tiny_grid()
        shards = []
        for index in range(2):
            out = tmp_path / f"shard{index}.jsonl"
            backend = ShardBackend(shard_index=index, shard_count=2)
            rows = SweepRunner(grid, backend=backend, output_path=out).run()
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
        runner = SweepRunner(grid, max_retries=2)
        rows = runner.run()
        failures = failed_rows(rows)
        assert failures[0]["error"]["attempts"] == 3
        assert runner.backend.stats() == {
            "executed": len(grid), "failed": 1, "skipped": 0,
        }

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


class TestLeaseStore:
    def test_two_claimants_one_winner(self, tmp_path):
        a = LeaseStore(tmp_path / "leases", owner="a", timeout=60)
        b = LeaseStore(tmp_path / "leases", owner="b", timeout=60)
        assert a.claim("heterogeneity=mild/aggregation=krum") is True
        assert b.claim("heterogeneity=mild/aggregation=krum") is False
        assert a.lease_owner("heterogeneity=mild/aggregation=krum") == "a"

    def test_fresh_lease_not_reclaimable(self, tmp_path):
        a = LeaseStore(tmp_path / "leases", owner="a", timeout=60)
        b = LeaseStore(tmp_path / "leases", owner="b", timeout=60)
        assert a.claim("cell") and not b.claim("cell")
        assert not b.is_stale("cell")

    def test_stale_lease_reclaimed(self, tmp_path):
        a = LeaseStore(tmp_path / "leases", owner="a", timeout=5)
        b = LeaseStore(tmp_path / "leases", owner="b", timeout=5)
        assert a.claim("cell")
        stale = time.time() - 100
        os.utime(a.lease_path("cell"), (stale, stale))
        assert b.is_stale("cell")
        assert b.claim("cell") is True
        assert b.lease_owner("cell") == "b"

    def test_future_mtime_lease_still_reclaimed_by_observation(self, tmp_path):
        # A skewed writer can stamp lease mtimes in the future, making
        # mtime age negative forever; the local observation clock must
        # still reclaim within ~timeout of first sighting.
        a = LeaseStore(tmp_path / "leases", owner="a", timeout=0.05)
        b = LeaseStore(tmp_path / "leases", owner="b", timeout=0.05)
        assert a.claim("cell")
        future = time.time() + 3600
        os.utime(a.lease_path("cell"), (future, future))
        assert not b.is_stale("cell")  # first sighting starts the clock
        time.sleep(0.1)
        assert b.is_stale("cell")
        assert b.claim("cell") is True

    def test_dead_local_owner_reclaimed_immediately(self, tmp_path):
        # A restarted worker must not sit out the timeout waiting for
        # its own crashed predecessor's lease.
        import multiprocessing
        import socket

        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()  # pid is now provably dead on this host
        dead = LeaseStore(
            tmp_path / "leases",
            owner=f"{socket.gethostname()}:{proc.pid}:0",
            timeout=3600,
        )
        assert dead.claim("cell")
        survivor = LeaseStore(tmp_path / "leases", owner="survivor", timeout=3600)
        assert survivor.claim("cell") is True  # no timeout wait
        assert survivor.lease_owner("cell") == "survivor"

    def test_done_blocks_and_error_done_reclaims_after_age_gate(self, tmp_path):
        a = LeaseStore(tmp_path / "leases", owner="a", timeout=60)
        b = LeaseStore(tmp_path / "leases", owner="b", timeout=60)
        assert a.claim("cell")
        a.mark_done("cell", ok=True)
        assert b.claim("cell") is False  # completed: never re-run
        assert a.claim("other")
        a.mark_done("other", ok=False)  # failed: retryable, but...
        # ...not by peers of the same run — otherwise every live worker
        # would re-run a deterministically broken cell, multiplying
        # max_retries by the fleet size.
        assert b.claim("other") is False
        # A store created *after* the failure (an operator re-running
        # the command post-fix) retries immediately, no timeout wait.
        c = LeaseStore(tmp_path / "leases", owner="c", timeout=60)
        assert c.claim("other") is True
        assert not c.is_done("other")  # retry cleared the marker
        # The aged path also reopens the cell for same-run peers.
        c.mark_done("other", ok=False)
        stale = time.time() - 100
        os.utime(c.done_path("other"), (stale, stale))
        os.utime(c.lease_path("other"), (stale, stale))
        assert b.claim("other") is True

    def test_cell_ids_map_to_safe_distinct_files(self, tmp_path):
        store = LeaseStore(tmp_path / "leases", owner="a", timeout=60)
        ids = ["a/b=1", "a/b=2", "a_b=1", "long/" * 40 + "tail"]
        paths = {store.lease_path(cell_id) for cell_id in ids}
        assert len(paths) == len(ids)  # digest suffix prevents collisions
        for path in paths:
            assert path.parent == store.root  # no nested directories

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="timeout"):
            LeaseStore(tmp_path, owner="a", timeout=0)

    def test_default_owner_ids_distinct_across_threads(self):
        import threading

        from repro.sweep import default_owner_id

        ids = [default_owner_id()]
        thread = threading.Thread(target=lambda: ids.append(default_owner_id()))
        thread.start()
        thread.join()
        # Two same-process lease workers (threads) must never treat
        # each other's live leases as "already ours".
        assert len(set(ids)) == 2


class TestShardExecution:
    def test_static_shards_partition_payloads(self, fast_cells, tmp_path):
        grid = tiny_grid()
        files = []
        for index in range(3):
            out = tmp_path / f"s{index}.jsonl"
            backend = ShardBackend(shard_index=index, shard_count=3)
            rows = SweepRunner(grid, backend=backend, output_path=out).run()
            stats = backend.stats()
            assert stats["executed"] == len(rows)
            assert stats["executed"] + stats["skipped"] == len(grid)
            files.append(out)
        merged, report = merge_shard_rows(files, grid=grid)
        assert [row["cell_id"] for row in merged] == [
            c.cell_id for c in grid.cells()
        ]
        assert report.duplicates == 0

    def test_lease_workers_split_cells_without_overlap(self, fast_cells, tmp_path):
        grid = tiny_grid()
        lease_dir = tmp_path / "leases"
        first = SweepRunner(
            grid,
            backend=ShardBackend(lease_dir=lease_dir, owner="w0", lease_timeout=60),
            output_path=tmp_path / "w0.jsonl",
        ).run()
        second = SweepRunner(
            grid,
            backend=ShardBackend(lease_dir=lease_dir, owner="w1", lease_timeout=60),
            output_path=tmp_path / "w1.jsonl",
        ).run()
        # Sequential workers: the first claims everything, the second
        # sees only done markers — and still leaves a mergeable file.
        assert len(first) == len(grid) and second == []
        assert (tmp_path / "w1.jsonl").exists()
        rows, report = merge_shard_rows(
            [tmp_path / "w0.jsonl", tmp_path / "w1.jsonl"], grid=grid
        )
        assert len(rows) == len(grid) and report.duplicates == 0

    def test_lease_mode_rejects_no_resume(self, fast_cells, tmp_path):
        # A local "re-run everything" cannot be honoured when completion
        # state lives in the shared lease dir: fail loudly, not silently
        # with an empty output file.
        runner = SweepRunner(
            tiny_grid(),
            backend=ShardBackend(lease_dir=tmp_path / "leases", owner="w"),
            output_path=tmp_path / "w.jsonl",
            resume=False,
        )
        with pytest.raises(ValueError, match="lease"):
            runner.run()
        # Static shards keep the historical no-resume behaviour.
        rows = SweepRunner(
            tiny_grid(),
            backend=ShardBackend(shard_index=0, shard_count=2),
            output_path=tmp_path / "s.jsonl",
            resume=False,
        ).run()
        assert rows

    def test_lease_mode_requires_output_path(self, fast_cells, tmp_path):
        # Done markers promise the fleet the row is durable somewhere;
        # without an output file it would be durable nowhere.
        runner = SweepRunner(
            tiny_grid(),
            backend=ShardBackend(lease_dir=tmp_path / "leases", owner="w"),
        )
        with pytest.raises(ValueError, match="output path"):
            runner.run()
        assert not any((tmp_path / "leases").glob("*.done"))

    def test_spec_change_invalidates_lease_state(self, fast_cells, tmp_path):
        # Done markers are namespaced by the grid fingerprint: a reused
        # lease dir must never satisfy a revised spec with old markers.
        lease_dir = tmp_path / "leases"
        SweepRunner(
            tiny_grid(),
            backend=ShardBackend(lease_dir=lease_dir, owner="w0", lease_timeout=60),
            output_path=tmp_path / "w0.jsonl",
        ).run()
        revised = ScenarioGrid(
            tiny_config(rounds=2),  # base config changed, same cell ids
            {"heterogeneity": ["uniform", "extreme"],
             "aggregation": ["mean", "krum"]},
        )
        backend = ShardBackend(lease_dir=lease_dir, owner="w1", lease_timeout=60)
        rows = SweepRunner(
            revised, backend=backend, output_path=tmp_path / "w1.jsonl"
        ).run()
        assert backend.stats()["executed"] == len(revised)  # nothing skipped
        assert len(rows) == len(revised)

    def test_resume_reannounces_done_markers(self, fast_cells, tmp_path):
        # Crash between the JSONL append and mark_done: the row is
        # durable but the fleet can't see it.  A restarted worker must
        # restore the marker from its resume set instead of leaving
        # peers to wait out the lease timeout and re-run the cell.
        grid = tiny_grid()
        lease_dir = tmp_path / "leases"
        out = tmp_path / "w.jsonl"
        SweepRunner(
            grid,
            backend=ShardBackend(lease_dir=lease_dir, owner="w0", lease_timeout=60),
            output_path=out,
        ).run()
        victim = grid.cells()[0].cell_id
        store = LeaseStore(
            lease_dir, owner="x", timeout=60,
            namespace=grid_fingerprint(grid.cells()),
        )
        store.done_path(victim).unlink()  # the marker the crash lost

        backend = ShardBackend(lease_dir=lease_dir, owner="w0b", lease_timeout=60)
        SweepRunner(grid, backend=backend, output_path=out).run()
        assert backend.stats()["executed"] == 0  # nothing re-ran
        assert store.done_ok(victim) is True  # marker restored

    def test_runner_calls_backend_close(self, fast_cells):
        closed = []

        class Recording(SerialBackend):
            def close(self):
                closed.append(True)

        SweepRunner(tiny_grid(), backend=Recording()).run()
        assert closed == [True]

    def test_crashed_worker_cells_are_reclaimed(self, fast_cells, tmp_path):
        grid = tiny_grid()
        lease_dir = tmp_path / "leases"
        victim = grid.cells()[0].cell_id
        # A dead worker left a lease (no done marker) long ago.
        dead = LeaseStore(
            lease_dir, owner="dead", timeout=1,
            namespace=grid_fingerprint(grid.cells()),
        )
        assert dead.claim(victim)
        stale = time.time() - 100
        os.utime(dead.lease_path(victim), (stale, stale))

        backend = ShardBackend(
            lease_dir=lease_dir, owner="alive", lease_timeout=1, poll_interval=0.01
        )
        rows = SweepRunner(
            grid, backend=backend, output_path=tmp_path / "alive.jsonl"
        ).run()
        assert len(rows) == len(grid)  # the stale cell was reclaimed too
        assert dead.lease_owner(victim) == "alive"


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
        # ...and a valid one stays side-effect free: no lease dir yet.
        lease_dir = tmp_path / "leases"
        code = main(["sweep", "run", spec, "--dry-run",
                     "--lease-dir", str(lease_dir),
                     "--output", str(tmp_path / "w.jsonl")])
        assert code == 0
        assert not lease_dir.exists()

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
        spec = self._write_spec(tmp_path)
        single = tmp_path / "single.jsonl"
        assert main(["sweep", "run", str(spec), "--output", str(single),
                     "--quiet"]) == 0
        for index in range(2):
            code = main([
                "sweep", "run", str(spec), "--backend", "shard",
                "--shard", f"{index}/2", "--quiet",
                "--output", str(tmp_path / f"shard{index}.jsonl"),
            ])
            assert code == 0
        merged = tmp_path / "merged.jsonl"
        code = main(["sweep", "merge",
                     str(tmp_path / "shard0.jsonl"), str(tmp_path / "shard1.jsonl"),
                     "--output", str(merged), "--spec", str(spec)])
        assert code == 0
        assert merged.read_bytes() == single.read_bytes()
        assert "merged 2 cell(s)" in capsys.readouterr().out

    def test_lease_dir_flag(self, fast_cells, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        code = main([
            "sweep", "run", str(spec), "--lease-dir", str(tmp_path / "leases"),
            "--lease-timeout", "60", "--quiet",
            "--output", str(tmp_path / "w0.jsonl"),
        ])
        assert code == 0
        assert len(read_jsonl(tmp_path / "w0.jsonl")) == 2

    def test_shard_flag_validation(self, fast_cells, capsys, tmp_path):
        spec = str(self._write_spec(tmp_path))
        assert main(["sweep", "run", spec, "--backend", "serial",
                     "--shard", "0/2"]) == 2
        assert "require --backend shard" in capsys.readouterr().err
        assert main(["sweep", "run", spec, "--shard", "nope"]) == 2
        assert "i/M" in capsys.readouterr().err
        assert main(["sweep", "run", spec, "--backend", "shard"]) == 2
        assert "needs --shard" in capsys.readouterr().err
        assert main(["sweep", "run", spec, "--shard", "0/2",
                     "--lease-dir", str(tmp_path)]) == 2
        assert "exclusive" in capsys.readouterr().err
        # Per-host pools are not a thing for shard workers: say so
        # instead of silently running serially.
        assert main(["sweep", "run", spec, "--shard", "0/2",
                     "--workers", "4"]) == 2
        assert "launch more shard workers" in capsys.readouterr().err
        # An explicit serial backend with a pool request is the same
        # kind of silent-serial trap.
        assert main(["sweep", "run", spec, "--backend", "serial",
                     "--workers", "4"]) == 2
        assert "process backend" in capsys.readouterr().err
        # ...and so is a lease knob without lease mode.
        assert main(["sweep", "run", spec, "--lease-timeout", "60"]) == 2
        assert "--lease-dir" in capsys.readouterr().err

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
            ({"lease_timeout": "soon"}, '"lease_timeout" must be a number'),
            ({"backend": "bogus"}, '"backend" must be one of'),
        ):
            spec = self._write_spec(tmp_path, extra={"execution": execution})
            assert main(["sweep", "run", str(spec)]) == 2
            assert fragment in capsys.readouterr().err

    def test_cli_lease_without_output_fails_loudly(
        self, fast_cells, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        code = main(["sweep", "run", str(spec),
                     "--lease-dir", str(tmp_path / "leases")])
        assert code == 2
        assert "output path" in capsys.readouterr().err

    def test_shard_flags_override_spec_backend_default(
        self, fast_cells, capsys, tmp_path
    ):
        # The same spec serves every worker: a spec-level single-host
        # backend default must not block host-specific --shard flags.
        spec = self._write_spec(
            tmp_path, extra={"execution": {"backend": "process", "workers": 2}}
        )
        out_path = tmp_path / "shard0.jsonl"
        code = main(["sweep", "run", str(spec), "--shard", "0/2",
                     "--output", str(out_path), "--quiet"])
        assert code == 0
        assert "other shards" in capsys.readouterr().out
        assert len(read_jsonl(out_path)) == 1

    def test_no_resume_with_lease_dir_fails_loudly(
        self, fast_cells, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        code = main(["sweep", "run", str(spec), "--lease-dir",
                     str(tmp_path / "leases"), "--no-resume"])
        assert code == 2
        assert "lease" in capsys.readouterr().err

    def test_shard_progress_shows_rate_without_eta(
        self, fast_cells, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        code = main(["sweep", "run", str(spec), "--shard", "0/2"])
        assert code == 0
        out = capsys.readouterr().out
        # A shard worker cannot know its share up front: rate only.
        assert "cells/s" in out and "eta" not in out

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
