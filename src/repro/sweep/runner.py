"""Batched execution of scenario grids.

:class:`SweepRunner` executes the cells of a :class:`ScenarioGrid` — all
of them, or one static shard's (``shard=(i, M)``) — in-process or on a
process pool (:func:`~repro.sweep.executors.execute_payloads`) and
streams one JSONL row per completed cell.  Three properties make sweeps
safe to run at scale:

- **Determinism** — each cell's experiment is fully determined by its
  configuration (which embeds a per-cell seed), so a sweep produces the
  same rows for any worker count or shard layout.  Rows come back in
  submission order, so the output file is byte-for-byte identical as
  well; shard files are folded back into that same canonical stream by
  ``repro.sweep.merge``.
- **Streaming** — a row is appended and flushed as soon as its cell
  finishes; an interrupt loses at most the cells in flight.
- **Resume** — rows already present in the output file are trusted
  (matched by cell id *and* configuration) and their cells skipped, so
  re-running the same command after an interrupt completes the sweep
  instead of restarting it.  Error rows (cells that raised — see
  ``repro.sweep.executors``) are *not* trusted: failed cells re-run.

Cells sharing their data axes (dataset, sample budget, heterogeneity,
partition seed) reuse one in-process build of the dataset and client
shards (see ``repro.learning.experiment.data_cache_stats``); builds are
pure functions of those axes, so the streamed rows are byte-identical
with the cache hot or cold.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.io.jsonl import (
    append_jsonl,
    iter_jsonl,
    read_jsonl,
    truncate_partial_tail,
    writable_jsonl_path,
)
from repro.io.results import history_from_dict
from repro.learning.history import TrainingHistory
from repro.sweep.executors import (
    ERROR_ROW_SCHEMA_VERSION,
    ROW_SCHEMA_VERSION,
    assign_shard,
    execute_payloads,
    row_matches_grid,
    run_cell,
)
from repro.sweep.grid import ScenarioGrid, SweepCell, config_to_dict
from repro.utils.logging import get_logger

_logger = get_logger("sweep.runner")

PathLike = Union[str, Path]

# Re-exported for backward compatibility: run_cell / ROW_SCHEMA_VERSION
# historically lived here before the executor layer was split out.
__all__ = [
    "ERROR_ROW_SCHEMA_VERSION",
    "ROW_SCHEMA_VERSION",
    "SweepRunner",
    "failed_rows",
    "iter_rows_to_histories",
    "rows_to_histories",
    "run_cell",
]


def iter_rows_to_histories(
    rows: Union[PathLike, Iterable[dict]],
) -> Iterator[Tuple[str, TrainingHistory]]:
    """Lazily reconstruct ``(cell_id, history)`` pairs from sweep rows.

    ``rows`` is either an iterable of row dicts or a path to a sweep
    JSONL file, which is then streamed row by row — a large sweep file
    never needs every decoded history in memory at once.  Skipped: error
    rows, rows without a history, and — with a logged warning, since an
    archived old-schema file would otherwise look mysteriously empty —
    rows from another schema version (resume leaves those on disk next
    to their fresh replacement).  A resumed file can still hold two
    *current* rows for one cell (e.g. a stale-config row from an older
    spec beside its re-run); pairs stream in file order, so the later —
    fresher — one arrives last, matching the runner's fresh-row-wins
    read-back for dict-building consumers.
    """
    if isinstance(rows, (str, Path)):
        rows = iter_jsonl(rows)
    other_schema = 0
    for row in rows:
        if "history" not in row or "error" in row:
            continue
        if row.get("schema") != ROW_SCHEMA_VERSION:
            other_schema += 1
            continue
        yield row["cell_id"], history_from_dict(row["history"])
    if other_schema:
        _logger.warning(
            "skipped %d history row(s) from other schema versions "
            "(current: v%d); re-run the sweep to refresh them",
            other_schema, ROW_SCHEMA_VERSION,
        )


def rows_to_histories(
    rows: Union[PathLike, Iterable[dict]],
) -> Dict[str, TrainingHistory]:
    """Reconstruct the per-cell training histories, keyed by cell id.

    Thin eager wrapper over :func:`iter_rows_to_histories`; prefer the
    iterator for sweep files too large to hold decoded in memory.
    """
    return dict(iter_rows_to_histories(rows))


class SweepRunner:
    """Executes a scenario grid with streaming and resume.

    Parameters
    ----------
    grid:
        The scenario grid to run.
    workers:
        1 (default) runs cells in-process; larger values use a
        ``multiprocessing`` pool of that size.  Either way results are
        consumed in cell order, so the streamed output is identical.
    max_retries:
        How many times a raising cell is re-attempted before an error
        row is emitted in its place.
    output_path:
        Optional JSONL file to stream rows to.  Required for resume.
        A ``.gz`` name is refused: rows stream uncompressed.
    resume:
        When true (default) and ``output_path`` exists, rows whose cell
        id and configuration match the current grid are reused and their
        cells skipped.  Error rows always re-run.
    on_cell:
        Optional callback ``(cell, row, reused)`` fired per completed
        cell — the CLI uses it for progress output.
    shard:
        Optional ``(i, M)``: run only the cells
        :func:`~repro.sweep.executors.assign_shard` maps to shard ``i``
        of ``M``.  The output file then holds only this shard's rows;
        ``repro.sweep.merge`` folds the shard files into the full grid.
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        *,
        workers: int = 1,
        max_retries: int = 0,
        output_path: Optional[PathLike] = None,
        resume: bool = True,
        on_cell: Optional[Callable[[SweepCell, dict, bool], None]] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if shard is not None and not 0 <= shard[0] < shard[1]:
            raise ValueError(f"shard must be (i, M) with 0 <= i < M, got {shard}")
        self.grid = grid
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.output_path = (
            None if output_path is None else writable_jsonl_path(output_path)
        )
        self.resume = bool(resume)
        self.on_cell = on_cell
        self.shard = shard
        #: How many cells the last :meth:`run` actually had to execute
        #: (:meth:`cells` minus resumed rows); published before the first cell
        #: runs so progress callbacks can price only the pending work.
        self.pending_count: Optional[int] = None

    def cells(self) -> List[SweepCell]:
        """The validated cells this runner executes, in grid order.

        The whole grid, or the cells :func:`assign_shard` maps to this
        runner's shard.  Expanding the grid validates every cell's
        configuration either way, so a shard worker fails fast on a spec
        error in any shard.
        """
        cells = self.grid.cells()
        if self.shard is None:
            return cells
        index, count = self.shard
        return [cell for cell in cells if assign_shard(cell.index, count) == index]

    # -- resume bookkeeping --------------------------------------------------
    def completed_rows(
        self, cells: Optional[List[SweepCell]] = None
    ) -> Dict[str, dict]:
        """Rows already present in the output file, keyed by cell id.

        Only rows whose configuration matches the current grid count as
        completed; a row from an older spec with the same cell id is
        ignored (its cell re-runs and the fresh row wins on read-back).
        Error rows never count — their cells re-run on resume.
        ``cells`` optionally supplies :meth:`cells` already computed.
        """
        if not self.resume or self.output_path is None or not self.output_path.exists():
            return {}
        if cells is None:
            cells = self.cells()
        expected = {cell.cell_id: config_to_dict(cell.config) for cell in cells}
        completed: Dict[str, dict] = {}
        for row in read_jsonl(self.output_path):
            if row_matches_grid(row, expected) and "error" not in row:
                completed[row["cell_id"]] = row
        return completed

    # -- execution -----------------------------------------------------------
    def run(self) -> List[dict]:
        """Run every pending cell; return this runner's rows in grid order.

        The rows cover :meth:`cells`: the whole grid, or this runner's
        shard — merge the shard files for the full grid.  Cached and
        fresh rows alike reach ``on_cell`` in grid order, because
        :func:`~repro.sweep.executors.execute_payloads` yields one row per
        pending cell in submission order.
        """
        cells = self.cells()  # fail fast before any cell runs
        completed = self.completed_rows(cells)
        if self.output_path is not None:
            if not self.output_path.exists():
                # Create the stream eagerly so even a shard that owns no
                # cell (more shards than cells) leaves a mergeable,
                # resumable file behind.
                self.output_path.parent.mkdir(parents=True, exist_ok=True)
                self.output_path.touch()
            elif self.resume:
                # An interrupted writer may have left a partial final
                # line; drop those bytes so appended rows start clean.
                truncate_partial_tail(self.output_path)
            else:
                # Resume is off: start the stream fresh instead of
                # appending duplicate rows after the existing ones.
                self.output_path.write_text("")
        pending = [cell for cell in cells if cell.cell_id not in completed]
        self.pending_count = len(pending)
        if completed:
            _logger.info(
                "resuming sweep: %d/%d cells already completed",
                len(completed), len(cells),
            )

        results = execute_payloads(
            [
                {
                    "index": cell.index,
                    "cell_id": cell.cell_id,
                    "axes": cell.axes,
                    "config": config_to_dict(cell.config),
                }
                for cell in pending
            ],
            workers=self.workers,
            max_retries=self.max_retries,
        )
        rows = []
        for cell in cells:
            reused = cell.cell_id in completed
            if reused:
                row = completed[cell.cell_id]
            else:
                row = next(results)
                if self.output_path is not None:
                    append_jsonl(self.output_path, row)
            if self.on_cell is not None:
                self.on_cell(cell, row, reused)
            rows.append(row)
        return rows


def failed_rows(rows: Iterable[dict]) -> List[dict]:
    """The error rows among ``rows`` (cells that kept raising)."""
    return [row for row in rows if "error" in row]
