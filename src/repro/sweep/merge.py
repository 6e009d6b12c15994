"""Folding per-shard sweep files into the canonical single-host stream.

A sharded sweep leaves one JSONL file per shard worker, each holding
the rows that worker executed (plus, after resumes and retries, error
rows from failed attempts and stale rows from an older spec).
:func:`merge_shard_rows` rebuilds the exact stream a single-host run
would have produced:

- rows are deduplicated by cell id (a successful row always beats an
  error row; among equals the later file wins, mirroring the runner's
  own fresh-row-wins read-back),
- sorted into grid order by their ``index``, and
- verified for completeness (every grid cell when a spec is supplied;
  contiguous indices otherwise).

Because cells are deterministic and every JSONL writer serialises with
:func:`repro.io.jsonl.dump_row` (sorted keys, non-finite floats nulled),
the merged file is **byte-for-byte identical** to the single-host run —
reporting and ``rows_to_histories`` consume it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.io.jsonl import iter_jsonl, write_jsonl
from repro.sweep.executors import row_matches_grid
from repro.sweep.grid import ScenarioGrid, config_to_dict

PathLike = Union[str, Path]


@dataclass
class MergeReport:
    """What a merge saw: totals for logging and CI assertions."""

    rows_read: int = 0
    cells: int = 0
    failed: int = 0
    duplicates: int = 0
    stale: int = 0
    renumbered: int = 0
    missing: List[str] = field(default_factory=list)


def _better(current: Optional[dict], candidate: dict) -> dict:
    """Pick the surviving row for one cell id (success > error; later wins)."""
    if current is None:
        return candidate
    if ("error" in current) and ("error" not in candidate):
        return candidate
    if ("error" not in current) and ("error" in candidate):
        return current
    return candidate


def merge_shard_rows(
    paths: Sequence[PathLike],
    *,
    grid: Optional[ScenarioGrid] = None,
    require_complete: bool = True,
) -> tuple:
    """Merge shard JSONL files into grid-ordered rows.

    Returns ``(rows, report)``.  With ``grid``, rows are additionally
    vetted the way resume vets them (schema version and configuration
    must match the grid — stale rows from an older spec are dropped) and
    completeness means *every* cell of the grid; without it, rows are
    taken at face value and completeness means contiguous indices —
    which cannot detect a truncated *tail* (missing cells above the
    highest observed index), so pass ``grid`` whenever the spec is
    available.  ``require_complete`` turns missing cells into a
    ``ValueError`` (otherwise they are just listed in the report).

    The winning rows are held in memory until written — the same
    profile as a single-host ``SweepRunner.run()``, which returns every
    row as a list.
    """
    expected: Optional[Dict[str, dict]] = None
    order: Optional[Dict[str, int]] = None
    if grid is not None:
        cells = grid.cells()
        expected = {cell.cell_id: config_to_dict(cell.config) for cell in cells}
        order = {cell.cell_id: cell.index for cell in cells}

    report = MergeReport()
    merged: Dict[str, dict] = {}
    for path in paths:
        for row in iter_jsonl(path):
            report.rows_read += 1
            cell_id = row.get("cell_id")
            if not isinstance(cell_id, str) or not isinstance(row.get("index"), int):
                report.stale += 1
                continue
            if expected is not None and not row_matches_grid(row, expected):
                report.stale += 1
                continue
            if cell_id in merged:
                report.duplicates += 1
            merged[cell_id] = _better(merged.get(cell_id), row)

    if order is not None:
        # Stamp the *grid's* enumeration over the rows' embedded
        # indices: reordering values within an axis keeps every cell id
        # and config — so old rows pass vetting — but renumbers the
        # cells.  Normalising here keeps the merged file byte-identical
        # to a fresh single-host run of the edited spec.
        for cell_id, row in list(merged.items()):
            if row["index"] != order[cell_id]:
                merged[cell_id] = dict(row, index=order[cell_id])
                report.renumbered += 1
    rows = sorted(merged.values(), key=lambda row: row["index"])
    report.cells = len(rows)
    report.failed = sum(1 for row in rows if "error" in row)
    if require_complete and not rows and order is None:
        # Without a grid an empty merge would vacuously satisfy the
        # contiguity check — but zero rows is never a complete sweep.
        raise ValueError(
            f"merged zero rows from {len(paths)} shard file(s); pass a "
            f"spec to verify completeness or allow_incomplete to accept"
        )
    if order is not None:
        report.missing = sorted(
            set(order) - set(merged), key=lambda cell_id: order[cell_id]
        )
    else:
        indices = {row["index"] for row in rows}
        report.missing = [
            f"index={i}" for i in range(max(indices, default=-1) + 1)
            if i not in indices
        ]
    if require_complete and report.missing:
        raise ValueError(
            f"merge is missing {len(report.missing)} cell(s): "
            + ", ".join(report.missing[:5])
            + ("..." if len(report.missing) > 5 else "")
        )
    return rows, report


def merge_shards(
    paths: Sequence[PathLike],
    output_path: PathLike,
    *,
    grid: Optional[ScenarioGrid] = None,
    require_complete: bool = True,
) -> MergeReport:
    """Merge shard files and write the canonical grid-order JSONL.

    The output is byte-identical to a single-host run of the same grid
    (same rows, same order, same serialisation).
    """
    rows, report = merge_shard_rows(
        paths, grid=grid, require_complete=require_complete
    )
    write_jsonl(output_path, rows)
    return report


__all__ = ["MergeReport", "merge_shard_rows", "merge_shards"]
