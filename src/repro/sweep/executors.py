"""Cell execution for scenario sweeps.

:class:`~repro.sweep.runner.SweepRunner` owns the *policy* of a sweep —
expansion, shard selection, resume bookkeeping, streaming, ordering —
and hands the *mechanics* of running cells to :func:`execute_payloads`:
in-process for one worker, on a ``multiprocessing`` pool otherwise.
Either way it yields exactly one **row** (the JSONL dict of
:func:`run_cell`) per payload, in submission order — the contract the
byte-identity guarantee rests on.  A static shard only filters cells:
:func:`assign_shard` decides which cells a shard's runner submits, and
``repro.sweep.merge`` folds the per-shard files back into the canonical
single-host stream.

A cell that raises does not abort the sweep: :func:`execute_payload`
retries it up to ``max_retries`` times and then emits a schema-versioned
**error row** (``cell_id``, exception, traceback tail) in place of the
result.  Error rows are never trusted by resume, so re-running the same
command after a fix re-runs exactly the failed cells.
"""

from __future__ import annotations

import multiprocessing
import traceback
from functools import partial
from typing import Dict, Iterator, Optional, Sequence

from repro.analysis.reporting import run_summary
from repro.io.results import history_to_dict
from repro.learning.experiment import experiment_topology, run_experiment
from repro.sweep.grid import config_from_dict
from repro.utils.logging import get_logger

_logger = get_logger("sweep.executors")

#: Bumped when the row layout changes incompatibly.
#: v2: corrected delivery accounting (crashed senders are `suppressed`,
#: not `sent`; in-flight messages expire as `expired_at_reset`, not
#: `dropped`; drop RNG decoupled from crash schedules) plus per-round
#: delivery traces (`history.delivery_trace`, `summary.trace`).  Rows
#: written by earlier versions are re-run on resume.
ROW_SCHEMA_VERSION = 2

#: Schema of the ``"error"`` sub-object of an error row.  Versioned
#: independently of the row schema: an error row is a placeholder, not a
#: result, so its layout can evolve without invalidating result rows.
ERROR_ROW_SCHEMA_VERSION = 1

#: How many trailing traceback lines an error row keeps.
TRACEBACK_TAIL_LINES = 10


def run_cell(payload: dict) -> dict:
    """Execute one grid cell and build its result row.

    Module-level (not a closure) so ``multiprocessing`` can ship it to
    worker processes under any start method.  The row is a pure function
    of the cell's configuration — the property the parallel == serial,
    shard-merge and resume guarantees rest on.
    """
    config = config_from_dict(payload["config"])
    history = run_experiment(config)
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": payload["index"],
        "cell_id": payload["cell_id"],
        "axes": payload["axes"],
        "config": payload["config"],
        "summary": run_summary(history, experiment_topology(config)),
        "history": history_to_dict(history),
    }


def row_matches_grid(row: dict, expected: Dict[str, dict]) -> bool:
    """Does a row belong to the grid it is being joined against?

    The single vetting rule shared by resume
    (:meth:`~repro.sweep.runner.SweepRunner.completed_rows`) and
    :func:`repro.sweep.merge.merge_shard_rows`: the row's cell id must
    be a grid cell, its schema the current version, and its embedded
    configuration identical to that cell's (``expected`` maps cell id to
    config dict).  Error rows *do* match — resume additionally rejects
    them (the cell re-runs), merge keeps them as last-resort
    placeholders.
    """
    cell_id = row.get("cell_id")
    return (
        isinstance(cell_id, str)
        and cell_id in expected
        and row.get("schema") == ROW_SCHEMA_VERSION
        and row.get("config") == expected[cell_id]
    )


def build_error_row(payload: dict, exc: BaseException, attempts: int) -> dict:
    """Placeholder row for a cell that kept raising.

    Carries the cell identity and configuration (so the row joins
    against the grid like any other) plus a versioned ``"error"``
    object.  Resume never trusts error rows — the failed cell re-runs on
    the next invocation.
    """
    tail = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail_lines = "".join(tail).rstrip("\n").splitlines()[-TRACEBACK_TAIL_LINES:]
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": payload["index"],
        "cell_id": payload["cell_id"],
        "axes": payload["axes"],
        "config": payload["config"],
        "error": {
            "schema": ERROR_ROW_SCHEMA_VERSION,
            "exception": f"{type(exc).__name__}: {exc}",
            "traceback": tail_lines,
            "attempts": attempts,
        },
    }


def execute_payload(payload: dict, max_retries: int = 0) -> dict:
    """Run one cell, retrying on failure; never raises.

    Success returns :func:`run_cell`'s row unchanged.  After
    ``max_retries`` failed re-attempts the cell's exception is converted
    into an error row, so one bad cell cannot kill a worker pool hours
    into a sweep.  Module-level so ``functools.partial(execute_payload,
    max_retries=...)`` pickles into pool workers.
    """
    last: Optional[BaseException] = None
    attempts = max_retries + 1
    for attempt in range(attempts):
        try:
            return run_cell(payload)
        except Exception as exc:  # noqa: BLE001 - converted into an error row
            last = exc
            _logger.warning(
                "cell %s failed (attempt %d/%d): %s",
                payload["cell_id"], attempt + 1, attempts, exc,
            )
    assert last is not None
    return build_error_row(payload, last, attempts)


def execute_payloads(
    payloads: Sequence[dict], *, workers: int, max_retries: int
) -> Iterator[dict]:
    """Run cells through :func:`execute_payload`; one row per payload.

    ``workers == 1`` runs them in-process, one at a time.  Otherwise a
    ``multiprocessing`` pool of up to ``workers`` processes runs them and
    ``imap`` hands the rows back in submission order, so the streamed
    output is byte-identical for any worker count.
    """
    if workers == 1 or len(payloads) <= 1:
        # A single cell is not worth a pool; identical rows either way.
        for payload in payloads:
            yield execute_payload(payload, max_retries)
        return
    run = partial(execute_payload, max_retries=max_retries)
    with multiprocessing.Pool(processes=min(workers, len(payloads))) as pool:
        yield from pool.imap(run, payloads)


# -- static sharding ---------------------------------------------------------

def assign_shard(index: int, shard_count: int) -> int:
    """Static cell→shard assignment: round-robin by grid index.

    A pure function of the grid expansion, so every worker derives the
    same partition for any shard count without coordination, and the
    shards stay balanced to within one cell.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be positive, got {shard_count}")
    return index % shard_count


__all__ = [
    "ERROR_ROW_SCHEMA_VERSION",
    "ROW_SCHEMA_VERSION",
    "assign_shard",
    "build_error_row",
    "execute_payload",
    "execute_payloads",
    "row_matches_grid",
    "run_cell",
]
