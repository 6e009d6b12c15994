"""Pluggable execution backends for scenario sweeps.

:class:`~repro.sweep.runner.SweepRunner` owns the *policy* of a sweep —
expansion, shard selection, resume bookkeeping, streaming, ordering —
and delegates the *mechanics* of running cells to an
:class:`ExecutionBackend`:

- :class:`SerialBackend` — in-process, one cell at a time;
- :class:`ProcessPoolBackend` — a ``multiprocessing`` pool consuming
  results in submission order.

Every backend yields exactly one **row** (the JSONL dict of
:func:`run_cell`) per submitted payload, in submission order — the
contract the byte-identity guarantee rests on.  A static shard is not a
backend: :func:`assign_shard` decides which cells a shard's runner
submits, and ``repro.sweep.merge`` folds the per-shard files back into
the canonical single-host stream.

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

from repro.io.results import history_to_dict
from repro.learning.experiment import run_experiment
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

#: Backend names accepted by :func:`make_backend` and the CLI.
BACKEND_NAMES = ("serial", "process")


def run_cell(payload: dict) -> dict:
    """Execute one grid cell and build its result row.

    Module-level (not a closure) so ``multiprocessing`` can ship it to
    worker processes under any start method.  The row is a pure function
    of the cell's configuration — the property the parallel == serial,
    shard-merge and resume guarantees rest on.
    """
    config = config_from_dict(payload["config"])
    history = run_experiment(config)
    summary = {
        "final_accuracy": history.final_accuracy(),
        "best_accuracy": history.best_accuracy(),
        "final_loss": history.losses()[-1] if history.records else None,
        "rounds": history.rounds,
    }
    if history.network_stats:
        # Non-synchronous cells report their delivery counters next to
        # the accuracies (synchronous cells stay byte-identical to the
        # pre-engine row layout).
        summary["network"] = dict(history.network_stats)
    if history.delivery_trace:
        # Compact per-round reading for the summary table; the full
        # trace rides along in the row's "history".
        from repro.analysis.reporting import delivery_trace_summary

        summary["trace"] = delivery_trace_summary(history.delivery_trace)
    if history.node_stats:
        # Per-node resolution (node_trace cells only): compact worst-node
        # reading in the summary, full per-node counters in "history".
        from repro.analysis.reporting import node_stats_summary

        summary["node"] = node_stats_summary(history.node_stats)
    if config.topology != "complete":
        # Sparse-topology cells carry the graph's shape next to the
        # delivery stats (and, with node_trace on, the per-node delivery
        # counters normalised by each node's closed degree).  Complete
        # cells elide the key entirely — row byte-identity again.
        from repro.analysis.reporting import topology_delivery_summary
        from repro.network.topology import make_topology
        from repro.utils.rng import stable_component_seed

        topology = make_topology(
            config.topology,
            config.num_clients,
            seed=stable_component_seed(config.seed, "topology", config.topology),
            **config.topology_kwargs,
        )
        summary["topology"] = topology_delivery_summary(
            topology, history.node_stats
        )
    return {
        "schema": ROW_SCHEMA_VERSION,
        "index": payload["index"],
        "cell_id": payload["cell_id"],
        "axes": payload["axes"],
        "config": payload["config"],
        "summary": summary,
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

    Success returns :func:`run_cell`'s row unchanged (byte-identical to
    the pre-backend runner).  After ``max_retries`` failed re-attempts
    the cell's exception is converted into an error row, so one bad cell
    cannot kill a worker pool hours into a sweep.  Module-level so
    ``functools.partial(execute_payload, max_retries=...)`` pickles into
    pool workers.
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


class ExecutionBackend:
    """Protocol every sweep execution backend implements.

    ``submit(payloads)`` returns an iterator that yields exactly one row
    per payload, in submission order: the runner walks its cells in
    lockstep with it, which is what makes the streamed file
    byte-identical for every backend and worker count.
    """

    #: Human-readable backend name (CLI ``--backend`` value).
    name = "?"

    def __init__(self, *, max_retries: int = 0) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)

    def submit(self, payloads: Sequence[dict]) -> Iterator[dict]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """Run every cell in-process, one at a time."""

    name = "serial"

    def submit(self, payloads: Sequence[dict]) -> Iterator[dict]:
        for payload in payloads:
            yield execute_payload(payload, self.max_retries)


class ProcessPoolBackend(ExecutionBackend):
    """Run cells on a ``multiprocessing`` pool, consuming results in
    submission order (``imap``), so the streamed output is byte-identical
    to the serial backend for any worker count."""

    name = "process"

    def __init__(self, workers: int, *, max_retries: int = 0) -> None:
        super().__init__(max_retries=max_retries)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)

    def submit(self, payloads: Sequence[dict]) -> Iterator[dict]:
        if len(payloads) <= 1:
            # Not worth a pool; identical rows either way.
            for payload in payloads:
                yield execute_payload(payload, self.max_retries)
            return
        run = partial(execute_payload, max_retries=self.max_retries)
        # imap preserves submission order, so the streamed JSONL matches
        # the serial execution byte for byte even when cells finish out
        # of order.
        with multiprocessing.Pool(processes=min(self.workers, len(payloads))) as pool:
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


def make_backend(
    name: str,
    *,
    workers: int = 1,
    max_retries: int = 0,
) -> ExecutionBackend:
    """Build a backend by CLI name (see :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialBackend(max_retries=max_retries)
    if name == "process":
        return ProcessPoolBackend(workers, max_retries=max_retries)
    raise ValueError(f"unknown backend {name!r}; available: {BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES",
    "ERROR_ROW_SCHEMA_VERSION",
    "ROW_SCHEMA_VERSION",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "assign_shard",
    "build_error_row",
    "execute_payload",
    "make_backend",
    "row_matches_grid",
    "run_cell",
]
