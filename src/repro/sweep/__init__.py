"""Batched scenario sweeps: declarative grids over experiment configs.

``ScenarioGrid`` expands axis specs into experiment configurations with
deterministic per-cell seeds; ``SweepRunner`` executes them — the whole
grid or one static shard of it — in-process or on a process pool
(``repro.sweep.executors``), streaming one JSONL row per cell and
resuming interrupted runs.  ``repro.sweep.merge`` folds per-shard files
back into the canonical single-host stream.  See ``docs/sweeps.md`` for
the spec format and CLI.
"""

from repro.sweep.executors import (
    ERROR_ROW_SCHEMA_VERSION,
    ROW_SCHEMA_VERSION,
    assign_shard,
    execute_payload,
    execute_payloads,
    row_matches_grid,
    run_cell,
)
from repro.sweep.grid import (
    CONFIG_FIELDS,
    ScenarioGrid,
    SweepCell,
    config_from_dict,
    config_to_dict,
    escape_axis_value,
    parse_cell_id,
    unescape_axis_value,
)
from repro.sweep.merge import MergeReport, merge_shard_rows, merge_shards
from repro.sweep.runner import (
    SweepRunner,
    failed_rows,
    iter_rows_to_histories,
    rows_to_histories,
)

__all__ = [
    "CONFIG_FIELDS",
    "ERROR_ROW_SCHEMA_VERSION",
    "MergeReport",
    "ROW_SCHEMA_VERSION",
    "ScenarioGrid",
    "SweepCell",
    "SweepRunner",
    "assign_shard",
    "config_from_dict",
    "config_to_dict",
    "escape_axis_value",
    "execute_payload",
    "execute_payloads",
    "failed_rows",
    "iter_rows_to_histories",
    "merge_shard_rows",
    "merge_shards",
    "parse_cell_id",
    "row_matches_grid",
    "rows_to_histories",
    "run_cell",
    "unescape_axis_value",
]
