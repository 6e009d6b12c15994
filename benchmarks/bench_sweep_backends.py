"""SWEEP-BACKENDS — cells/sec per way of executing a sweep + byte-identity.

Not a figure of the paper; the smoke benchmark for
:mod:`repro.sweep.executors`.  It drives one small grid in-process
(``workers=1``), on a two-process pool (``workers=2``) and through a
static 2-shard split (both shards run here, then merged), and reports
cells/sec per case, so CI can track the pool's dispatch overhead.
Every case's output is asserted byte-identical to the in-process stream
(after ``repro.sweep.merge`` for the sharded run) — the invariant the
sharded path rests on.

Running it writes a ``BENCH_sweep_backends.json`` artifact:

    PYTHONPATH=src python benchmarks/bench_sweep_backends.py --smoke

or through pytest:

    pytest benchmarks/bench_sweep_backends.py -s
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

try:
    from _harness import build_info, print_report, scaled
except ImportError:  # pragma: no cover - direct script execution
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from _harness import build_info, print_report, scaled

from repro.learning.experiment import ExperimentConfig
from repro.sweep import ScenarioGrid, SweepRunner, merge_shards


def _grid(smoke: bool) -> ScenarioGrid:
    base = ExperimentConfig(
        num_clients=4 if smoke else scaled(6, 10),
        num_byzantine=1,
        rounds=1 if smoke else scaled(3, 10),
        num_samples=40 if smoke else scaled(120, 800),
        batch_size=8,
        learning_rate=0.05,
        mlp_hidden=(8, 4) if smoke else scaled((16, 8), (32, 16)),
        seed=11,
    )
    return ScenarioGrid(
        base,
        {
            "heterogeneity": ["uniform", "extreme"],
            "aggregation": ["mean", "krum"],
        },
    )


def _run_case(label: str, grid: ScenarioGrid, work: "callable") -> Dict[str, object]:
    start = time.perf_counter()
    output = work()
    seconds = time.perf_counter() - start
    return {
        "label": label,
        "cells": len(grid),
        "seconds": seconds,
        "cells_per_sec": len(grid) / seconds if seconds > 0 else float("inf"),
        "bytes": len(output),
    }


def run_trajectory(smoke: bool = False) -> Dict[str, object]:
    grid = _grid(smoke)
    workdir = Path(tempfile.mkdtemp(prefix="bench_sweep_backends_"))
    try:
        def serial() -> bytes:
            out = workdir / "serial.jsonl"
            SweepRunner(grid, workers=1, output_path=out).run()
            return out.read_bytes()

        def pool() -> bytes:
            out = workdir / "pool.jsonl"
            out.unlink(missing_ok=True)
            SweepRunner(grid, workers=2, output_path=out).run()
            return out.read_bytes()

        def static_shards() -> bytes:
            shards = []
            for index in range(2):
                out = workdir / f"static{index}.jsonl"
                out.unlink(missing_ok=True)
                SweepRunner(grid, shard=(index, 2), output_path=out).run()
                shards.append(out)
            merged = workdir / "static_merged.jsonl"
            merge_shards(shards, merged, grid=grid)
            return merged.read_bytes()

        # Warm-up: imports, BLAS init, dataset cache for the serial case.
        SweepRunner(_grid(True), workers=1).run()

        outputs: Dict[str, bytes] = {}

        def timed(label, work):
            row = _run_case(label, grid, lambda: outputs.setdefault(label, work()))
            row["byte_identical"] = outputs[label] == outputs["serial"]
            return row

        cases = [
            timed("serial", serial),
            timed("process(2)", pool),
            timed("shard-static(2)+merge", static_shards),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "benchmark": "sweep_backends",
        "created_unix": time.time(),
        "build": build_info(),
        "smoke": smoke,
        "cells": len(grid),
        "cases": cases,
    }


def render_report(payload: Dict[str, object]) -> str:
    lines = [f"{'case':<24} {'cells':>6} {'seconds':>8} {'cells/s':>8} {'bytes':>8}"]
    for row in payload["cases"]:
        lines.append(
            f"{row['label']:<24} {row['cells']:>6} {row['seconds']:>8.2f} "
            f"{row['cells_per_sec']:>8.2f} {row['bytes']:>8}"
        )
    return "\n".join(lines)


def check_sanity(payload: Dict[str, object]) -> None:
    """Every case produced the same bytes and made progress."""
    assert payload["cases"][0]["label"] == "serial"
    for row in payload["cases"]:
        assert row["cells_per_sec"] > 0, f"{row['label']} made no progress"
        assert row["byte_identical"], (
            f"{row['label']} stream differs from the serial baseline "
            f"(byte-identity broken)"
        )


def write_artifact(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_sweep_backends_throughput():
    """Pytest entry: trajectory + sanity checks + JSON artifact."""
    payload = run_trajectory(smoke=False)
    print_report(
        "SWEEP-BACKENDS",
        "cells/sec per execution case (serial baseline, byte-identity checked)",
        render_report(payload),
    )
    write_artifact(payload, "BENCH_sweep_backends.json")
    check_sanity(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest grid (CI mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_sweep_backends.json",
        help="path of the JSON trajectory artifact",
    )
    args = parser.parse_args(argv)
    payload = run_trajectory(smoke=args.smoke)
    print_report(
        "SWEEP-BACKENDS",
        "cells/sec per execution case (serial baseline, byte-identity checked)",
        render_report(payload),
    )
    write_artifact(payload, args.output)
    print(f"wrote {args.output}")
    check_sanity(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
