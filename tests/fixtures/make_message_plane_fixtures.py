"""Generate the pinned equivalence fixtures for the batch message plane.

This script was executed at the last pre-refactor commit (per-message
``Message`` objects materialised eagerly by every scheduler's
``_deliver``) to capture bitwise reference outputs for fixed seeds.
``tests/test_message_plane.py`` asserts that the array-backed batch
plane reproduces these numbers exactly — floats survive a JSON round
trip losslessly (``repr`` shortest-round-trip), so ``==`` on the loaded
values is a bitwise comparison, and the sweep rows are compared as
serialised byte strings.

The cells deliberately cover every scheduler and the delivery edge
cases the refactor could disturb: crash windows, drops, pinned
adversarial delays (selective-delay), trace-reading adaptive attacks
(adaptive-delay), bursty asynchrony, and both trainers.

Re-running this script on a post-refactor tree only re-pins the current
behaviour; the authoritative provenance is the commit recorded below.

    PYTHONPATH=src python tests/fixtures/make_message_plane_fixtures.py
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.byzantine.registry import make_attack
from repro.engine import make_scheduler
from repro.io.results import history_to_dict
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.sweep import ScenarioGrid, SweepRunner

HISTORY_PATH = Path(__file__).with_name("message_plane_pre_refactor.json")
ROWS_PATH = Path(__file__).with_name("sweep_rows_pre_message_plane.jsonl")


def base_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="uniform",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=5,
        num_byzantine=1,
        rounds=2,
        num_samples=60,
        batch_size=8,
        learning_rate=0.05,
        mlp_hidden=(8, 4),
        seed=5,
    )
    return base.with_overrides(**overrides)


def experiment_cases() -> dict:
    """One experiment per scheduler x trainer x delivery edge case."""
    return {
        "synchronous/centralized/sign-flip": base_config(),
        "lossy/centralized/crash-drop": base_config(
            scheduler="lossy", drop_rate=0.15, crash_schedule=((1, 1, 3),),
        ),
        "lossy/decentralized/drop": base_config(
            setting="decentralized", scheduler="lossy", drop_rate=0.1,
        ),
        "partial/decentralized/selective-delay": base_config(
            setting="decentralized", scheduler="partial", delay=2,
            attack="selective-delay",
        ),
        "asynchronous/decentralized/adaptive-delay": base_config(
            setting="decentralized", scheduler="asynchronous",
            wait_timeout=2.0, burstiness=0.3, attack="adaptive-delay",
        ),
        "asynchronous/centralized/sign-flip": base_config(
            scheduler="asynchronous", wait_timeout=1.5,
        ),
    }


def agreement_engines() -> dict:
    """Raw agreement exchanges: scheduler name -> (engine factory, attack)."""
    return {
        "synchronous": (
            lambda: make_scheduler("synchronous", 7, (6,)),
            "sign-flip",
        ),
        "partial": (
            lambda: make_scheduler("partial", 7, (6,), delay=2, seed=11),
            "selective-delay",
        ),
        "lossy": (
            lambda: make_scheduler(
                "lossy", 7, (6,), drop_rate=0.2,
                crash_schedule=((1, 1, 3),), seed=11,
            ),
            "sign-flip",
        ),
        "asynchronous": (
            lambda: make_scheduler(
                "asynchronous", 7, (6,), wait_timeout=2.0,
                burstiness=0.4, seed=11,
            ),
            "adaptive-delay",
        ),
    }


def agreement_traces() -> dict:
    """Agreement protocol outputs + engine counters per scheduler."""
    out = {}
    for label, (engine_factory, attack_name) in agreement_engines().items():
        rng = np.random.default_rng(42)
        inputs = rng.normal(size=(6, 4))
        engine = engine_factory()
        algorithm = make_algorithm("box-geom", 7, 1)
        protocol = AgreementProtocol(
            algorithm, byzantine=(6,), attack=make_attack(attack_name),
            seed=7, engine=engine,
        )
        result = protocol.run(inputs, rounds=3)
        out[label] = {
            "final_matrix": result.final_matrix().tolist(),
            "diameter_trace": result.diameter_trace(),
            "stats": engine.stats_snapshot(),
            "trace": engine.trace_snapshot(),
        }
    return out


def sweep_grids() -> list:
    """Mini-grids covering every non-synchronous scheduler's row layout."""
    return [
        ScenarioGrid(
            base_config(
                scheduler="lossy", drop_rate=0.2, crash_schedule=((0, 1, 2),),
            ),
            {"aggregation": ["mean", "krum"]},
        ),
        ScenarioGrid(
            base_config(scheduler="partial", delay=2),
            {"attack": ["sign-flip", "selective-delay"]},
        ),
        ScenarioGrid(
            base_config(scheduler="asynchronous", wait_timeout=1.5),
            {"burstiness": [0.0, 0.4]},
        ),
    ]


def sweep_row_lines() -> list:
    """Serialised sweep rows, one JSON string per cell, in grid order."""
    lines = []
    for grid in sweep_grids():
        for row in SweepRunner(grid).run():
            lines.append(json.dumps(row, sort_keys=True))
    return lines


def main() -> None:
    payload = {
        "generated_at_commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[2],
        ).stdout.strip(),
        "histories": {
            label: history_to_dict(run_experiment(config))
            for label, config in experiment_cases().items()
        },
        "agreement": agreement_traces(),
    }
    HISTORY_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HISTORY_PATH}")
    ROWS_PATH.write_text("".join(line + "\n" for line in sweep_row_lines()))
    print(f"wrote {ROWS_PATH}")


if __name__ == "__main__":
    main()
