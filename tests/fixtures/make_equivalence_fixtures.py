"""Generate the pinned equivalence fixtures for the round-engine refactor.

This script was executed at the last pre-refactor commit (hand-rolled
round loops in ``CentralizedTrainer`` / ``DecentralizedTrainer`` and the
``SynchronousNetwork``-based ``AgreementProtocol``) to capture bitwise
reference outputs for fixed seeds.  ``tests/test_engine_equivalence.py``
asserts that the refactored ``SynchronousScheduler`` path reproduces
these numbers exactly — floats survive a JSON round trip losslessly
(``repr`` shortest-round-trip), so ``==`` on the loaded values is a
bitwise comparison.

Re-running this script on a post-refactor tree only re-pins the current
behaviour; the authoritative provenance is the commit recorded below.

    PYTHONPATH=src python tests/fixtures/make_equivalence_fixtures.py
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.byzantine.sign_flip import SignFlipAttack
from repro.io.results import history_to_dict
from repro.learning.experiment import ExperimentConfig, run_experiment

FIXTURE_PATH = Path(__file__).with_name("equivalence_pre_refactor.json")


def _config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="uniform",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=6,
        num_byzantine=1,
        rounds=3,
        num_samples=240,
        batch_size=8,
        learning_rate=0.1,
        mlp_hidden=(16, 8),
        seed=0,
    )
    return base.with_overrides(**overrides)


def _agreement_trace() -> dict:
    rng = np.random.default_rng(42)
    algorithm = make_algorithm("box-geom", 7, 1)
    protocol = AgreementProtocol(algorithm, byzantine=(6,), attack=SignFlipAttack(), seed=7)
    inputs = rng.normal(size=(6, 4))
    result = protocol.run(inputs, rounds=3)
    return {
        "inputs_seed": 42,
        "final_matrix": result.final_matrix().tolist(),
        "diameter_trace": result.diameter_trace(),
    }


def main() -> None:
    cases = {
        "centralized/box-geom/sign-flip": _config(),
        "centralized/krum/crash": _config(aggregation="krum", attack="crash"),
        "decentralized/box-geom/sign-flip": _config(setting="decentralized", rounds=2),
        "decentralized/md-mean/none": _config(
            setting="decentralized", rounds=2, aggregation="md-mean",
            attack=None, num_byzantine=0,
        ),
    }
    payload = {
        "generated_at_commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[2],
        ).stdout.strip(),
        "histories": {
            label: history_to_dict(run_experiment(config))
            for label, config in cases.items()
        },
        "agreement": _agreement_trace(),
    }
    FIXTURE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
