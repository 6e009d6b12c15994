"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one of the paper's figures (or the
Section 4 "table" of theoretical properties).  Absolute numbers differ
from the paper — the datasets are synthetic and the budget is laptop
scale — but each module prints the same *series* the paper plots so the
qualitative shape (who converges, who wins, by roughly what margin) can
be compared directly.

Scaling
-------
By default the benchmarks run a scaled-down configuration so the whole
suite finishes in minutes.  Set the environment variable
``REPRO_BENCH_PAPER=1`` to use the paper's configuration (10 clients,
longer training); expect a much longer run time.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.learning.history import TrainingHistory

#: True when the paper-scale configuration is requested.
PAPER_SCALE = os.environ.get("REPRO_BENCH_PAPER", "0") not in ("", "0", "false", "False")


def scaled(small, paper):
    """Pick the scaled-down or paper-scale value of a parameter."""
    return paper if PAPER_SCALE else small


def build_info() -> Dict[str, object]:
    """Numerical-stack provenance for BENCH_* artifacts.

    Kernel timings depend as much on the BLAS build and its thread pool
    as on the code under test, so every artifact row set records the
    numpy version, the linked BLAS/LAPACK implementation, the machine,
    and the thread-count environment in effect — successive CI runs can
    then only be compared when this block matches.
    """
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas_info = {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
        }
    except Exception:  # pragma: no cover - older numpy without mode="dicts"
        blas_info = {"name": "unknown", "version": "unknown"}
    thread_env = {
        var: os.environ.get(var)
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
        if os.environ.get(var) is not None
    }
    return {
        "numpy_version": np.__version__,
        "blas": blas_info,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "thread_env": thread_env,
    }


#: Row fields that, with the label, identify a ``cases``-style case.
CASE_IDENTITY = ("topology", "wait", "n", "d")


def artifact_headlines(payload: Dict[str, object]) -> Dict[str, float]:
    """Comparable headline metrics of a BENCH_* artifact, keyed stably.

    Two shapes exist in the suite and both are handled:

    * ``cases``-style artifacts (delivery): one metric per case row —
      ``rounds_per_sec``, keyed by the row's label plus whichever
      :data:`CASE_IDENTITY` fields it carries.  ``rounds`` is
      deliberately *not* part of the key: rounds/sec is already
      per-round, so a smoke run (few rounds) is comparable against a
      full-run baseline (more rounds).  Two rows with one key would
      overwrite each other, so a duplicate raises.
    * headline-dict artifacts (subset kernels): every top-level section
      whose value is a mapping contributes its ``*_speedup`` entries,
      keyed ``section:name``.

    Every metric is higher-is-better, which is what
    :func:`compare_to_baseline` assumes.
    """
    headlines: Dict[str, float] = {}
    for row in payload.get("cases", []) or []:
        if not isinstance(row, dict) or "rounds_per_sec" not in row:
            continue
        parts = [str(row.get("label", row.get("scheduler", "case")))]
        parts += [f"{field}={row[field]}" for field in CASE_IDENTITY if field in row]
        key = "case:" + "|".join(parts)
        if key in headlines:
            raise ValueError(f"two benchmark cases share the headline key {key!r}")
        headlines[key] = float(row["rounds_per_sec"])
    for section, value in payload.items():
        if section in ("cases", "build") or not isinstance(value, dict):
            continue
        for name, metric in value.items():
            if name.endswith("_speedup") and isinstance(metric, (int, float)):
                headlines[f"{section}:{name}"] = float(metric)
    return headlines


def compare_to_baseline(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    *,
    max_regression: float = 0.30,
) -> Dict[str, List[str]]:
    """Compare a fresh BENCH_* artifact against its committed baseline.

    Returns ``{"failures": [...], "warnings": [...], "info": [...]}``.
    A headline shared by both artifacts that regressed by more than
    ``max_regression`` (fractional, against the baseline) is a failure —
    unless the two ``build`` fingerprints differ, in which case every
    regression is demoted to a warning: timings from different
    numpy/BLAS/machine combinations are not comparable enough to gate
    on (see :func:`build_info`).  Headlines present on only one side
    are informational (grids and smoke subsets legitimately differ).
    """
    report: Dict[str, List[str]] = {"failures": [], "warnings": [], "info": []}
    same_build = fresh.get("build") == baseline.get("build")
    if not same_build:
        report["warnings"].append(
            "build fingerprints differ: regressions are warn-only"
        )
    fresh_headlines = artifact_headlines(fresh)
    base_headlines = artifact_headlines(baseline)
    shared = sorted(set(fresh_headlines) & set(base_headlines))
    if not shared:
        report["warnings"].append("no shared headline metrics to compare")
    for key in shared:
        base = base_headlines[key]
        new = fresh_headlines[key]
        if base <= 0:
            report["info"].append(f"{key}: baseline metric is {base}, skipped")
            continue
        regression = 1.0 - new / base
        line = f"{key}: {base:.2f} -> {new:.2f} ({-regression:+.1%})"
        if regression > max_regression:
            (report["failures"] if same_build else report["warnings"]).append(
                f"{line} exceeds the {max_regression:.0%} regression budget"
            )
        else:
            report["info"].append(line)
    only = sorted(set(fresh_headlines) ^ set(base_headlines))
    if only:
        report["info"].append(
            f"{len(only)} headline(s) present on one side only (ignored)"
        )
    return report


@dataclass
class FigureSpec:
    """One figure: a set of named experiment configurations."""

    figure_id: str
    description: str
    configs: Dict[str, ExperimentConfig]

    def run(self) -> Dict[str, TrainingHistory]:
        """Run every configuration and return the histories by label."""
        return {label: run_experiment(config) for label, config in self.configs.items()}


def accuracy_table(histories: Dict[str, TrainingHistory], *, every: int = 1) -> str:
    """Render accuracy-vs-round series as a plain-text table.

    One row per algorithm, one column every ``every`` recorded rounds plus
    the final value — the same series the paper's figures plot.
    """
    lines: List[str] = []
    header_done = False
    for label, history in histories.items():
        accs = history.accuracies()
        cols = accs[::every]
        if cols and accs[-1] != cols[-1]:
            cols.append(accs[-1])
        if not header_done:
            rounds = list(range(0, history.rounds, every))
            if rounds and rounds[-1] != history.rounds - 1:
                rounds.append(history.rounds - 1)
            lines.append("round      " + "  ".join(f"{r:>6d}" for r in rounds))
            header_done = True
        lines.append(f"{label:<10s} " + "  ".join(f"{a:6.3f}" for a in cols))
    return "\n".join(lines)


def summary_table(histories: Dict[str, TrainingHistory]) -> str:
    """Final/best accuracy summary table (one row per algorithm)."""
    lines = [f"{'algorithm':<12s} {'final_acc':>9s} {'best_acc':>9s} {'final_loss':>10s}"]
    for label, history in histories.items():
        final_loss = history.losses()[-1] if history.records else float("nan")
        lines.append(
            f"{label:<12s} {history.final_accuracy():9.3f} {history.best_accuracy():9.3f} "
            f"{final_loss:10.3f}"
        )
    return "\n".join(lines)


def print_report(figure_id: str, description: str, body: str) -> None:
    """Print a benchmark report block with a recognisable banner."""
    banner = "=" * 72
    print(f"\n{banner}\n[{figure_id}] {description}\n{banner}\n{body}\n")


def centralized_config(**overrides) -> ExperimentConfig:
    """Scaled centralized base configuration shared by FIG1/2 benches."""
    base = ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="mild",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=10,
        num_byzantine=1,
        rounds=scaled(40, 150),
        num_samples=scaled(800, 6000),
        batch_size=scaled(16, 32),
        learning_rate=scaled(0.05, 0.01),
        mlp_hidden=scaled((32, 16), (128, 64)),
        seed=7,
    )
    return base.with_overrides(**overrides)


def decentralized_config(**overrides) -> ExperimentConfig:
    """Scaled decentralized base configuration shared by FIG3 benches."""
    base = ExperimentConfig(
        setting="decentralized",
        dataset="mnist",
        heterogeneity="mild",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=scaled(7, 10),
        num_byzantine=1,
        rounds=scaled(35, 150),
        num_samples=scaled(560, 6000),
        batch_size=scaled(16, 32),
        learning_rate=scaled(0.05, 0.01),
        mlp_hidden=scaled((16, 8), (128, 64)),
        # Cap the subset enumeration so the hyperbox/MD searches stay
        # laptop-fast at gradient dimensionality.
        aggregation_kwargs={"max_subsets": scaled(10, 45)},
        seed=7,
    )
    return base.with_overrides(**overrides)
