#!/usr/bin/env python3
"""Paper-cell benchmark of the repro simulator.

Runs the Fig 1-3 shaped experiment cells of ``benchmarks/_harness.py``
through the public ``repro.learning.experiment`` API, serially in one
process, checks the outputs, and prints one JSON result line last::

    python3 cellbench/run.py --workload central-geom --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with no layer hooks
installed; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer split (see ``hooks.py`` and ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: BLAS/OpenMP pool size: one thread, so a run never contends with
#: itself, or with other tenants of a small machine, for a second core.
THREADS = "1"
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """Experiment cells run back to back as one pass.

    A pass runs every rule on each of ``seeds`` experiment seeds derived
    from ``--seed`` (``seed * seeds + k``): on the decentralized cells the
    Weiszfeld work itself depends on the data, so one seed alone would
    make the workload's cost a property of the seed.  ``rounds``
    overrides the harness round budget so a pass stays a few seconds
    long.  ``pass_seconds`` is the pass time on the reference machine (2
    vCPU, numpy 2.4, OpenBLAS); it turns ``--seconds`` into a fixed pass
    count, so both sides of a comparison measure the same work.
    """

    setting: str
    rules: Tuple[str, ...]
    rounds: int
    seeds: int
    pass_seconds: float
    overrides: Dict[str, object] = field(default_factory=dict)


LOSSY = {"scheduler": "lossy", "drop_rate": 0.1}
WORKLOADS: Dict[str, Workload] = {
    # Fig 1/2a: one aggregation per round over the exhaustive C(10, 9)
    # family at d ~ 25.8k; box-geom is Weiszfeld-bound.
    "central-geom": Workload("centralized", ("box-geom", "md-geom"), 7, 3, 4.4),
    # Fig 3a: 6 honest nodes evaluate the rule on one shared inbox per
    # agreement sub-round.
    "decentral-sync": Workload("decentralized", ("box-geom", "md-geom"), 5, 3, 5.0),
    # Fig 3a under 10% link loss: distinct inboxes, more delivery work.
    "decentral-lossy": Workload("decentralized", ("box-geom", "md-geom"), 3, 8, 8.5, LOSSY),
    # Fig 2b: CifarNet gradients dominate; distance and mean rules only.
    "central-cifar": Workload(
        "centralized", ("krum", "multi-krum", "md-mean", "box-mean"), 8, 1, 5.5,
        {"dataset": "cifar10"},
    ),
}


def pin_threads() -> Dict[str, str]:
    """Pin every BLAS/OpenMP pool before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # The harness configs must be the scaled ones, whatever the caller set.
    os.environ["REPRO_BENCH_PAPER"] = "0"
    return {var: THREADS for var in THREAD_VARS}


class RoundProbe:
    """Round boundaries of every run: train() entry and history appends.

    Installed in traced and untraced runs alike; it costs one clock read
    per round.
    """

    def __init__(self, api) -> None:
        self.trainer = None
        self.train_start: Optional[float] = None
        self.stamps: List[float] = []
        probe = self

        def wrap_train(original):
            def train(trainer, *args, **kwargs):
                probe.trainer = trainer
                probe.train_start = clock()
                return original(trainer, *args, **kwargs)

            return train

        original_append = api.TrainingHistory.append

        def append(history, record):
            original_append(history, record)
            probe.stamps.append(clock())

        api.TrainingHistory.append = append
        for cls in (api.CentralizedTrainer, api.DecentralizedTrainer):
            cls.train = wrap_train(cls.train)

    def reset(self) -> None:
        self.trainer, self.train_start, self.stamps = None, None, []


class Api:
    """The public entry points the benchmark drives."""

    def __init__(self) -> None:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
        import _harness
        from repro.aggregation import context
        from repro.learning import experiment
        from repro.learning.centralized import CentralizedTrainer
        from repro.learning.decentralized import DecentralizedTrainer
        from repro.learning.history import TrainingHistory

        self.harness = _harness
        self.run_experiment = experiment.run_experiment
        self.clear_data_cache = experiment.clear_data_cache
        self.cache_stats = getattr(context, "cache_stats", dict)
        self.reset_cache_stats = getattr(context, "reset_cache_stats", lambda: None)
        self.CentralizedTrainer = CentralizedTrainer
        self.DecentralizedTrainer = DecentralizedTrainer
        self.TrainingHistory = TrainingHistory

    def cells(self, workload: Workload, seed: int) -> Dict[str, object]:
        factory = (
            self.harness.centralized_config
            if workload.setting == "centralized"
            else self.harness.decentralized_config
        )
        return {
            f"{rule}@{derived}": factory(aggregation=rule, seed=derived, rounds=workload.rounds,
                                         **workload.overrides)
            for derived in range(seed * workload.seeds, (seed + 1) * workload.seeds)
            for rule in workload.rules
        }


@dataclass
class CellRun:
    """Outcome of one cell: timings, outputs, and the output check."""

    label: str
    traced: bool
    pass_index: int = 0
    seed: int = 0
    wall_s: float = 0.0
    setup_s: float = 0.0
    round_s: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    counts: Dict[str, object] = field(default_factory=dict)
    delivered: Tuple[int, int] = (0, 0)
    final_disagreement: float = 0.0
    recorder: object = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _finite(values) -> bool:
    import numpy as np

    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _trainer_parameters(trainer) -> List[object]:
    if getattr(trainer, "global_model", None) is not None:
        return [trainer.global_model.get_flat_parameters()]
    return [c.local_parameters() for c in trainer.clients if not c.is_byzantine]


def run_cell(api: Api, probe: RoundProbe, label: str, config, *, traced: bool,
             pass_index: int = 0) -> CellRun:
    """Run one cell cold (data cache and cache counters cleared first)."""
    from hooks import Recorder, Tracer

    run = CellRun(label, traced, pass_index, config.seed)
    api.clear_data_cache()
    api.reset_cache_stats()
    probe.reset()
    tracer = Tracer(Recorder()) if traced else None
    try:
        with tracer if traced else nullcontext():
            start = clock()
            history = api.run_experiment(config)
            end = clock()
    except Exception:
        run.problems.append("raised: " + traceback.format_exc(limit=3).strip())
        return run
    run.wall_s = end - start
    train_start = probe.train_start if probe.train_start is not None else start
    run.setup_s = train_start - start
    bounds = [train_start] + probe.stamps
    run.round_s = [b - a for a, b in zip(bounds, bounds[1:])]
    run.accuracies = history.accuracies()
    run.losses = history.losses()
    stats = dict(history.network_stats)
    run.delivered = (int(stats.get("delivered", 0)), int(stats.get("sent", 0)))
    disagreement = history.records[-1].gradient_disagreement if history.records else None
    run.final_disagreement = float(disagreement or 0.0)
    run.counts = {"network": stats, "cache": api.cache_stats()}
    if traced:
        rec = tracer.recorder
        run.recorder = rec
        run.counts["trace"] = {
            "calls": dict(rec.calls), "counters": dict(rec.counters),
            "maxima": dict(rec.maxima),
        }
        run.counts["absent"] = tracer.absent
    if history.rounds != config.rounds or len(run.round_s) != config.rounds:
        run.problems.append(
            f"{history.rounds} records / {len(run.round_s)} round stamps for {config.rounds} rounds"
        )
    if not (_finite(run.accuracies) and _finite(run.losses)):
        run.problems.append("non-finite accuracy or loss")
    if probe.trainer is None or not all(_finite(p) for p in _trainer_parameters(probe.trainer)):
        run.problems.append("non-finite (or unreachable) model parameters")
    return run


def cross_check(runs: List[CellRun]) -> None:
    """Repeats of a cell must match the first run bitwise.

    Accuracy and loss series are compared across every run, traced or
    not; count signatures are compared between runs of the same mode.
    """
    first: Dict[str, CellRun] = {}
    first_counts: Dict[Tuple[str, bool], dict] = {}
    for run in runs:
        if not run.ok:
            continue
        ref = first.setdefault(run.label, run)
        if (run.accuracies, run.losses) != (ref.accuracies, ref.losses):
            run.problems.append("accuracy/loss series differ from the first run")
        ref_counts = first_counts.setdefault((run.label, run.traced), run.counts)
        if run.counts != ref_counts:
            run.problems.append("count metrics differ from the first run")


def nearest_rank(samples: List[float], percentile: int) -> float:
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile that leaves at least 10 samples beyond it."""
    return max(50, math.floor(100 * (count - 10) / count)) if count > 10 else 50


def workload_rounds(runs: List[CellRun]) -> Dict[int, List[float]]:
    """Time for every rule to advance one round, per round and pass, by seed.

    Round ``i`` of each rule's cell on one seed in one pass is summed into
    one sample; a sample with a failed cell is dropped.
    """
    passes: Dict[Tuple[int, int], List[CellRun]] = {}
    for run in runs:
        passes.setdefault((run.seed, run.pass_index), []).append(run)
    samples: Dict[int, List[float]] = {}
    for (seed, _), cells in passes.items():
        if all(r.ok for r in cells):
            samples.setdefault(seed, []).extend(
                sum(column) for column in zip(*(r.round_s for r in cells)))
    return samples


def pass_throughputs(runs: List[CellRun]) -> List[float]:
    """Rounds per second of round time in each pass with no failed cell."""
    passes: Dict[int, List[CellRun]] = {}
    for run in runs:
        passes.setdefault(run.pass_index, []).append(run)
    return [sum(len(r.round_s) for r in cells) / sum(sum(r.round_s) for r in cells)
            for cells in passes.values() if all(r.ok for r in cells)]


def end_to_end(runs: List[CellRun]) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
    ok = [r for r in runs if r.ok]
    by_seed = workload_rounds(runs)
    pooled = [s for samples in by_seed.values() for s in samples]
    percentile = tail_percentile(len(pooled))
    throughputs = pass_throughputs(runs)
    metrics = {
        # Median over passes: a pass slowed by another tenant of the host
        # moves a pooled mean but not the median.
        "rounds_per_s": (statistics.median(throughputs), "1/s"),
        # Per-seed medians, averaged: the seeds' round times form separate
        # clusters, and a pooled median would jump between them.
        "round_ms_p50": (1e3 * statistics.fmean(statistics.median(v) for v in by_seed.values()),
                         "ms"),
        "round_ms_tail": (1e3 * nearest_rank(pooled, percentile), "ms"),
        "setup_s": (statistics.median(r.setup_s for r in ok), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cells_ok_ratio": (len(ok) / len(runs), "ratio"),
    }
    notes = {"round_ms_tail": {"percentile": percentile, "samples": len(pooled)},
             "pass_rounds_per_s": [round(t, 4) for t in throughputs],
             "round_sample": "round i of every rule on one seed in one pass, summed"}
    return metrics, notes


def per_layer(runs: List[CellRun]) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
    ok = [r for r in runs if r.ok]
    traced = [r for r in ok if r.traced]
    untraced = [r for r in ok if not r.traced]
    passes = max(1, len(traced) // max(1, len({r.label for r in traced})))
    self_s, calls, counters = Counter(), Counter(), Counter()
    for r in traced:
        self_s.update(r.recorder.self_s)
        calls.update(r.recorder.calls)
        counters.update(r.recorder.counters)
    iters_max = max((r.recorder.maxima.get("linalg.weiszfeld_iters_max", 0) for r in traced),
                    default=0)
    bookkeeping = sum(r.recorder.bookkeeping_s for r in traced)
    hits = sum(int(r.counts["cache"].get("subset_hits", 0)) for r in traced)
    misses = sum(int(r.counts["cache"].get("subset_misses", 0)) for r in traced)
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    delivered = sum(r.delivered[0] for r in traced)
    sent = sum(r.delivered[1] for r in traced)

    def secs(layer: str) -> Tuple[float, str]:
        return (self_s.get(layer, 0.0) / passes, "s")

    def count(value: float) -> Tuple[float, str]:
        return (value / passes, "count")

    update_calls = calls.get("agreement.update", 0)
    distinct = counters.get("agreement.distinct_inboxes", 0)
    metrics = {
        "data.build_s": secs("data.build"),
        "learning.gradient_s": secs("learning.gradient"),
        "learning.gradient_calls": count(calls.get("learning.gradient", 0)),
        "byzantine.corrupt_s": secs("byzantine.corrupt"),
        "engine.submit_s": secs("engine.submit"),
        "engine.submit_calls": count(calls.get("engine.submit", 0)),
        # The synchronous scheduler keeps no counters: delivery is total.
        "engine.delivered_ratio": (delivered / sent if sent else 1.0, "ratio"),
        "agreement.update_s": secs("agreement.update"),
        "agreement.update_calls": count(update_calls),
        "agreement.distinct_inboxes": count(distinct),
        "agreement.useful_ratio": (distinct / update_calls if update_calls else 0.0, "ratio"),
        "aggregation.aggregate_self_s": secs("aggregation.aggregate"),
        "aggregation.aggregate_calls": count(calls.get("aggregation.aggregate", 0)),
        "aggregation.sq_distances_s": secs("aggregation.sq_distances"),
        "aggregation.subset_hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "linalg.weiszfeld_s": secs("linalg.weiszfeld"),
        "linalg.weiszfeld_iters": count(counters.get("linalg.weiszfeld_iters", 0)),
        "linalg.weiszfeld_iters_max": (float(iters_max), "count"),
        "linalg.weiszfeld_sets": count(counters.get("linalg.weiszfeld_sets", 0)),
        "linalg.weiszfeld_unconverged": count(counters.get("linalg.weiszfeld_unconverged", 0)),
        "linalg.median_snap_s": secs("linalg.median_snap"),
        "linalg.subset_medians_s": secs("linalg.subset_medians"),
        "linalg.subset_means_s": secs("linalg.subset_means"),
        "linalg.subset_diameters_s": secs("linalg.subset_diameters"),
        "nn.sgd_step_s": secs("nn.sgd_step"),
        "nn.evaluate_s": secs("nn.evaluate"),
        "linalg.disagreement_s": secs("linalg.disagreement"),
        "agreement.final_disagreement": (
            statistics.fmean(r.final_disagreement for r in traced) if traced else 0.0, "norm"),
        "learning.final_accuracy": (
            statistics.fmean(r.accuracies[-1] for r in traced) if traced else 0.0, "ratio"),
        "trace.covered_share": (
            sum(self_s.values()) / (traced_wall - bookkeeping) if traced_wall else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio"),
    }
    absent = sorted({layer for r in traced for layer in r.counts.get("absent", [])})
    observer_errors = sorted({l for r in traced for l in r.recorder.observer_errors})
    notes = {
        "traced_passes": passes,
        "absent_hooks": absent,
        "observer_errors": observer_errors,
        "bookkeeping_s": bookkeeping / passes,
        "self_share": {k: v / (traced_wall - bookkeeping) for k, v in sorted(self_s.items())},
    }
    return metrics, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "benchmarks/_harness.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"cellbench: {ROOT} is not a repro checkout (missing {missing})", file=sys.stderr)
        return 2
    thread_env = pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    api = Api()
    probe = RoundProbe(api)
    workload = WORKLOADS[args.workload]
    cells = api.cells(workload, args.seed)
    passes = max(2, round(args.seconds / workload.pass_seconds))

    # Untimed warm-up, two rounds of each rule: first-call costs (BLAS
    # init, lazy imports, the first conv-net allocation) stay out of
    # every measured run.
    first_seed = {config.aggregation: (label, config) for label, config in reversed(cells.items())}
    for label, config in first_seed.values():
        warm = run_cell(api, probe, label, config.with_overrides(rounds=min(2, config.rounds)),
                        traced=bool(args.trace))
        if not warm.ok:
            print(f"cellbench: warm-up {label}: {warm.problems}", file=sys.stderr)

    runs: List[CellRun] = []
    if args.trace:
        modes = [False, True] * max(1, passes // 2)
    else:
        modes = [False] * passes
    for pass_index, traced in enumerate(modes):
        for label, config in cells.items():
            runs.append(run_cell(api, probe, label, config, traced=traced,
                                 pass_index=pass_index))
    cross_check(runs)
    for run in runs:
        if not run.ok:
            print(f"cellbench: {run.label} (traced={run.traced}) failed: {run.problems}",
                  file=sys.stderr)

    failed = sum(not r.ok for r in runs)
    if failed == len(runs) or not (args.trace or workload_rounds(runs)):
        print("cellbench: no pass ran without a failed cell; no metric to report",
              file=sys.stderr)
        return 1
    metrics, notes = (per_layer if args.trace else end_to_end)(runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(modes),
        "pass_wall_s": [round(sum(r.wall_s for r in runs if r.pass_index == i), 3)
                        for i in range(len(modes))],
        "rounds_per_cell": workload.rounds,
        "final_accuracy": {label: next(
            (r.accuracies[-1] for r in runs if r.label == label and r.ok), None)
            for label in cells},
        "notes": notes,
        "build": api.harness.build_info(),
        "pinned_threads": thread_env,
    }
    print(json.dumps({"cellbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
