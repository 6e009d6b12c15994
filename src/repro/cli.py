"""Command-line interface.

The sub-commands cover the common workflows:

- ``run`` — run one collaborative-learning experiment described by flags
  (setting, aggregation rule, attack, heterogeneity, ...), print the
  accuracy trace and optionally save the history to JSON.
- ``compare`` — run the same experiment for several aggregation rules
  and print the comparison table (final / best / smoothed accuracy and
  the converging / diverging verdict).
- ``sweep run`` — expand a JSON scenario-grid spec into experiment cells
  and run them — all of them, or one static shard (``--shard I/M``) —
  serially or on a process pool, streaming JSONL rows with resume
  support (see ``docs/sweeps.md``).  Plain ``sweep spec.json`` still
  works — ``run`` is inserted for you.
- ``sweep merge`` — fold per-shard JSONL files into the canonical
  grid-order stream, byte-identical to a single-host run.
- ``analyze`` — stream a sweep row file (arbitrarily large; ``.gz``
  transparently decompressed) through the constant-memory aggregator
  and emit a group-by table, deterministic JSON, or a self-contained
  HTML report with inlined figures (see ``docs/analysis.md``).
- ``theory`` — print the Section 4 report: measured approximation ratios
  on the adversarial constructions and the BOX-GEOM convergence trace.

Examples
--------
::

    python -m repro.cli run --setting centralized --aggregation box-geom --rounds 20
    python -m repro.cli compare --setting decentralized --rules md-geom box-geom --rounds 10
    python -m repro.cli sweep spec.json --output results.jsonl --workers 4
    python -m repro.cli sweep run spec.json --shard 0/2 --output shard0.jsonl
    python -m repro.cli sweep merge shard0.jsonl shard1.jsonl --output merged.jsonl --spec spec.json
    python -m repro.cli analyze results.jsonl --group-by aggregation --format table
    python -m repro.cli analyze results.jsonl --format html --output report.html --figures figs/
    python -m repro.cli theory
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.aggregation.registry import available_rules
from repro.analysis.reporting import comparison_table, format_percent, run_summary
from repro.byzantine.registry import available_attacks
from repro.engine import SCHEDULER_NAMES
from repro.io.results import metric_from_json, save_histories
from repro.learning.experiment import (
    ExperimentConfig,
    experiment_topology,
    run_experiment,
)
from repro.learning.history import TrainingHistory
from repro.network.topology import TOPOLOGY_NAMES


def _json_object(text: str) -> dict:
    """argparse ``type=`` for flags that take a JSON object literal."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}")
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(
            f"must be a JSON object like '{{\"degree\": 4}}', got {text!r}"
        )
    return value


def _experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--setting", choices=("centralized", "decentralized"), default="centralized")
    parser.add_argument("--dataset", choices=("mnist", "cifar10"), default="mnist")
    parser.add_argument("--heterogeneity", choices=("uniform", "mild", "extreme"), default="mild")
    parser.add_argument("--attack", default="sign-flip",
                        help=f"attack name or 'none' (available: {', '.join(available_attacks())})")
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--byzantine", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--samples", type=int, default=800)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="synchronous",
                        help="timing model of the communication rounds (see docs/architecture.md)")
    parser.add_argument("--topology", default="complete",
                        help="communication graph restricting which links exist "
                             f"(available: {', '.join(TOPOLOGY_NAMES)}; "
                             "'expander' is an alias for random-regular; "
                             "non-complete topologies need --setting decentralized)")
    parser.add_argument("--topology-kwargs", type=_json_object, default=None,
                        metavar="JSON",
                        help="generator parameters as a JSON object, e.g. "
                             "'{\"degree\": 6}' for random-regular or "
                             "'{\"clusters\": 4, \"bridges\": 2}' for clusters")
    parser.add_argument("--exchange", choices=("agreement", "gossip"), default="agreement",
                        help="decentralized exchange mode: full approximate "
                             "agreement (default) or neighbourhood gossip "
                             "averaging (degree-weighted mean)")
    parser.add_argument("--delay", type=int, default=0,
                        help="delivery horizon in rounds (scheduler=partial only)")
    parser.add_argument("--drop-rate", type=float, default=0.0,
                        help="per-link message loss probability (scheduler=lossy only)")
    parser.add_argument("--wait-timeout", type=float, default=0.0,
                        help="wait window in virtual rounds (scheduler=asynchronous "
                             "only; required > 0 there)")
    parser.add_argument("--wait-count", type=int, default=0,
                        help="explicit per-round message target (scheduler="
                             "asynchronous only; 0 = the consumer's quorum)")
    parser.add_argument("--burstiness", type=float, default=0.0,
                        help="probability of entering the bursty delay regime per "
                             "round (scheduler=asynchronous only)")
    parser.add_argument("--node-trace", action="store_true",
                        help="record per-node delivery counters "
                             "(non-synchronous schedulers only)")
    parser.add_argument("--save", type=str, default=None, help="write the histories to this JSON file")


def _build_config(args: argparse.Namespace, aggregation: str) -> ExperimentConfig:
    attack: Optional[str] = None if args.attack in ("none", "None", "") else args.attack
    return ExperimentConfig(
        setting=args.setting,
        dataset=args.dataset,
        heterogeneity=args.heterogeneity,
        aggregation=aggregation,
        attack=attack,
        num_clients=args.clients,
        num_byzantine=args.byzantine if attack is not None else 0,
        byzantine_tolerance=max(1, args.byzantine),
        rounds=args.rounds,
        num_samples=args.samples,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        mlp_hidden=(32, 16),
        seed=args.seed,
        scheduler=args.scheduler,
        delay=args.delay,
        drop_rate=args.drop_rate,
        wait_count=args.wait_count,
        wait_timeout=args.wait_timeout,
        burstiness=args.burstiness,
        node_trace=getattr(args, "node_trace", False),
        topology=getattr(args, "topology", "complete"),
        topology_kwargs=getattr(args, "topology_kwargs", None) or {},
        exchange=getattr(args, "exchange", "agreement"),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args, args.aggregation)
    except ValueError as exc:
        print(f"invalid experiment config: {exc}", file=sys.stderr)
        return 2
    history = run_experiment(config)
    summary = run_summary(history, experiment_topology(config))
    if "topology" in summary:
        shape = summary["topology"]
        print(
            f"topology: {shape['name']} with {shape['edges']} edges, "
            f"degree {shape['min_degree']}..{shape['max_degree']}, "
            f"exchange={config.exchange}"
        )
    trace = "  ".join(f"{acc:.3f}" for acc in history.accuracies())
    print(f"accuracy per round: {trace}")
    print(
        f"final accuracy: {summary['final_accuracy']:.3f}  "
        f"best: {summary['best_accuracy']:.3f}"
    )
    if "network" in summary:
        counters = "  ".join(f"{k}={v}" for k, v in sorted(summary["network"].items()))
        print(f"network delivery: {counters}")
    if "trace" in summary:
        trace = summary["trace"]
        # A zero-sent trace has no worst-round rate (NaN): render '-'.
        worst = format_percent(trace["worst_deliv"]).strip()
        print(
            f"delivery trace: {trace['rounds']} rounds, "
            f"worst round deliv {worst}, "
            f"{trace['late']} late messages"
        )
    if "node" in summary:
        node = summary["node"]
        worst = node.get("worst_node")
        if worst is not None:
            rate = format_percent(node["worst_node_deliv"]).strip()
            print(
                f"per-node delivery: {node['nodes']} nodes, "
                f"worst node {worst} at {rate}"
            )
        else:
            print(f"per-node delivery: {node['nodes']} nodes")
    if args.save:
        path = save_histories({args.aggregation: history}, args.save)
        print(f"history written to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        configs = {rule: _build_config(args, rule) for rule in args.rules}
    except ValueError as exc:
        print(f"invalid experiment config: {exc}", file=sys.stderr)
        return 2
    histories: Dict[str, TrainingHistory] = {
        rule: run_experiment(config) for rule, config in configs.items()
    }
    print(comparison_table(histories))
    if args.save:
        path = save_histories(histories, args.save)
        print(f"histories written to {path}")
    return 0


#: Keys the optional ``"execution"`` spec section may set (CLI flags
#: override them; host-specific choices like --shard stay CLI-only).
EXECUTION_SPEC_KEYS = ("workers", "max_retries")


def _load_sweep_spec(path_str: str):
    """Load a spec file; returns ``(grid, execution_defaults)`` or an
    error message string."""
    from repro.sweep import ScenarioGrid

    spec_path = Path(path_str)
    try:
        spec = json.loads(spec_path.read_text())
    except FileNotFoundError:
        return f"sweep spec not found: {spec_path}"
    except json.JSONDecodeError as exc:
        return f"sweep spec is not valid JSON: {exc}"
    execution = {}
    if isinstance(spec, dict):
        execution = spec.pop("execution", {})
        if not isinstance(execution, dict):
            return 'sweep spec "execution" must be an object'
        unknown = sorted(set(execution) - set(EXECUTION_SPEC_KEYS))
        if unknown:
            return (
                f"unknown execution keys: {unknown}; "
                f"valid: {sorted(EXECUTION_SPEC_KEYS)}"
            )
        for key in EXECUTION_SPEC_KEYS:
            value = execution.get(key)
            # bool is an int subclass but never a sane count.
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                return f'execution "{key}" must be an integer, got {value!r}'
        # A JSON null means "unset": drop it so downstream defaulting
        # (`execution.get(key, default)`) sees the key as absent.
        execution = {k: v for k, v in execution.items() if v is not None}
    try:
        grid = ScenarioGrid.from_spec(spec)
    except ValueError as exc:
        return f"invalid sweep spec: {exc}"
    return grid, execution


def _parse_shard(text: str):
    """Parse ``--shard i/M`` into ``(index, count)``."""
    try:
        index_str, count_str = text.split("/", 1)
        index, count = int(index_str), int(count_str)
    except ValueError:
        raise ValueError(f"--shard must look like i/M (e.g. 0/4), got {text!r}")
    if not 0 <= index < count:
        raise ValueError(f"--shard index must be in [0, {count}), got {index}")
    return index, count


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600:d}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:d}:{seconds % 60:02d}"


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.analysis.streaming import analysis_table, analyze_sweep_rows
    from repro.sweep import SweepRunner, failed_rows

    loaded = _load_sweep_spec(args.spec)
    if isinstance(loaded, str):
        print(loaded, file=sys.stderr)
        return 2
    grid, execution = loaded
    total = len(grid)
    state = {"start": time.monotonic(), "fresh": 0}

    def progress(cell, row, reused):
        # `runner` is assigned below, before run() fires any callback.
        if not reused:
            state["fresh"] += 1
        if args.quiet:
            return
        prefix = f"  [{cell.index + 1:>3d}/{total}]"
        if "error" in row:
            print(f"{prefix} {'failed':<6s} {cell.cell_id} "
                  f"{row['error']['exception']}")
            return
        tag = "cached" if reused else "done"
        # Resumed rows come back through JSON, where non-finite metrics
        # are sanitised to null.
        acc = metric_from_json(row["summary"]["final_accuracy"])
        line = f"{prefix} {tag:<6s} {cell.cell_id} final_acc={acc:.3f}"
        if not reused:
            # Throughput over the cells executed by this worker.
            elapsed = time.monotonic() - state["start"]
            if elapsed > 0:
                rate = state["fresh"] / elapsed
                # run() publishes pending_count from its one resume-file
                # read, so only this runner's non-cached cells are priced
                # into the ETA.
                remaining = max(0, runner.pending_count - state["fresh"])
                line += (f"  ({rate:.2f} cells/s, "
                         f"eta {_format_eta(remaining / rate)})")
        print(line)

    try:
        # Vet the flags before the dry-run early return, so a --dry-run
        # pre-flight of a launch script catches a bad --shard or output
        # path instead of green-lighting it.  Construction touches no
        # file.  Flags override the spec's execution section.
        runner = SweepRunner(
            grid,
            workers=(args.workers if args.workers is not None
                     else execution.get("workers", 1)),
            max_retries=(args.max_retries if args.max_retries is not None
                         else execution.get("max_retries", 0)),
            output_path=args.output,
            resume=not args.no_resume,
            on_cell=progress,
            shard=None if args.shard is None else _parse_shard(args.shard),
        )
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {total} cells over axes {', '.join(grid.axis_names())}")
    if args.dry_run:
        try:
            cells = runner.cells()
        except ValueError as exc:
            print(f"invalid sweep spec: {exc}", file=sys.stderr)
            return 2
        for cell in cells:
            print(f"  [{cell.index:>3d}] {cell.cell_id} (seed={cell.config.seed})")
        return 0

    try:
        rows = runner.run()
    except ValueError as exc:
        # An invalid cell, or a corrupt (non-interrupt-shaped) resume file.
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    print()
    # The table `repro analyze --spec` prints for these rows: one group
    # per cell, axis order pinned to the grid.
    print(analysis_table(analyze_sweep_rows(rows, axis_names=grid.axis_names())))
    if len(rows) < total:
        # Other shards' cells may not have run at all yet.
        print(f"\n{total - len(rows)} cell(s) assigned to other shards "
              f"(merge the shard files for the full grid)")
    failures = failed_rows(rows)
    if failures:
        print(f"\n{len(failures)} cell(s) FAILED after "
              f"{runner.max_retries + 1} attempt(s) each; error rows were "
              f"streamed in their place.  Re-run the same command to retry "
              f"just the failed cells.")
        for row in failures:
            print(f"  {row['cell_id']}: {row['error']['exception']}")
    if args.output:
        print(f"\nrows streamed to {args.output}")
    return 1 if failures else 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from repro.sweep import merge_shards

    grid = None
    if args.spec is not None:
        loaded = _load_sweep_spec(args.spec)
        if isinstance(loaded, str):
            print(loaded, file=sys.stderr)
            return 2
        grid, _ = loaded
    try:
        report = merge_shards(
            args.shards,
            args.output,
            grid=grid,
            require_complete=not args.allow_incomplete,
        )
    except FileNotFoundError as exc:
        print(f"merge failed: shard file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
    print(f"merged {report.cells} cell(s) from {len(args.shards)} shard file(s) "
          f"into {args.output}")
    if grid is None:
        # Index contiguity cannot see a truncated tail: only a spec
        # knows how many cells the grid has.
        print("  note: completeness beyond the highest observed index is "
              "not verifiable without --spec")
    if report.duplicates:
        print(f"  {report.duplicates} duplicate row(s) collapsed")
    if report.stale:
        print(f"  {report.stale} stale row(s) dropped")
    if report.renumbered:
        print(f"  {report.renumbered} row(s) renumbered to the spec's "
              f"cell order")
    if report.missing:
        print(f"  {len(report.missing)} cell(s) still missing")
    if report.failed:
        print(f"  {report.failed} cell(s) carry error rows — re-run their "
              f"shards to retry")
    # Missing cells only reach here when the operator opted in with
    # --allow-incomplete, so they do not fail the command; error rows do.
    return 1 if report.failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.figures import render_figures, write_figures
    from repro.analysis.report import render_html_report
    from repro.analysis.streaming import analysis_table, analyze_sweep_rows

    rows_path = Path(args.rows)
    if not rows_path.exists():
        print(f"row file not found: {rows_path}", file=sys.stderr)
        return 2
    axis_names = None
    if args.spec is not None:
        loaded = _load_sweep_spec(args.spec)
        if isinstance(loaded, str):
            print(loaded, file=sys.stderr)
            return 2
        grid, _ = loaded
        axis_names = grid.axis_names()
    try:
        analysis = analyze_sweep_rows(
            rows_path,
            group_by=args.group_by,
            axis_names=axis_names,
            classify=not args.no_classify,
        )
    except ValueError as exc:
        # Unknown group-by axis, or a malformed JSONL line.
        print(f"analyze failed: {exc}", file=sys.stderr)
        return 2

    # Figures are rendered once and shared between --figures and the
    # HTML report; table/json output skips rendering unless asked.
    figures = []
    if args.figures is not None or args.format == "html":
        figures = render_figures(analysis)
    if args.figures is not None:
        paths = write_figures(figures, args.figures)
        for path in paths:
            print(f"figure written to {path}", file=sys.stderr)

    if args.format == "table":
        output = analysis_table(analysis)
    elif args.format == "json":
        output = json.dumps(analysis.to_json(), indent=2, sort_keys=True)
    else:
        output = render_html_report(
            analysis, figures, source=str(rows_path)
        )
    if args.output:
        target = Path(args.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(output + "\n", encoding="utf-8")
        print(f"report written to {target}", file=sys.stderr)
    else:
        print(output)
    if analysis.stale_rows:
        print(
            f"note: {analysis.stale_rows} stale row(s) skipped "
            f"(older schema or missing axes)",
            file=sys.stderr,
        )
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.theory.bounds import (
        hyperbox_approximation_ratio_experiment,
        hyperbox_contraction_experiment,
    )
    from repro.theory.counterexamples import (
        krum_unbounded_instance,
        md_geom_non_convergence_instance,
        safe_area_unbounded_instance,
    )

    safe = safe_area_unbounded_instance(epsilon=args.epsilon)
    krum = krum_unbounded_instance()
    md = md_geom_non_convergence_instance(rounds=args.rounds)
    box = hyperbox_approximation_ratio_experiment(trials=args.trials, d=args.dimension)
    conv = hyperbox_contraction_experiment(rounds=args.rounds, d=args.dimension)

    print(f"safe-area measured ratio (eps={args.epsilon:g}): {safe.measured_ratio:.3g} (paper: unbounded)")
    print(f"krum measured ratio: {krum.measured_ratio} (paper: unbounded)")
    print(f"md-geom adversarial execution converged: {md['converged']} (paper: may not converge)")
    print(
        f"box-geom max measured ratio: {box.max_ratio:.3f} <= bound 2*sqrt(d) = {box.bound:.3f}: "
        f"{box.within_bound}"
    )
    diameters = ", ".join(f"{v:.2e}" for v in conv["diameters"])
    print(f"box-geom honest-diameter trace under sign flip: [{diameters}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    _experiment_flags(run_parser)
    run_parser.add_argument(
        "--aggregation", default="box-geom",
        help=f"aggregation rule / agreement algorithm (available: {', '.join(available_rules())})",
    )
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser("compare", help="run several rules on the same workload")
    _experiment_flags(compare_parser)
    compare_parser.add_argument(
        "--rules", nargs="+", default=["md-geom", "box-geom", "md-mean", "box-mean"],
        help=f"rules to compare (available: {', '.join(available_rules())})",
    )
    compare_parser.set_defaults(func=_cmd_compare)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run or merge scenario grids described by JSON spec files"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="run a scenario grid (plain `sweep spec.json` implies `run`)"
    )
    sweep_run.add_argument("spec", help="path to the sweep spec JSON (base + axes)")
    sweep_run.add_argument("--output", type=str, default=None,
                           help="stream result rows to this JSONL file (enables resume)")
    sweep_run.add_argument("--workers", type=int, default=None,
                           help="worker processes (default 1 = run in-process)")
    sweep_run.add_argument("--shard", type=str, default=None, metavar="I/M",
                           help="run only shard I of M: the cells assigned "
                                "round-robin by grid index (combines with "
                                "--workers; merge the shard files afterwards)")
    sweep_run.add_argument("--max-retries", type=int, default=None,
                           help="re-attempts for a raising cell before an error "
                                "row is emitted in its place (default 0)")
    sweep_run.add_argument("--no-resume", action="store_true",
                           help="re-run every cell, overwriting the existing output file")
    sweep_run.add_argument("--quiet", action="store_true",
                           help="suppress per-cell progress lines (CI logs)")
    sweep_run.add_argument("--dry-run", action="store_true",
                           help="list the expanded cells without running them")
    sweep_run.set_defaults(func=_cmd_sweep_run)

    sweep_merge = sweep_sub.add_parser(
        "merge", help="fold per-shard JSONL files into the canonical grid-order stream"
    )
    sweep_merge.add_argument("shards", nargs="+",
                             help="the per-shard JSONL files to merge")
    sweep_merge.add_argument("--output", type=str, required=True,
                             help="write the merged grid-order JSONL here")
    sweep_merge.add_argument("--spec", type=str, default=None,
                             help="sweep spec to vet rows against (schema + "
                                  "config match, completeness over the grid)")
    sweep_merge.add_argument("--allow-incomplete", action="store_true",
                             help="merge even when cells are missing")
    sweep_merge.set_defaults(func=_cmd_sweep_merge)

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="stream a sweep row file into tables, figures and HTML reports",
    )
    analyze_parser.add_argument(
        "rows",
        help="sweep JSONL row file (as streamed by `sweep run` or written "
             "by `sweep merge`; `.gz` is decompressed transparently)",
    )
    analyze_parser.add_argument(
        "--format", choices=("table", "json", "html"), default="table",
        help="output format: plain-text group table (default), "
             "deterministic JSON, or a self-contained HTML report with "
             "inlined figures",
    )
    analyze_parser.add_argument(
        "--group-by", nargs="+", default=None, metavar="AXIS",
        help="axis names to aggregate over (default: every axis, i.e. one "
             "group per cell)",
    )
    analyze_parser.add_argument(
        "--spec", type=str, default=None,
        help="sweep spec JSON; pins the axis-column order to the grid "
             "instead of recovering it from the rows",
    )
    analyze_parser.add_argument(
        "--output", type=str, default=None,
        help="write the table/JSON/HTML here instead of stdout",
    )
    analyze_parser.add_argument(
        "--figures", type=str, default=None, metavar="DIR",
        help="also write one SVG file per chart into this directory",
    )
    analyze_parser.add_argument(
        "--no-classify", action="store_true",
        help="skip per-cell trace classification (faster metric-only scan)",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    theory_parser = subparsers.add_parser("theory", help="print the Section 4 theory report")
    theory_parser.add_argument("--epsilon", type=float, default=1e-4)
    theory_parser.add_argument("--rounds", type=int, default=8)
    theory_parser.add_argument("--trials", type=int, default=20)
    theory_parser.add_argument("--dimension", type=int, default=6)
    theory_parser.set_defaults(func=_cmd_theory)
    return parser


def _normalize_argv(argv: Sequence[str]) -> List[str]:
    """Insert the implicit ``run`` sweep sub-command for back-compat.

    ``repro sweep spec.json`` (spec-first *or* flag-first, as argparse
    always allowed) predates the run/merge split, so unless the operator
    named a sub-command — or asked for ``sweep``'s own help — ``run`` is
    spliced in.
    """
    argv = list(argv)
    if argv and argv[0] == "sweep" and len(argv) > 1:
        if argv[1] not in ("run", "merge", "-h", "--help"):
            argv.insert(1, "run")
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also exposed as ``python -m repro.cli``)."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # `repro analyze ... | head` closes stdout early; that is not an
        # error.  Detach stdout so interpreter shutdown does not re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
