"""Tabular reporting of experiment results.

Turns a collection of :class:`~repro.learning.history.TrainingHistory`
objects into plain-text tables and serialisable records — the format
the benchmark harness prints and EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.traces import summarize_history
from repro.learning.history import TrainingHistory


def histories_to_records(
    histories: Mapping[str, TrainingHistory], *, num_classes: int = 10
) -> List[Dict[str, object]]:
    """One serialisable record per labelled history (for JSON export)."""
    records: List[Dict[str, object]] = []
    for label, history in histories.items():
        summary = summarize_history(history, num_classes=num_classes)
        record = dict(history.summary())
        record.update(
            {
                "label": label,
                "smoothed_final_accuracy": summary.smoothed_final,
                "classification": summary.classification,
                "above_chance": summary.above_chance,
            }
        )
        if history.network_stats:
            record["network_stats"] = dict(history.network_stats)
            record["delivery_rate"] = delivery_rate(history.network_stats)
        if history.delivery_trace:
            record["delivery_trace_summary"] = delivery_trace_summary(
                history.delivery_trace
            )
        if history.node_stats:
            record["node_stats_summary"] = node_stats_summary(history.node_stats)
        records.append(record)
    return records


def delivery_rate(stats: Mapping[str, object]) -> float:
    """Fraction of sent messages that were eventually delivered.

    ``stats`` is a round engine's counter mapping (``sent`` /
    ``delivered`` / ...).  Returns ``nan`` when nothing was sent.
    """
    sent = float(stats.get("sent", 0) or 0)
    if sent <= 0:
        return float("nan")
    return float(stats.get("delivered", 0) or 0) / sent


def delivery_trace_summary(trace: Sequence[Mapping[str, int]]) -> Dict[str, object]:
    """Compact reading of a per-round delivery trace.

    Returns ``rounds`` (trace length), ``worst_deliv`` (the worst
    per-round delivered/sent ratio over rounds that sent anything — the
    depth of the worst burst or crash window) and ``late`` (total
    messages that missed their send round).  This is what the sweep
    summary table renders next to the cumulative ``deliv%``.
    """
    per_round = [
        delivery_rate(row) for row in trace if int(row.get("sent", 0) or 0) > 0
    ]
    return {
        "rounds": len(trace),
        "worst_deliv": min(per_round) if per_round else float("nan"),
        "late": int(sum(int(row.get("delayed", 0) or 0) for row in trace)),
    }


def node_stats_summary(node_stats: Mapping[str, Sequence[int]]) -> Dict[str, object]:
    """Compact reading of per-node (receiver-attributed) delivery counters.

    ``node_stats`` maps counter name to an ``(n,)`` list — the batch
    message plane's per-node resolution of the aggregate counters.
    Returns the number of nodes, per-counter totals (these equal the
    aggregate ``network_stats`` by construction), and the identity and
    delivery rate of the worst-served node — the reading that matters
    when a crash window or biased link loss starves *one* receiver while
    the aggregate rate still looks healthy.
    """
    totals = {name: int(sum(values)) for name, values in node_stats.items()}
    nodes = max((len(values) for values in node_stats.values()), default=0)
    summary: Dict[str, object] = {"nodes": nodes, "totals": totals}
    sent = node_stats.get("sent")
    delivered = node_stats.get("delivered")
    if sent and delivered and len(sent) == len(delivered):
        rates = [
            (float(d) / float(s)) if s > 0 else float("nan")
            for s, d in zip(sent, delivered)
        ]
        finite = [(rate, node) for node, rate in enumerate(rates) if not math.isnan(rate)]
        if finite:
            worst_rate, worst_node = min(finite)
            summary["worst_node"] = int(worst_node)
            summary["worst_node_deliv"] = float(worst_rate)
    return summary


def topology_delivery_summary(
    topology, node_stats: Optional[Mapping[str, Sequence[int]]] = None
) -> Dict[str, object]:
    """Per-topology delivery reading for sweep rows and reports.

    ``topology`` is a :class:`repro.network.topology.Topology`; the
    returned dictionary starts from its structural ``summary()`` (name,
    edge count, degree statistics).  When the cell recorded per-node
    counters (``node_trace=True``), they are re-read *against the
    graph*: each node's delivered count is normalised by its closed
    degree (the number of links addressed to it per sub-round), so a
    starved low-degree node is visible even when the aggregate delivery
    rate looks healthy.
    """
    summary: Dict[str, object] = dict(topology.summary())
    if not node_stats:
        return summary
    delivered = node_stats.get("delivered")
    if delivered and len(delivered) == topology.n:
        closed = [int(d) + 1 for d in topology.degrees]
        per_link = [float(d) / c for d, c in zip(delivered, closed)]
        worst = min(range(topology.n), key=lambda node: per_link[node])
        summary["delivered_per_link"] = {
            "min": min(per_link),
            "mean": sum(per_link) / len(per_link),
            "max": max(per_link),
        }
        summary["worst_node"] = int(worst)
    return summary


def format_percent(value: object, width: int = 7) -> str:
    """Fixed-width rendering of a ``[0, 1]`` ratio as a percentage.

    The single NaN-aware formatter shared by the sweep summary table,
    the ``repro analyze`` tables and the CLI delivery summaries: ``None``
    (a non-finite value sanitised away by the strict-JSON writer) and
    ``NaN`` (nothing was sent, so no rate exists) render as ``-`` padded
    to the same width instead of the misaligned ``nan%``.
    """
    from repro.io.results import metric_from_json

    number = metric_from_json(value) if not isinstance(value, float) else value
    if math.isnan(number):
        return f"{'-':>{width}s}"
    return f"{100.0 * number:>{width - 1}.1f}%"


def comparison_table(
    histories: Mapping[str, TrainingHistory], *, num_classes: int = 10
) -> str:
    """Plain-text comparison table: one row per algorithm.

    Columns: final accuracy, best accuracy, smoothed final accuracy and
    the qualitative classification (converging / unstable / diverging /
    stagnant) used to compare against the paper's description.
    """
    header = (
        f"{'label':<14s} {'final':>7s} {'best':>7s} {'smoothed':>9s} {'verdict':>12s}"
    )
    lines = [header, "-" * len(header)]
    for record in histories_to_records(histories, num_classes=num_classes):
        lines.append(
            f"{str(record['label']):<14s} {record['final_accuracy']:>7.3f} "
            f"{record['best_accuracy']:>7.3f} {record['smoothed_final_accuracy']:>9.3f} "
            f"{str(record['classification']):>12s}"
        )
    return "\n".join(lines)


def _recover_axis_names(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Axis column names (and order) for a batch of sweep rows.

    The row's ``"axes"`` mapping is authoritative for the *names* —
    splitting the cell id would mis-parse legacy ids whose values embed
    raw ``/`` or ``=`` (values are escaped since the cell-id escaping
    fix, but archived rows predate it).  The cell id is only consulted
    to restore the grid's axis *order*, which a sorted-keys JSONL round
    trip loses, and only when it parses to exactly the axes mapping's
    names.
    """
    axes = next(
        (row["axes"] for row in rows if isinstance(row.get("axes"), Mapping)), None
    )
    cell_id = rows[0].get("cell_id")
    parsed: Optional[List[str]] = None
    if isinstance(cell_id, str) and "=" in cell_id:
        from repro.sweep.grid import parse_cell_id

        parsed = list(parse_cell_id(cell_id))
    if axes is None:
        return parsed or []
    if parsed is not None and set(parsed) == set(axes) and len(parsed) == len(axes):
        return parsed
    return list(axes)


def sweep_summary_table(
    rows: Sequence[Mapping[str, object]],
    *,
    axis_names: Optional[Sequence[str]] = None,
) -> str:
    """Plain-text summary of a sweep: one row per scenario cell.

    ``rows`` are the JSONL rows produced by
    :class:`repro.sweep.runner.SweepRunner` (or a subset of them); the
    axis columns come from each row's ``"axes"`` mapping, followed by
    the final/best accuracy of the cell.  ``axis_names`` pins the column
    order (pass the grid's ``axis_names()`` when the spec is at hand);
    otherwise the order is recovered from the first row's cell id where
    unambiguous, falling back to the ``"axes"`` mapping's sorted order.
    """
    if not rows:
        return "(no sweep rows)"
    axis_names = (
        list(axis_names) if axis_names is not None else _recover_axis_names(rows)
    )
    # Rows written before an axis existed render '-' (not an invisible
    # blank) in that column — e.g. pre-``exchange`` archives.
    widths = {
        name: max(len(name), *(len(str(row["axes"].get(name, "-"))) for row in rows))
        for name in axis_names
    }
    # Cells run on non-synchronous schedulers carry their delivery
    # counters; surface the delivery rate when any cell has one, and the
    # per-round trace columns (worst round, late messages) when any cell
    # recorded a trace.
    with_network = any(
        isinstance(row.get("summary", {}).get("network"), dict) for row in rows
    )
    with_trace = any(
        isinstance(row.get("summary", {}).get("trace"), dict) for row in rows
    )
    header = " ".join(f"{name:<{widths[name]}s}" for name in axis_names)
    header += f" {'final':>7s} {'best':>7s} {'rounds':>7s}"
    if with_network:
        header += f" {'deliv%':>7s}"
    if with_trace:
        header += f" {'wrst%':>7s} {'late':>6s}"
    lines = [header, "-" * len(header)]
    from repro.io.results import metric_from_json

    for row in sorted(rows, key=lambda r: r.get("index", 0)):
        summary = row.get("summary", {})
        cols = " ".join(
            f"{str(row['axes'].get(name, '-')):<{widths[name]}s}" for name in axis_names
        )
        if "error" in row:
            # A cell that kept raising streamed an error row in place of
            # a result; keep it visible instead of faking metrics (and
            # pad every optional column so the table stays aligned).
            error = row["error"] if isinstance(row["error"], dict) else {}
            line = f"{cols} {'-':>7s} {'-':>7s} {'-':>7s}"
            if with_network:
                line += f" {'-':>7s}"
            if with_trace:
                line += f" {'-':>7s} {'-':>6s}"
            lines.append(
                f"{line}  FAILED ({error.get('exception', 'unknown error')})"
            )
            continue
        line = (
            f"{cols} {metric_from_json(summary.get('final_accuracy')):>7.3f} "
            f"{metric_from_json(summary.get('best_accuracy')):>7.3f} "
            f"{int(summary.get('rounds', 0)):>7d}"
        )
        if with_network:
            network = summary.get("network")
            if isinstance(network, dict):
                line += f" {format_percent(delivery_rate(network))}"
            else:
                line += f" {'-':>7s}"
        if with_trace:
            trace = summary.get("trace")
            if isinstance(trace, dict):
                # A zero-sent cell has no rate: worst_deliv is NaN
                # (nulled by the strict-JSON writer), rendered '-'.
                line += (
                    f" {format_percent(trace.get('worst_deliv'))}"
                    f" {int(trace.get('late', 0)):>6d}"
                )
            else:
                line += f" {'-':>7s} {'-':>6s}"
        lines.append(line)
    return "\n".join(lines)
