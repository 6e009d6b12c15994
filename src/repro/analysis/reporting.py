"""Per-run readings and plain-text reporting of experiment results.

:func:`run_summary` is the one summary of a finished run: sweep rows
store it under ``"summary"`` and ``repro run`` prints its topology and
delivery lines from it.  The delivery, per-node and topology readings
it is built from live beside it, with the NaN-aware
:func:`format_percent` and ``repro compare``'s :func:`comparison_table`.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

from repro.analysis.traces import summarize_history
from repro.learning.history import TrainingHistory


def run_summary(history: TrainingHistory, topology) -> Dict[str, object]:
    """The compact reading of one run: accuracies, loss and delivery.

    ``topology`` is the run's sparse :class:`repro.network.topology.Topology`
    (``experiment_topology(config)``), or None on the complete graph.
    Keys beyond the accuracies, final loss and round count appear only
    when the run has something to report, so a synchronous
    complete-graph row keeps the pre-engine layout byte for byte:

    - ``network``: the engine's cumulative delivery counters
      (non-synchronous schedulers);
    - ``trace``: :func:`delivery_trace_summary` of the per-round trace;
    - ``node``: :func:`node_stats_summary` of the per-node counters
      (``node_trace`` runs);
    - ``topology``: :func:`topology_delivery_summary` (sparse graphs).
    """
    summary: Dict[str, object] = {
        "final_accuracy": history.final_accuracy(),
        "best_accuracy": history.best_accuracy(),
        "final_loss": history.losses()[-1] if history.records else None,
        "rounds": history.rounds,
    }
    if history.network_stats:
        summary["network"] = dict(history.network_stats)
    if history.delivery_trace:
        summary["trace"] = delivery_trace_summary(history.delivery_trace)
    if history.node_stats:
        summary["node"] = node_stats_summary(history.node_stats)
    if topology is not None:
        summary["topology"] = topology_delivery_summary(
            topology, history.node_stats
        )
    return summary


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
    messages that missed their send round).  The group table of
    :mod:`repro.analysis.streaming` aggregates the last two into its
    ``wrst%`` and ``late`` columns, next to the cumulative ``deliv%``.
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


def format_percent(value: object) -> str:
    """Seven-character rendering of a ``[0, 1]`` ratio as a percentage.

    The single NaN-aware formatter behind the group table's delivery
    columns and ``repro run``'s delivery lines: ``None`` (a non-finite
    value sanitised away by the strict-JSON writer) and ``NaN`` (nothing
    was sent, so no rate exists) render as ``-`` padded to the same
    width instead of the misaligned ``nan%``.
    """
    from repro.io.results import metric_from_json

    number = metric_from_json(value) if not isinstance(value, float) else value
    if math.isnan(number):
        return f"{'-':>7s}"
    return f"{100.0 * number:>6.1f}%"


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
    for label, history in histories.items():
        summary = summarize_history(history, num_classes=num_classes)
        lines.append(
            f"{label:<14s} {summary.final:>7.3f} {summary.best:>7.3f} "
            f"{summary.smoothed_final:>9.3f} {summary.classification:>12s}"
        )
    return "\n".join(lines)
