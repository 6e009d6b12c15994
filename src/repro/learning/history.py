"""Training history records produced by the learning loops."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.base import RoundEngine


@dataclass
class RoundRecord:
    """Metrics recorded after one global communication round.

    Attributes
    ----------
    round_index:
        0-based global round.
    accuracy:
        Test accuracy of the global model (centralized) or the mean test
        accuracy over honest clients (decentralized).
    loss:
        Mean training loss reported by honest clients this round.
    per_client_accuracy:
        Decentralized only: test accuracy of every honest client's model.
    gradient_disagreement:
        Decentralized only: diameter of the honest clients' aggregated
        gradient vectors after the agreement sub-rounds (how far from
        exact agreement they ended up).
    """

    round_index: int
    accuracy: float
    loss: float
    per_client_accuracy: Dict[int, float] = field(default_factory=dict)
    gradient_disagreement: Optional[float] = None


@dataclass
class TrainingHistory:
    """Sequence of per-round records plus experiment metadata.

    ``network_stats`` holds the cumulative delivery counters of the
    round engine the run executed on (sent / delivered / dropped /
    delayed / crash_omitted messages).  It stays empty under the
    synchronous scheduler, whose delivery is total by definition.

    ``delivery_trace`` is the same information *per engine round*: one
    sparse dictionary per executed round (``{"round": <monotone clock>,
    "sent": ..., "delivered": ..., ...}``, zero counters omitted), so a
    burst of drops or a crash window is visible as an event in time
    rather than a smeared cumulative total.  Also empty for synchronous
    runs.

    ``node_stats`` / ``node_delivery_trace`` resolve the same counters
    per *node* (receiver-attributed): cumulative ``(n,)`` lists per
    counter, and one per-round row of per-node deltas.  Populated only
    when the experiment opted in (``ExperimentConfig.node_trace``, batch
    message plane); each per-node list sums exactly to the matching
    aggregate counter.
    """

    setting: str
    aggregation: str
    attack: Optional[str]
    heterogeneity: str
    num_clients: int
    num_byzantine: int
    records: List[RoundRecord] = field(default_factory=list)
    network_stats: Dict[str, int] = field(default_factory=dict)
    delivery_trace: List[Dict[str, int]] = field(default_factory=list)
    node_stats: Dict[str, List[int]] = field(default_factory=dict)
    node_delivery_trace: List[Dict[str, object]] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add a round record (rounds must be appended in order)."""
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round records must be appended in increasing order")
        self.records.append(record)

    def record_delivery(self, engine: RoundEngine) -> None:
        """Copy the run's delivery counters and traces off its engine.

        Nothing is copied from a scheduler that records no stats (the
        synchronous one), and the per-node counters only when the engine
        traced them.
        """
        if not engine.records_stats:
            return
        self.network_stats = engine.stats_snapshot()
        self.delivery_trace = engine.trace_snapshot()
        if engine.node_trace:
            self.node_stats = engine.node_stats_snapshot()
            self.node_delivery_trace = engine.node_trace_snapshot()

    @property
    def rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self.records)

    def accuracies(self) -> List[float]:
        """Accuracy trace across rounds."""
        return [r.accuracy for r in self.records]

    def losses(self) -> List[float]:
        """Loss trace across rounds."""
        return [r.loss for r in self.records]

    def final_accuracy(self) -> float:
        """Accuracy after the last round (nan when nothing was recorded)."""
        return self.records[-1].accuracy if self.records else float("nan")

    def best_accuracy(self) -> float:
        """Best accuracy reached in any round (nan when nothing recorded)."""
        return max(self.accuracies()) if self.records else float("nan")
