"""The :class:`RoundEngine` protocol every scheduler implements.

A round engine owns the *timing model* of a multi-round protocol: per
round it collects one :class:`~repro.network.reliable_broadcast.BroadcastPlan`
per node, decides which (sender, receiver) links deliver *now* and which
deliver later (or never), and hands each node its inbox as a
:class:`~repro.network.delivery.RoundResult`.  Consumers — the agreement
protocol, both trainers — submit plans and consume inboxes; they never
reimplement delivery.

Concrete schedulers:

- :class:`~repro.engine.synchronous.SynchronousScheduler` — lock-step
  delivery, the paper's model;
- :class:`~repro.engine.partial.PartiallySynchronousScheduler` —
  per-link random delays bounded by a delivery horizon;
- :class:`~repro.engine.lossy.LossyScheduler` — seeded per-link message
  loss plus transient crash/recovery windows;
- :class:`~repro.engine.asynchronous.AsynchronousScheduler` —
  event-driven delivery with no horizon: heavy-tailed regime-modulated
  arrival times and explicit per-node :class:`WaitCondition`s.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.batch import BatchInbox, RoundBatch, build_round_batch
from repro.network.delivery import (
    AdversaryPlanFn,
    HonestPlanFn,
    RoundResult,
    collect_plans,
    enforce_quorum,
)
from repro.network.reliable_broadcast import BroadcastPlan, ReliableBroadcast
from repro.network.topology import Topology


@dataclass(frozen=True)
class WaitCondition:
    """When a node stops waiting for its round inbox.

    Horizon-based schedulers (synchronous, partial, lossy) decide
    delivery on their own and ignore this; the event-driven
    :class:`~repro.engine.asynchronous.AsynchronousScheduler` has no
    delivery horizon, so every consumer must state explicitly how long a
    node waits before processing whatever has arrived:

    - ``count`` — wait until this many messages (own delivery included)
      have arrived for the round;
    - ``quorum`` — wait until the engine's configured quorum
      (:meth:`RoundEngine.require_quorum`) has arrived;
    - ``timeout_rounds`` — never wait longer than this many rounds of
      virtual time past the round start, whether or not the target was
      reached (``None`` falls back to the scheduler's default).

    ``count`` wins over ``quorum`` when both are set, which lets an
    experiment config pin an explicit count while consumers request the
    quorum reading as their default.
    """

    count: Optional[int] = None
    quorum: bool = False
    timeout_rounds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count is not None and self.count < 0:
            raise ValueError(f"wait count must be non-negative, got {self.count}")
        if self.timeout_rounds is not None and self.timeout_rounds <= 0:
            raise ValueError(
                f"wait timeout_rounds must be positive, got {self.timeout_rounds}"
            )


class RoundEngine(abc.ABC):
    """Scheduler-pluggable round executor for ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes.
    byzantine:
        Ids of Byzantine nodes.
    require_full_broadcast:
        Forwarded to :class:`ReliableBroadcast`: ``True`` (default)
        enforces the agreement protocols' full-broadcast contract on
        honest senders; ``False`` admits star-shaped exchanges where an
        honest plan addresses a single receiver.
    node_trace:
        When true, the engine additionally records one *per-node* delta
        row per round (see :meth:`node_trace_snapshot`) on top of the
        cumulative per-node counters it always maintains.
    topology:
        Optional :class:`~repro.network.topology.Topology` restricting
        which (sender, receiver) links exist at all.  ``None`` (and the
        complete topology — detected, so ``topology="complete"`` stays
        bitwise-identical to no topology) means all-to-all.  A sparse
        topology's mask is intersected with each round's delivery mask
        *before* the scheduler's own drop/crash/delay decisions, so
        drop-rate and delay RNG draws only cover links that exist — the
        topology cut composes with, never replaces, the timing model.
    """

    #: Extra rounds a message may lag behind its send round (0 = lock-step).
    horizon: int = 0
    #: Whether this scheduler produces delivery statistics worth reporting.
    records_stats: bool = False

    def __init__(
        self,
        n: int,
        byzantine: Iterable[int] = (),
        *,
        require_full_broadcast: bool = True,
        node_trace: bool = False,
        topology: Optional[Topology] = None,
    ) -> None:
        self.broadcast = ReliableBroadcast(
            n, byzantine, require_full_broadcast=require_full_broadcast
        )
        self.node_trace = bool(node_trace)
        self.n = self.broadcast.n
        self.byzantine = self.broadcast.byzantine
        self.honest = tuple(sorted(set(range(self.n)) - set(self.byzantine)))
        self._min_honest_messages = 0
        self._quorum_policy = "raise"
        self.stats: Dict[str, int] = {
            "sent": 0, "delivered": 0, "dropped": 0, "delayed": 0, "crash_omitted": 0,
        }
        #: Per-round delivery deltas (see :meth:`trace_snapshot`); only
        #: populated by schedulers whose delivery is worth reporting.
        self.traces: List[Dict[str, int]] = []
        #: Cumulative per-node counters, receiver-attributed: for every
        #: counter key, an ``(n,)`` int64 array whose entry ``r`` counts
        #: the links *addressed to* node ``r`` with that outcome (columns
        #: sum to the matching :attr:`stats` entry).
        self.node_stats: Dict[str, np.ndarray] = {}
        #: Per-round per-node delta rows (populated when ``node_trace``).
        self.node_traces: List[Dict[str, object]] = []
        if topology is not None:
            if not isinstance(topology, Topology):
                raise TypeError(
                    f"topology must be a Topology or None, got {type(topology).__name__}"
                )
            if topology.n != self.n:
                raise ValueError(
                    f"topology is over n={topology.n} nodes but the engine has n={self.n}"
                )
        self.topology = topology
        # A complete topology resolves to no mask at all, keeping the
        # default path bitwise-identical to an engine without a topology.
        self._topology_mask: Optional[np.ndarray] = (
            None if topology is None or topology.is_complete else topology.mask
        )
        self.wait = WaitCondition()
        #: Monotone count of rounds this engine has executed, across
        #: exchanges.  Crash schedules are expressed against this clock,
        #: so a window covers wall-clock training rounds even when the
        #: per-exchange ``round_index`` restarts at 0 every iteration.
        self.rounds_executed = 0

    # -- configuration --------------------------------------------------------
    def require_quorum(self, quorum: int, *, policy: str = "raise") -> None:
        """Require every honest node to deliver at least ``quorum`` messages.

        ``policy="raise"`` aborts the round when violated (the
        synchronous reading, where a shortfall is a protocol bug);
        ``policy="starve"`` instead marks the short-changed nodes on the
        :class:`RoundResult` so the protocol can stall them for a round.
        """
        if quorum < 0:
            raise ValueError("quorum must be non-negative")
        if policy not in ("raise", "starve"):
            raise ValueError(f"unknown quorum policy {policy!r}")
        self._min_honest_messages = int(quorum)
        self._quorum_policy = policy

    def wait_for(
        self,
        *,
        count: Optional[int] = None,
        quorum: Optional[bool] = None,
        timeout_rounds: Optional[float] = None,
    ) -> WaitCondition:
        """Set (merge into) the engine's per-node wait condition.

        Only the provided fields are updated, so a consumer requesting
        the quorum reading (``wait_for(quorum=True)``) never clobbers an
        explicit ``count`` the experiment configuration pinned earlier.
        Horizon-based schedulers store but ignore the condition; the
        asynchronous scheduler refuses to run without one.  Returns the
        merged condition.
        """
        self.wait = WaitCondition(
            count=self.wait.count if count is None else int(count),
            quorum=self.wait.quorum if quorum is None else bool(quorum),
            timeout_rounds=(
                self.wait.timeout_rounds
                if timeout_rounds is None
                else float(timeout_rounds)
            ),
        )
        return self.wait

    # -- execution ------------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        honest_plan: HonestPlanFn,
        adversary_plan: Optional[AdversaryPlanFn] = None,
    ) -> RoundResult:
        """Collect one plan per node and execute one scheduled round."""
        plans = collect_plans(
            self.honest, self.byzantine, round_index, honest_plan, adversary_plan
        )
        return self.submit(plans, round_index)

    def submit(self, plans: Sequence[BroadcastPlan], round_index: int) -> RoundResult:
        """Deliver pre-built plans for one round (the lower-level entry).

        Callers with a non-broadcast round structure (the centralized
        trainer's star exchange) build their plans directly and submit
        them here; :meth:`run_round` is the full-broadcast convenience
        wrapper on top.
        """
        before = dict(self.stats) if self.records_stats else None
        node_before = (
            {key: arr.copy() for key, arr in self.node_stats.items()}
            if self.node_trace
            else None
        )
        inboxes = self._deliver_batch(plans, round_index)
        if before is not None:
            # One sparse delta row per executed round, stamped with the
            # engine's monotone clock: sent/delivered/delayed/dropped for
            # this round, plus whatever scheduler-specific counters moved.
            delta = {
                key: value - before.get(key, 0)
                for key, value in self.stats.items()
                if value - before.get(key, 0)
            }
            self.traces.append({"round": self.rounds_executed, **delta})
        if node_before is not None:
            node_delta: Dict[str, object] = {}
            for key, arr in self.node_stats.items():
                moved = arr - node_before.get(key, 0)
                if moved.any():
                    node_delta[key] = moved
            self.node_traces.append({"round": self.rounds_executed, **node_delta})
        self.rounds_executed += 1
        starved = enforce_quorum(
            inboxes,
            self.honest,
            self._min_honest_messages,
            round_index,
            policy=self._quorum_policy,
        )
        return RoundResult(round_index=round_index, inboxes=inboxes, starved=starved)

    @abc.abstractmethod
    def _deliver_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BatchInbox]:
        """Deliver one round's plans: one inbox per node, in delivery order."""
        raise NotImplementedError

    def _validated_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Optional[RoundBatch]:
        """Validate plans and build this round's batch (``None`` if silent).

        Validation is :meth:`ReliableBroadcast.plans_by_sender`, the same
        check the lock-step reference applies; a sparse topology cuts
        its links here, before any scheduler decision.
        """
        by_sender = self.broadcast.plans_by_sender(plans, round_index)
        batch = build_round_batch(by_sender, round_index, self.n)
        if batch is not None and self._topology_mask is not None:
            batch.restrict(self._topology_mask)
        return batch

    def _empty_batch_inboxes(self) -> Dict[int, BatchInbox]:
        empty = BatchInbox.empty()
        return {node: empty for node in range(self.n)}

    def _node_counter(self, key: str) -> np.ndarray:
        """The cumulative per-node array for ``key`` (created on demand)."""
        counter = self.node_stats.get(key)
        if counter is None:
            counter = np.zeros(self.n, dtype=np.int64)
            self.node_stats[key] = counter
        return counter

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh exchange: drop any in-flight state.

        A no-op for schedulers without cross-round state; the ones that
        hold pending delayed messages override it.  Cumulative
        :attr:`stats` survive so a whole training run can be summarised.
        """

    def stats_snapshot(self) -> Dict[str, int]:
        """Copy of the cumulative delivery counters."""
        return dict(self.stats)

    def node_stats_snapshot(self) -> Dict[str, List[int]]:
        """Cumulative per-node counters as plain lists.

        Receiver-attributed: entry ``r`` of ``"sent"`` counts the
        messages addressed to (and actually sent towards) node ``r``, so
        the per-node conservation identity mirrors the aggregate one —
        e.g. ``sent == delivered + dropped + crash_omitted`` per node
        under the lossy scheduler, ``sent == delivered +
        expired_at_reset + pending`` under partial/asynchronous.
        """
        return {key: arr.tolist() for key, arr in self.node_stats.items()}

    def node_trace_snapshot(self) -> List[Dict[str, object]]:
        """Per-round per-node delta rows (requires ``node_trace=True``).

        One row per executed round: ``{"round": <monotone clock>,
        <counter>: [n per-node deltas], ...}`` with all-zero counters
        omitted.  Each counter list sums to the matching entry of the
        per-round aggregate trace row (:meth:`trace_snapshot`) — an exact
        aggregation identity.
        """
        return [
            {
                key: (value.tolist() if isinstance(value, np.ndarray) else value)
                for key, value in row.items()
            }
            for row in self.node_traces
        ]

    def pending_count_per_node(self) -> np.ndarray:
        """In-flight messages per receiver (``(n,)``; zero by default)."""
        return np.zeros(self.n, dtype=np.int64)

    def trace_snapshot(self) -> List[Dict[str, int]]:
        """Copy of the per-round delivery trace.

        One sparse dictionary per executed round: ``{"round": <monotone
        clock>, "sent": ..., "delivered": ..., ...}`` with zero counters
        omitted.  Empty for schedulers that do not record stats.  Traces
        survive :meth:`reset` — they summarise a whole training run,
        exchange boundaries included.
        """
        return [dict(row) for row in self.traces]

    def trace_tail(self) -> Tuple[Dict[str, int], ...]:
        """The trace tail a rushing adversary may observe.

        The single definition of the engine-to-attack exposure contract
        (:attr:`repro.byzantine.base.AttackContext.delivery_trace`): the
        last :data:`~repro.byzantine.base.DELIVERY_TRACE_WINDOW` rows,
        most recent last.
        """
        from repro.byzantine.base import DELIVERY_TRACE_WINDOW

        return tuple(self.traces[-DELIVERY_TRACE_WINDOW:])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, byzantine={sorted(self.byzantine)})"
