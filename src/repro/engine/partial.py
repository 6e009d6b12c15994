"""Partially synchronous scheduler: bounded per-link delivery delays.

Messages are never lost, but each (sender, receiver) link may hold a
delivery back for a random number of rounds bounded by the **delivery
horizon** ``max_delay``.  A message sent in round ``r`` therefore
arrives in some round ``r' in [r, r + max_delay]`` — the classical
partially synchronous model with a known bound.  Late messages are
merged into the receiving round's inbox *ahead* of that round's fresh
messages (they are older), ordered by (send round, sender id), which
keeps executions deterministic for a fixed seed.

A timing-aware adversary (see :mod:`repro.byzantine.timing`) can pin the
lag of its own links through ``BroadcastPlan.delays``; honest links are
delayed by the network RNG alone.  Self-delivery is immediate — a node
does not wait for its own message.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.engine.base import RoundEngine
from repro.network.batch import BatchInbox, RoundBatch
from repro.network.reliable_broadcast import BroadcastPlan
from repro.utils.rng import SeedLike, as_generator

#: One delayed link group: (send_round, batch, row indices, receiver
#: indices) with the two index arrays parallel and stored in
#: (row-ascending, receiver-ascending) order.
_PendingGroup = Tuple[int, RoundBatch, np.ndarray, np.ndarray]


class PartiallySynchronousScheduler(RoundEngine):
    """Per-link RNG-driven delays with a delivery horizon.

    Parameters
    ----------
    max_delay:
        Delivery horizon: the largest number of rounds any link may lag.
    delay_prob:
        Probability that a given link is slow this round (drawn per
        link per round); a slow link's lag is uniform on
        ``[1, max_delay]``.
    seed:
        Seed of the scheduler's own generator — independent from the
        experiment's honest and adversarial streams.
    """

    records_stats = True

    def __init__(
        self,
        n: int,
        byzantine: Iterable[int] = (),
        *,
        max_delay: int = 1,
        delay_prob: float = 0.5,
        seed: SeedLike = 0,
        require_full_broadcast: bool = True,
        node_trace: bool = False,
        topology=None,
    ) -> None:
        super().__init__(
            n, byzantine, require_full_broadcast=require_full_broadcast,
            node_trace=node_trace, topology=topology,
        )
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        if not 0.0 <= delay_prob <= 1.0:
            raise ValueError(f"delay_prob must be in [0, 1], got {delay_prob}")
        self.max_delay = int(max_delay)
        self.horizon = self.max_delay
        self.delay_prob = float(delay_prob)
        self._rng = as_generator(seed)
        #: In-flight messages flushed at exchange boundaries.  Kept apart
        #: from ``dropped`` (this model never loses a message in transit)
        #: so ``sent == delivered + expired_at_reset + pending`` holds.
        self.stats["expired_at_reset"] = 0
        # Arrival round -> delayed link groups.
        self._pending_batches: Dict[int, List[_PendingGroup]] = {}

    def _deliver_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BatchInbox]:
        n = self.n
        batch = self._validated_batch(plans, round_index)
        groups = self._pending_batches.pop(round_index, [])
        if groups:
            # Older messages first; one group per send round, each group
            # already (row asc, receiver asc), so sorting groups by send
            # round yields the (send_round, sender) pending order inside
            # every receiver's inbox.
            groups.sort(key=lambda group: group[0])
            delivered_pending = sum(group[2].shape[0] for group in groups)
            self.stats["delivered"] += delivered_pending
            pending_per_node = np.zeros(n, dtype=np.int64)
            for _send_round, _batch, _rows, recvs in groups:
                pending_per_node += np.bincount(recvs, minlength=n)
            self._node_counter("delivered")[:] += pending_per_node

        if batch is None:
            if not groups:
                return self._empty_batch_inboxes()
            now_mask = None
        else:
            num_senders = batch.num_senders
            receivers = np.arange(n)
            active = batch.delivers  # None means every link is live
            lag = np.zeros((num_senders, n), dtype=np.int64)
            # Links whose lag is decided without touching the RNG:
            # self-delivery (always immediate, wins over a pinned delay)
            # and adversary-pinned delays (capped at the horizon).
            nodraw = batch.senders[:, None] == receivers[None, :]
            for i, delay_map in enumerate(batch.delays):
                if delay_map:
                    for recv, pinned in delay_map.items():
                        if not nodraw[i, recv]:
                            lag[i, recv] = min(int(pinned), self.max_delay)
                            nodraw[i, recv] = True
            if self.max_delay > 0 and self.delay_prob > 0.0:
                draw_mask = ~nodraw if active is None else (active & ~nodraw)
                rng = self._rng
                prob = self.delay_prob
                high = self.max_delay + 1
                flat_lag = lag.reshape(-1)
                positions = np.flatnonzero(draw_mask.reshape(-1))
                # The pinned stream interleaves a per-link uniform with a
                # *conditional* integers() draw, so this stays a scalar
                # loop — but only over the drawing links, walked in
                # C-order (sender asc, receiver asc).
                for pos in positions.tolist():
                    if rng.random() < prob:
                        flat_lag[pos] = int(rng.integers(1, high))
            lag_zero = lag == 0
            if active is None:
                now_mask = lag_zero
                delayed_mask = ~lag_zero
                sent_per_node = np.full(n, num_senders, dtype=np.int64)
            else:
                now_mask = active & lag_zero
                delayed_mask = active & ~lag_zero
                sent_per_node = active.sum(axis=0, dtype=np.int64)
            self.stats["sent"] += int(sent_per_node.sum())
            self._node_counter("sent")[:] += sent_per_node
            num_now = int(np.count_nonzero(now_mask))
            self.stats["delivered"] += num_now
            self._node_counter("delivered")[:] += now_mask.sum(axis=0, dtype=np.int64)
            num_delayed = int(np.count_nonzero(delayed_mask))
            if num_delayed:
                self.stats["delayed"] += num_delayed
                self._node_counter("delayed")[:] += delayed_mask.sum(
                    axis=0, dtype=np.int64
                )
                for lag_value in range(1, self.max_delay + 1):
                    late = delayed_mask & (lag == lag_value)
                    if late.any():
                        rows, recvs = np.nonzero(late)
                        self._pending_batches.setdefault(
                            round_index + lag_value, []
                        ).append(
                            (
                                round_index,
                                batch,
                                rows.astype(np.int64, copy=False),
                                recvs.astype(np.int64, copy=False),
                            )
                        )
            if not groups:
                if num_delayed == 0 and active is None:
                    shared = BatchInbox.single(batch, batch.full_rows())
                    return {node: shared for node in range(n)}
                recv_idx, row_idx = np.nonzero(now_mask.T)
                bounds = np.searchsorted(recv_idx, np.arange(n + 1))
                return {
                    node: BatchInbox.single(
                        batch, row_idx[bounds[node] : bounds[node + 1]]
                    )
                    for node in range(n)
                }

        # Straggler path: merge pending groups (oldest first) ahead of
        # this round's fresh deliveries, per receiver.
        batches: List[RoundBatch] = [group[1] for group in groups]
        prepared = []
        for _send_round, _batch, rows, recvs in groups:
            order = np.argsort(recvs, kind="stable")  # keeps sender order
            bounds = np.searchsorted(recvs[order], np.arange(n + 1))
            prepared.append((rows[order], bounds))
        if batch is not None and now_mask is not None:
            batches.append(batch)
            recv_idx, row_idx = np.nonzero(now_mask.T)
            bounds = np.searchsorted(recv_idx, np.arange(n + 1))
            prepared.append((row_idx, bounds))
        batches_tuple = tuple(batches)
        empty = BatchInbox.empty()
        inboxes: Dict[int, BatchInbox] = {}
        for node in range(n):
            part_rows: List[np.ndarray] = []
            part_bids: List[np.ndarray] = []
            for bid, (rows_sorted, bounds) in enumerate(prepared):
                segment = rows_sorted[bounds[node] : bounds[node + 1]]
                if segment.size:
                    part_rows.append(segment)
                    part_bids.append(np.full(segment.size, bid, dtype=np.int64))
            if not part_rows:
                inboxes[node] = empty
            elif len(part_rows) == 1:
                bid = int(part_bids[0][0])
                inboxes[node] = BatchInbox.single(batches_tuple[bid], part_rows[0])
            else:
                inboxes[node] = BatchInbox(
                    batches_tuple,
                    np.concatenate(part_rows),
                    np.concatenate(part_bids),
                )
        return inboxes

    def pending_count(self) -> int:
        """Messages currently in flight (sent but not yet delivered)."""
        return sum(
            group[2].shape[0]
            for groups in self._pending_batches.values()
            for group in groups
        )

    def pending_count_per_node(self) -> np.ndarray:
        counts = np.zeros(self.n, dtype=np.int64)
        for groups in self._pending_batches.values():
            for _send_round, _batch, _rows, recvs in groups:
                counts += np.bincount(recvs, minlength=self.n)
        return counts

    def reset(self) -> None:
        """Expire in-flight messages at the exchange boundary.

        An exchange boundary is a synchronisation point: messages still
        in flight when the exchange ends never reach their receivers.
        They are booked under ``expired_at_reset`` — never ``dropped``,
        because this model's contract is that the network itself loses
        nothing — keeping ``sent == delivered + expired_at_reset +
        pending`` consistent across exchanges.
        """
        expired = self.pending_count()
        self.stats["expired_at_reset"] += expired
        if expired:
            self._node_counter("expired_at_reset")[:] += self.pending_count_per_node()
        self._pending_batches.clear()
