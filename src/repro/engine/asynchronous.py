"""Event-driven asynchronous scheduler: no delivery horizon.

The partially synchronous scheduler bounds every lag by a known horizon;
real asynchronous message processes have no such bound and are bursty
rather than uniformly delayed (MMPP-style traffic has a squared
coefficient of variation above one).  This scheduler models that
directly:

- **Arrival times, not lags.**  Every (sender, receiver) link draws a
  continuous delay from a seeded heavy-tailed (Pareto) distribution and
  the message is booked at ``send_time + delay`` on the engine's
  monotone round clock.  There is no cap: a message may arrive many
  rounds late.
- **Regime modulation.**  A two-state Markov chain (calm / bursty,
  advanced once per round) multiplies the drawn delays by
  ``burst_factor`` while the network is in the bursty regime — the
  MMPP-flavoured burstiness knob, exposed as the ``burstiness`` config
  field.
- **Wait conditions instead of a full inbox.**  With no horizon a node
  cannot know when "everything" has arrived, so consumers must state an
  explicit :class:`~repro.engine.base.WaitCondition` via
  :meth:`~repro.engine.base.RoundEngine.wait_for`: the node processes
  its round once ``count`` (or the quorum) messages have arrived, or
  after ``timeout_rounds`` of virtual waiting, whichever comes first —
  delivering *everything* arrived by that decision time.  Submitting a
  round without a wait condition is an error by design.

Common random numbers: the per-link delay variate is drawn for every
link of every round in a fixed order, whether or not an adversary pins
that link's lag through ``BroadcastPlan.delays``, so paired-seed
scenarios stay comparable across attack and wait-condition changes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.engine.base import RoundEngine
from repro.network.batch import BatchInbox, RoundBatch
from repro.network.reliable_broadcast import BroadcastPlan
from repro.utils.rng import SeedLike, as_generator


def _empty_links() -> Tuple[np.ndarray, ...]:
    """The in-flight store: six parallel link arrays.

    ``(arrival, send_round, sender, receiver, batch_id, row)`` — one
    entry per undelivered link, with ``batch_id`` indexing the engine's
    in-flight batch registry and ``row`` the link's row in that batch.
    """
    return (
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


class AsynchronousScheduler(RoundEngine):
    """Event-driven delivery with heavy-tailed, regime-modulated delays.

    Parameters
    ----------
    delay_scale:
        Scale of the Pareto delay (in rounds) while the network is calm.
    tail_index:
        Pareto tail exponent ``alpha > 1`` (smaller = heavier tail).
    burstiness:
        Per-round probability of entering the bursty regime, in
        ``[0, 1)``.  ``0`` disables modulation entirely.
    burst_factor:
        Delay multiplier while bursty.
    calm_prob:
        Per-round probability of leaving the bursty regime.
    timeout_rounds:
        Default wait timeout (virtual rounds past the round start) used
        when the wait condition does not pin its own.
    wait_count:
        Optional explicit message target installed as the initial wait
        condition (``0`` leaves it unset for consumers to fill in).
    seed:
        Seed of the scheduler's delay/regime generator.
    """

    records_stats = True

    def __init__(
        self,
        n: int,
        byzantine: Iterable[int] = (),
        *,
        delay_scale: float = 0.5,
        tail_index: float = 2.5,
        burstiness: float = 0.0,
        burst_factor: float = 6.0,
        calm_prob: float = 0.5,
        timeout_rounds: float = 4.0,
        wait_count: int = 0,
        seed: SeedLike = 0,
        require_full_broadcast: bool = True,
        node_trace: bool = False,
        topology=None,
    ) -> None:
        super().__init__(
            n, byzantine, require_full_broadcast=require_full_broadcast,
            node_trace=node_trace, topology=topology,
        )
        if delay_scale < 0.0:
            raise ValueError(f"delay_scale must be non-negative, got {delay_scale}")
        if tail_index <= 1.0:
            raise ValueError(
                f"tail_index must exceed 1 (finite-mean Pareto), got {tail_index}"
            )
        if not 0.0 <= burstiness < 1.0:
            raise ValueError(f"burstiness must be in [0, 1), got {burstiness}")
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        if not 0.0 < calm_prob <= 1.0:
            raise ValueError(f"calm_prob must be in (0, 1], got {calm_prob}")
        if timeout_rounds <= 0.0:
            raise ValueError(f"timeout_rounds must be positive, got {timeout_rounds}")
        if wait_count < 0:
            raise ValueError(f"wait_count must be non-negative, got {wait_count}")
        self.delay_scale = float(delay_scale)
        self.tail_index = float(tail_index)
        self.burstiness = float(burstiness)
        self.burst_factor = float(burst_factor)
        self.calm_prob = float(calm_prob)
        self.timeout_rounds = float(timeout_rounds)
        if wait_count:
            self.wait_for(count=wait_count)
        #: Timing attacks read the default wait window as their slack.
        self.horizon = max(1, int(math.ceil(self.timeout_rounds)))
        self.stats["expired_at_reset"] = 0
        self._rng = as_generator(seed)
        self._bursty = False
        # In flight: parallel link arrays plus a registry of the batches
        # those links reference (pruned as their last link delivers).
        self._pending_links: Tuple[np.ndarray, ...] = _empty_links()
        self._batches_in_flight: Dict[int, RoundBatch] = {}
        self._batch_seq = 0

    # -- delay model -----------------------------------------------------------
    def _advance_regime(self) -> None:
        """One step of the calm/bursty modulating chain (drawn every round)."""
        u = self._rng.random()
        if self._bursty:
            self._bursty = u >= self.calm_prob
        else:
            self._bursty = u < self.burstiness

    # -- wait-condition resolution --------------------------------------------
    def _wait_target(self) -> int:
        if self.wait.count is not None:
            return self.wait.count
        if self.wait.quorum:
            return self._min_honest_messages
        raise RuntimeError(
            "the asynchronous scheduler has no delivery horizon; consumers must "
            "state an explicit wait condition via wait_for(count=... | quorum=True) "
            "before submitting a round"
        )

    # -- delivery --------------------------------------------------------------
    def _deliver_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BatchInbox]:
        target = self._wait_target()  # fail fast, before any RNG draw
        n = self.n
        t0 = float(self.rounds_executed)
        batch = self._validated_batch(plans, round_index)
        self._advance_regime()

        arrival, send_round, sender, receiver, bid, row = self._pending_links
        fresh_arrival = np.empty(0, dtype=np.float64)
        fresh_recv = np.empty(0, dtype=np.int64)
        if batch is not None:
            num_senders = batch.num_senders
            if batch.delivers is None:
                row_idx = np.repeat(batch.full_rows(), n)
                recv_idx = np.tile(np.arange(n, dtype=np.int64), num_senders)
            else:
                coords = np.argwhere(batch.delivers)
                row_idx = coords[:, 0]
                recv_idx = coords[:, 1]
            k = int(row_idx.shape[0])
            # Common random numbers: one vectorized fill for the k
            # delivering links in C-order (sender asc, receiver asc),
            # drawn whether or not a pin or self-delivery overrides it.
            variates = self._rng.random(size=k)
            scale = self.delay_scale
            power = -1.0 / self.tail_index
            # The Pareto transform stays Python-float arithmetic: numpy's
            # SIMD pow kernel differs from scalar pow by an ulp on ~5% of
            # inputs, which would move the pinned streams.  The burst and
            # shift arithmetic below is elementwise and bitwise-stable.
            lags = np.fromiter(
                (scale * ((1.0 - u) ** power - 1.0) for u in variates.tolist()),
                dtype=np.float64,
                count=k,
            )
            if self._bursty:
                lags *= self.burst_factor
            link_senders = batch.senders[row_idx]
            lags[link_senders == recv_idx] = 0.0
            if any(delay_map for delay_map in batch.delays):
                keys = row_idx * n + recv_idx  # ascending (C-order coords)
                for i, delay_map in enumerate(batch.delays):
                    if delay_map:
                        for recv, pinned in delay_map.items():
                            if int(batch.senders[i]) == recv:
                                continue  # self-delivery wins over a pin
                            pos = int(np.searchsorted(keys, i * n + recv))
                            if pos < k and keys[pos] == i * n + recv:
                                lags[pos] = float(pinned)  # uncapped
            self.stats["sent"] += k
            self._node_counter("sent")[:] += np.bincount(recv_idx, minlength=n)
            fresh_arrival = t0 + lags
            fresh_recv = recv_idx
            batch_id = self._batch_seq
            self._batch_seq += 1
            self._batches_in_flight[batch_id] = batch
            arrival = np.concatenate([arrival, fresh_arrival])
            send_round = np.concatenate(
                [send_round, np.full(k, round_index, dtype=np.int64)]
            )
            sender = np.concatenate([sender, link_senders])
            receiver = np.concatenate([receiver, recv_idx])
            bid = np.concatenate([bid, np.full(k, batch_id, dtype=np.int64)])
            row = np.concatenate([row, row_idx])

        # Per receiver, deliver everything arrived by its decision time —
        # ``target`` arrivals or the timeout, never before the round
        # starts — in (arrival, send_round, sender) order: one global
        # lexsort with the receiver as outermost key.
        order = np.lexsort((sender, send_round, arrival, receiver))
        arr_sorted = arrival[order]
        recv_sorted = receiver[order]
        starts = np.searchsorted(recv_sorted, np.arange(n), side="left")
        ends = np.searchsorted(recv_sorted, np.arange(n), side="right")
        timeout = (
            self.wait.timeout_rounds
            if self.wait.timeout_rounds is not None
            else self.timeout_rounds
        )
        deadline = t0 + timeout
        decisions = np.full(n, deadline, dtype=np.float64)
        if target > 0:
            reached = (ends - starts) >= target
            decisions[reached] = np.minimum(
                deadline, np.maximum(t0, arr_sorted[starts[reached] + target - 1])
            )
        counts = np.empty(n, dtype=np.int64)
        for node in range(n):
            counts[node] = np.searchsorted(
                arr_sorted[starts[node] : ends[node]], decisions[node], side="right"
            )
        positions = np.arange(arr_sorted.shape[0], dtype=np.int64)
        arrived = (positions - starts[recv_sorted]) < counts[recv_sorted]

        num_delivered = int(np.count_nonzero(arrived))
        self.stats["delivered"] += num_delivered
        if num_delivered:
            self._node_counter("delivered")[:] += np.bincount(
                recv_sorted[arrived], minlength=n
            )
        if fresh_recv.size:
            late = fresh_arrival > decisions[fresh_recv]
            num_late = int(np.count_nonzero(late))
            if num_late:
                self.stats["delayed"] += num_late
                self._node_counter("delayed")[:] += np.bincount(
                    fresh_recv[late], minlength=n
                )

        bid_sorted = bid[order]
        row_sorted = row[order]
        keep = order[~arrived]
        self._pending_links = (
            arrival[keep], send_round[keep], sender[keep],
            receiver[keep], bid[keep], row[keep],
        )
        bids_present = np.unique(bid_sorted[arrived]) if num_delivered else bid_sorted[:0]
        local = np.searchsorted(bids_present, bid_sorted) if num_delivered else bid_sorted
        batches_tuple = tuple(
            self._batches_in_flight[int(key)] for key in bids_present
        )
        # Prune the registry to batches that still have links in flight
        # (the inboxes built below hold their own references).
        live = set(np.unique(self._pending_links[4]).tolist())
        self._batches_in_flight = {
            key: value for key, value in self._batches_in_flight.items() if key in live
        }
        empty = BatchInbox.empty()
        inboxes: Dict[int, BatchInbox] = {}
        for node in range(n):
            count = int(counts[node])
            if count == 0:
                inboxes[node] = empty
                continue
            segment = slice(starts[node], starts[node] + count)
            local_bids = local[segment]
            rows = row_sorted[segment]
            if local_bids[0] == local_bids[-1] and (
                count <= 2 or (local_bids == local_bids[0]).all()
            ):
                inboxes[node] = BatchInbox.single(
                    batches_tuple[int(local_bids[0])], rows
                )
            else:
                inboxes[node] = BatchInbox(batches_tuple, rows, local_bids)
        return inboxes

    # -- lifecycle -------------------------------------------------------------
    def pending_count(self) -> int:
        """Messages currently in flight (sent but not yet delivered)."""
        return int(self._pending_links[0].shape[0])

    def pending_count_per_node(self) -> np.ndarray:
        return np.bincount(self._pending_links[3], minlength=self.n).astype(np.int64)

    def reset(self) -> None:
        """Expire in-flight messages at the exchange boundary.

        Asynchrony never loses messages; ones still in flight when an
        exchange ends simply arrive too late to matter and are counted
        under ``expired_at_reset`` (never ``dropped``).
        """
        expired = self.pending_count()
        self.stats["expired_at_reset"] += expired
        if expired:
            self._node_counter("expired_at_reset")[:] += self.pending_count_per_node()
        self._pending_links = _empty_links()
        self._batches_in_flight.clear()
