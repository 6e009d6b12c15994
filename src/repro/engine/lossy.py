"""Lossy scheduler: seeded per-link message loss and crash windows.

Two failure modes compose here:

- **loss** — every (sender, receiver) link independently drops the
  message with probability ``drop_rate`` (seeded, so experiments are
  reproducible).  Self-delivery is reliable: a node always has its own
  value.
- **transient crashes** — ``crash_schedule`` lists ``(node, start,
  stop)`` windows measured on the engine's monotone round clock
  (:attr:`RoundEngine.rounds_executed`, which keeps counting across
  agreement exchanges).  While crashed, a node neither sends nor
  receives; at ``stop`` it recovers and rejoins with its current state.

Unlike Byzantine behaviour, these failures hit honest and faulty nodes
alike — they model the *network*, not the adversary.  Combined with
``require_quorum(..., policy="starve")`` the consumers stall a starved
node for a round instead of aborting, which is how the trainers survive
nonzero drop rates end to end.

Delivery accounting: ``sent == delivered + dropped + crash_omitted``
holds exactly.  Sends a crashed sender never performed are counted under
``suppressed`` (not ``sent``), and the per-link drop variate is drawn
with common random numbers — unconditionally, in a fixed link order — so
paired-seed scenarios remain comparable across crash schedules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.base import RoundEngine
from repro.network.batch import BatchInbox
from repro.network.reliable_broadcast import BroadcastPlan
from repro.utils.rng import SeedLike, as_generator

CrashWindow = Tuple[int, int, int]


def normalise_crash_schedule(
    schedule: Iterable[Sequence[int]], n: int
) -> Tuple[CrashWindow, ...]:
    """Validate and canonicalise ``(node, start, stop)`` crash windows."""
    windows: List[CrashWindow] = []
    for entry in schedule:
        if len(entry) != 3:
            raise ValueError(
                f"crash window must be (node, start, stop), got {tuple(entry)!r}"
            )
        node, start, stop = (int(v) for v in entry)
        if node < 0 or node >= n:
            raise ValueError(f"crash window node {node} out of range for n={n}")
        if start < 0 or stop <= start:
            raise ValueError(
                f"crash window rounds must satisfy 0 <= start < stop, got ({start}, {stop})"
            )
        windows.append((node, start, stop))
    return tuple(sorted(windows))


class LossyScheduler(RoundEngine):
    """Per-link drops plus transient crash/recovery windows.

    Parameters
    ----------
    drop_rate:
        Probability each non-self link loses its message, in ``[0, 1)``.
    crash_schedule:
        Iterable of ``(node, start, stop)`` windows (stop exclusive) on
        the engine's monotone round clock during which ``node`` is down.
    seed:
        Seed of the scheduler's drop generator.
    """

    records_stats = True

    def __init__(
        self,
        n: int,
        byzantine: Iterable[int] = (),
        *,
        drop_rate: float = 0.0,
        crash_schedule: Iterable[Sequence[int]] = (),
        seed: SeedLike = 0,
        require_full_broadcast: bool = True,
        node_trace: bool = False,
        topology=None,
    ) -> None:
        super().__init__(
            n, byzantine, require_full_broadcast=require_full_broadcast,
            node_trace=node_trace, topology=topology,
        )
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.drop_rate = float(drop_rate)
        self.crash_schedule = normalise_crash_schedule(crash_schedule, self.n)
        self._rng = as_generator(seed)
        #: Sends a crashed sender never performed — kept out of ``sent``
        #: so the delivery-rate denominator only counts real sends.
        self.stats["suppressed"] = 0

    def is_crashed(self, node: int, clock: Optional[int] = None) -> bool:
        """Whether ``node`` is inside a crash window at ``clock``."""
        at = self.rounds_executed if clock is None else int(clock)
        return any(
            node == crashed and start <= at < stop
            for crashed, start, stop in self.crash_schedule
        )

    def _deliver_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BatchInbox]:
        clock = self.rounds_executed
        batch = self._validated_batch(plans, round_index)
        if batch is None:
            return self._empty_batch_inboxes()
        n = self.n
        num_senders = batch.num_senders

        # Reliable fast path: nothing can fail, every receiver shares
        # one zero-copy view of the full batch.
        if batch.delivers is None and self.drop_rate == 0.0 and not self.crash_schedule:
            shared = BatchInbox.single(batch, batch.full_rows())
            self.stats["sent"] += num_senders * n
            self.stats["delivered"] += num_senders * n
            self._node_counter("sent")[:] += num_senders
            self._node_counter("delivered")[:] += num_senders
            return {node: shared for node in range(n)}

        delivers = batch.delivers_mask()
        receivers = np.arange(n)
        # Common random numbers: one vectorized fill walking (row,
        # receiver) coordinates in C order — sender-ascending, then
        # receiver-ascending, the pinned drop-stream order.  The variate
        # is drawn whether or not a crash voids the link (never for
        # self-delivery), so changing `crash_schedule` never reshuffles
        # which of the surviving links drop for a fixed seed.
        if self.drop_rate > 0.0:
            draw_mask = delivers & (batch.senders[:, None] != receivers[None, :])
            drops = np.zeros((num_senders, n), dtype=bool)
            variates = self._rng.random(size=int(np.count_nonzero(draw_mask)))
            drops[draw_mask] = variates < self.drop_rate
        else:
            drops = None

        if self.crash_schedule:
            sender_down = np.fromiter(
                (self.is_crashed(int(s), clock) for s in batch.senders),
                dtype=bool,
                count=num_senders,
            )
            receiver_down = np.fromiter(
                (self.is_crashed(r, clock) for r in range(n)), dtype=bool, count=n
            )
            suppressed = delivers & sender_down[:, None]
            sent = delivers & ~sender_down[:, None]
            crash_omitted = sent & receiver_down[None, :]
            alive = sent & ~receiver_down[None, :]
            self.stats["suppressed"] += int(np.count_nonzero(suppressed))
            self.stats["crash_omitted"] += int(np.count_nonzero(crash_omitted))
            self._node_counter("suppressed")[:] += suppressed.sum(axis=0, dtype=np.int64)
            self._node_counter("crash_omitted")[:] += crash_omitted.sum(
                axis=0, dtype=np.int64
            )
        else:
            sent = delivers
            alive = delivers

        if drops is not None:
            dropped = alive & drops
            delivered = alive & ~drops
            self.stats["dropped"] += int(np.count_nonzero(dropped))
            self._node_counter("dropped")[:] += dropped.sum(axis=0, dtype=np.int64)
        else:
            delivered = alive

        self.stats["sent"] += int(np.count_nonzero(sent))
        self.stats["delivered"] += int(np.count_nonzero(delivered))
        self._node_counter("sent")[:] += sent.sum(axis=0, dtype=np.int64)
        self._node_counter("delivered")[:] += delivered.sum(axis=0, dtype=np.int64)

        if delivered.all():
            shared = BatchInbox.single(batch, batch.full_rows())
            return {node: shared for node in range(n)}
        return {
            node: BatchInbox.single(batch, np.flatnonzero(delivered[:, node]))
            for node in range(n)
        }
