"""Array-backed batch delivery plane.

Every scheduler delivers through this plane.  A round has one dense
representation, never one object per delivered (sender, receiver) link:

- :class:`RoundBatch` — the round's ``(S, d)`` read-only payload matrix
  (one row per speaking sender, sender-ascending), the ``(S,)`` sender
  ids, the optional ``(S, n)`` boolean delivery mask (``None`` means
  every sender broadcasts to all), and per-row adversarial delay maps.
- :class:`BatchInbox` — a receiver's immutable reference into one or
  more batches: ``(batch, row)`` index pairs from which
  :meth:`BatchInbox.senders` and :meth:`BatchInbox.matrix` read the
  delivered sender ids and the received ``(m, d)`` stack — zero-copy
  when a receiver delivered an entire batch in order.

The payload matrix is a read-only copy of the plans' payloads, so a
sender cannot change what was delivered after the round was built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class RoundBatch:
    """One round's broadcast traffic in array form.

    Attributes
    ----------
    n:
        Number of nodes in the engine (width of the delivery mask).
    senders:
        ``(S,)`` int64, strictly ascending — the speaking senders.
    payloads:
        ``(S, d)`` float64, C-contiguous, read-only.  Row ``i`` is the
        payload of ``senders[i]``.
    delivers:
        ``(S, n)`` bool mask (``delivers[i, r]`` — does receiver ``r``
        deliver row ``i``), or ``None`` when every row broadcasts to all
        (the honest common case, kept implicit so full broadcasts cost
        no mask at all).
    delays:
        Per-row adversarial delay maps (``None`` for rows without one).
    """

    __slots__ = ("n", "senders", "payloads", "delivers", "delays")

    def __init__(
        self,
        n: int,
        senders: np.ndarray,
        payloads: np.ndarray,
        delivers: Optional[np.ndarray],
        delays: Tuple[Optional[Dict[int, int]], ...],
    ) -> None:
        self.n = int(n)
        self.senders = senders
        self.payloads = payloads
        self.delivers = delivers
        self.delays = delays

    @property
    def num_senders(self) -> int:
        return int(self.senders.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.payloads.shape[1])

    def delivers_mask(self) -> np.ndarray:
        """The ``(S, n)`` delivery mask, materialised if implicit."""
        if self.delivers is not None:
            return self.delivers
        return np.ones((self.num_senders, self.n), dtype=bool)

    def full_rows(self) -> np.ndarray:
        """Row index array selecting the whole batch (cached arange)."""
        return np.arange(self.num_senders, dtype=np.int64)

    def restrict(self, mask: np.ndarray) -> None:
        """Intersect delivery with an ``(n, n)`` link mask in place.

        ``mask[s, r]`` gates whether sender ``s`` can reach receiver
        ``r`` at all — this is how a sparse :class:`~repro.network.
        topology.Topology` composes with the schedulers' own drop /
        crash / delay masks: the topology cut happens once here, before
        any scheduler looks at :attr:`delivers`.  A full-broadcast batch
        (``delivers is None``) materialises its mask from the topology
        rows; an already-restricted batch intersects in place.
        """
        selected = mask[self.senders]  # fancy index -> fresh (S, n) array
        if self.delivers is None:
            self.delivers = selected
        else:
            self.delivers &= selected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundBatch(senders={self.num_senders}, d={self.dimension}, "
            f"masked={self.delivers is not None})"
        )


def build_round_batch(
    by_sender: Dict[int, object], round_index: int, n: int
) -> Optional[RoundBatch]:
    """Materialise one :class:`RoundBatch` from validated plans.

    ``by_sender`` maps sender id to its (already validated)
    :class:`~repro.network.reliable_broadcast.BroadcastPlan`; silent
    plans (``payload is None``) contribute no row.  Returns ``None``
    when no sender speaks.  All payloads must share one dimension; a
    mismatch is rejected here, before any receiver stacks its inbox.
    """
    speaking = [s for s in sorted(by_sender) if by_sender[s].payload is not None]
    if not speaking:
        return None
    first = by_sender[speaking[0]].payload
    d = int(first.shape[0])
    payloads = np.empty((len(speaking), d), dtype=np.float64)
    delays: List[Optional[Dict[int, int]]] = []
    delivers: Optional[np.ndarray] = None
    for i, sender in enumerate(speaking):
        plan = by_sender[sender]
        payload = plan.payload
        if payload.shape[0] != d:
            raise ValueError(
                f"payload dimension mismatch in round {round_index}: sender "
                f"{speaking[0]} sent d={d}, sender {sender} sent d={payload.shape[0]}"
            )
        payloads[i] = payload
        delays.append(plan.delays)
        if plan.recipients is not None and delivers is None:
            delivers = np.zeros((len(speaking), n), dtype=bool)
            delivers[:i] = True  # earlier rows were full broadcasts
        if delivers is not None:
            if plan.recipients is None:
                delivers[i] = True
            else:
                delivers[i, list(plan.recipients)] = True
    payloads.setflags(write=False)
    return RoundBatch(
        n=n,
        senders=np.asarray(speaking, dtype=np.int64),
        payloads=payloads,
        delivers=delivers,
        delays=tuple(delays),
    )


class BatchInbox:
    """One receiver's delivered payloads, stored as batch references.

    Row ``k`` of the inbox is row ``rows[k]`` of batch
    ``batches[bids[k]]`` (of ``batches[0]`` when ``bids`` is ``None``),
    in delivery order.  Nothing is materialised per message: consumers
    read :meth:`senders` and :meth:`matrix`.  An inbox never changes
    after construction, so the same object handed to several receivers
    stands for one stack.
    """

    __slots__ = ("batches", "rows", "bids")

    def __init__(
        self,
        batches: Tuple[RoundBatch, ...],
        rows: np.ndarray,
        bids: Optional[np.ndarray] = None,
    ) -> None:
        self.batches = batches
        self.rows = rows
        self.bids = bids

    @classmethod
    def empty(cls) -> "BatchInbox":
        return cls((), np.empty(0, dtype=np.int64))

    @classmethod
    def single(cls, batch: RoundBatch, rows: np.ndarray) -> "BatchInbox":
        return cls((batch,), rows)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def senders(self) -> List[int]:
        """Sender ids in delivery order."""
        if self.bids is None:
            if not self.batches:
                return []
            return self.batches[0].senders[self.rows].tolist()
        return [
            int(self.batches[int(b)].senders[int(r)])
            for b, r in zip(self.bids, self.rows)
        ]

    def matrix(self) -> np.ndarray:
        """The received ``(m, d)`` payload stack in delivery order.

        A receiver that delivered a whole batch in order gets the
        shared read-only payload matrix itself (zero-copy); other
        single-batch inboxes take one gather, and multi-batch inboxes
        (cross-round stragglers) gather per batch.
        """
        if len(self) == 0:
            raise ValueError("cannot build a matrix from an empty inbox")
        if self.bids is None:
            batch, rows = self.batches[0], self.rows
            if rows.shape[0] == batch.num_senders and int(rows[0]) == 0 and (
                np.array_equal(rows, batch.full_rows())
            ):
                return batch.payloads
            return batch.payloads[rows]
        out = np.empty((len(self), self.batches[0].dimension), dtype=np.float64)
        for bid, batch in enumerate(self.batches):
            mask = self.bids == bid
            if mask.any():
                out[mask] = batch.payloads[self.rows[mask]]
        return out
