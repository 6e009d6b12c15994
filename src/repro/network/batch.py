"""Array-backed batch message plane.

Every scheduler delivers through this plane.  Materialising one
:class:`~repro.network.message.Message` per delivered (sender, receiver)
link would let per-message validation, payload copies and list churn
dominate simulation cost long before the linear algebra does; instead a
round has one dense representation:

- :class:`RoundBatch` — the round's ``(S, d)`` payload matrix (one row
  per speaking sender, sender-ascending), the ``(S,)`` sender ids, the
  optional ``(S, n)`` boolean delivery mask (``None`` means every sender
  broadcasts to all), and per-row metadata / adversarial delay maps.
- :class:`BatchInbox` — a receiver's view into one or more batches: a
  :class:`~collections.abc.Sequence` of messages that stores only
  ``(batch, row)`` index pairs and materialises ``Message`` objects
  lazily (the thin compatibility view), while
  :meth:`BatchInbox.matrix` gathers the received ``(m, d)`` stack with
  one fancy-index per batch — zero-copy when a receiver delivered an
  entire batch in order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.message import Message


class RoundBatch:
    """One round's broadcast traffic in array form.

    Attributes
    ----------
    round_index:
        The send round of every row.
    n:
        Number of nodes in the engine (width of the delivery mask).
    senders:
        ``(S,)`` int64, strictly ascending — the speaking senders.
    payloads:
        ``(S, d)`` float64, C-contiguous, read-only.  Row ``i`` is the
        payload of ``senders[i]``; message views alias these rows.
    delivers:
        ``(S, n)`` bool mask (``delivers[i, r]`` — does receiver ``r``
        deliver row ``i``), or ``None`` when every row broadcasts to all
        (the honest common case, kept implicit so full broadcasts cost
        no mask at all).
    metadata:
        Per-row plan metadata mappings (copied into each materialised
        ``Message``).
    delays:
        Per-row adversarial delay maps (``None`` for rows without one).
    """

    __slots__ = (
        "round_index", "n", "senders", "payloads", "delivers",
        "metadata", "delays",
    )

    def __init__(
        self,
        round_index: int,
        n: int,
        senders: np.ndarray,
        payloads: np.ndarray,
        delivers: Optional[np.ndarray],
        metadata: Tuple[dict, ...],
        delays: Tuple[Optional[Dict[int, int]], ...],
    ) -> None:
        self.round_index = int(round_index)
        self.n = int(n)
        self.senders = senders
        self.payloads = payloads
        self.delivers = delivers
        self.metadata = metadata
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
            f"RoundBatch(round={self.round_index}, senders={self.num_senders}, "
            f"d={self.dimension}, masked={self.delivers is not None})"
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
    metadata: List[dict] = []
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
        metadata.append(plan.metadata)
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
        round_index=round_index,
        n=n,
        senders=np.asarray(speaking, dtype=np.int64),
        payloads=payloads,
        delivers=delivers,
        metadata=tuple(metadata),
        delays=tuple(delays),
    )


class BatchInbox(Sequence):
    """One receiver's delivered messages, stored as batch references.

    A ``Sequence`` of messages: ``len`` / indexing / iteration
    materialise frozen ``Message`` objects lazily through the trusted
    zero-copy payload path (each payload is a read-only row view into
    its batch matrix).  Consumers on the hot path call :meth:`matrix`
    instead, which never builds a message at all.
    """

    __slots__ = ("_batches", "_bids", "_rows", "_cache")

    def __init__(
        self,
        batches: Tuple[RoundBatch, ...],
        rows: np.ndarray,
        bids: Optional[np.ndarray] = None,
    ) -> None:
        self._batches = batches
        self._rows = rows
        self._bids = bids  # None: every row references batches[0]
        self._cache: Optional[List[Optional[Message]]] = None

    @classmethod
    def empty(cls) -> "BatchInbox":
        return cls((), np.empty(0, dtype=np.int64))

    @classmethod
    def single(cls, batch: RoundBatch, rows: np.ndarray) -> "BatchInbox":
        return cls((batch,), rows)

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if self._cache is None:
            self._cache = [None] * len(self)
        message = self._cache[index]
        if message is None:
            batch = self._batches[0 if self._bids is None else int(self._bids[index])]
            row = int(self._rows[index])
            message = Message(
                sender=int(batch.senders[row]),
                round_index=batch.round_index,
                payload=batch.payloads[row],
                metadata=dict(batch.metadata[row]),
            )
            self._cache[index] = message
        return message

    def senders(self) -> List[int]:
        """Sender ids in delivery order (no message materialisation)."""
        if self._bids is None:
            if not self._batches:
                return []
            return self._batches[0].senders[self._rows].tolist()
        return [
            int(self._batches[int(b)].senders[int(r)])
            for b, r in zip(self._bids, self._rows)
        ]

    def matrix(self) -> np.ndarray:
        """The received ``(m, d)`` payload stack in delivery order.

        Values are bitwise-identical to stacking the materialised
        message payloads.  A receiver that delivered a whole batch in
        order gets the shared read-only payload matrix itself
        (zero-copy); other single-batch inboxes take one gather, and
        multi-batch inboxes (cross-round stragglers) gather per batch.
        """
        if len(self) == 0:
            raise ValueError("cannot build a matrix from an empty inbox")
        if self._bids is None:
            batch, rows = self._batches[0], self._rows
            if rows.shape[0] == batch.num_senders and int(rows[0]) == 0 and (
                np.array_equal(rows, batch.full_rows())
            ):
                return batch.payloads
            return batch.payloads[rows]
        out = np.empty((len(self), self._batches[0].dimension), dtype=np.float64)
        for bid, batch in enumerate(self._batches):
            mask = self._bids == bid
            if mask.any():
                out[mask] = batch.payloads[self._rows[mask]]
        return out
