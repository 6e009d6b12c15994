"""Lock-step scheduler: every message arrives in its own round.

This is the paper's timing model (Section 2.3) and the reference
behaviour of the engine: every node delivers exactly what
:meth:`repro.network.reliable_broadcast.ReliableBroadcast.deliver`
would hand it, in the same order — the pinned-fixture suite in
``tests/test_engine_equivalence.py`` enforces that bitwise.

Adversary-requested delays are ignored here: under synchrony a delayed
message would simply arrive at the round boundary anyway.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.engine.base import RoundEngine
from repro.network.batch import BatchInbox
from repro.network.reliable_broadcast import BroadcastPlan


class SynchronousScheduler(RoundEngine):
    """Reliable lock-step delivery (the paper's synchronous model)."""

    horizon = 0
    records_stats = False

    def _deliver_batch(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BatchInbox]:
        batch = self._validated_batch(plans, round_index)
        if batch is None:
            return self._empty_batch_inboxes()
        if batch.delivers is None:
            # Full broadcast: every receiver sees the same rows in the
            # same order, so one shared inbox (whose matrix() is the
            # shared zero-copy payload matrix) serves all of them.
            shared = BatchInbox.single(batch, batch.full_rows())
            inboxes = {node: shared for node in range(self.n)}
            per_node = np.full(self.n, batch.num_senders, dtype=np.int64)
        else:
            inboxes = {}
            for node in range(self.n):
                rows = np.flatnonzero(batch.delivers[:, node])
                inboxes[node] = BatchInbox.single(batch, rows)
            per_node = batch.delivers.sum(axis=0, dtype=np.int64)
        # Under synchrony every sent message is delivered, so one count
        # covers both (records_stats stays False: nothing to report).
        total = int(per_node.sum())
        self.stats["sent"] += total
        self.stats["delivered"] += total
        self._node_counter("sent")[:] += per_node
        self._node_counter("delivered")[:] += per_node
        return inboxes
