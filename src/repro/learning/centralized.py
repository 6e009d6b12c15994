"""Centralized collaborative learning loop.

One server coordinates the round structure (Section 2.1 of the paper):

1. every client loads the global weights and computes a stochastic
   gradient on its local shard,
2. Byzantine clients replace their gradient according to the configured
   attack (a rushing adversary: it sees the honest gradients first),
3. the server aggregates the received gradients with a robust rule and
   performs the SGD step ``theta <- theta - lr_t * aggregate``,
4. the global model's test accuracy is recorded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.data.datasets import Dataset
from repro.engine.base import RoundEngine
from repro.engine.rounds import attack_adversary_plan, quorum_policy
from repro.engine.synchronous import SynchronousScheduler
from repro.learning.client import Client, attack_name
from repro.learning.history import RoundRecord, TrainingHistory
from repro.network.delivery import collect_plans
from repro.network.reliable_broadcast import BroadcastPlan
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

_logger = get_logger("learning.centralized")


class CentralizedTrainer:
    """Runs centralized collaborative learning with a robust server.

    Parameters
    ----------
    global_model:
        The server's model; its flat parameter vector is the global state.
    clients:
        All participating clients (honest and Byzantine alike; a client
        is Byzantine when its ``attack`` attribute is set).
    aggregation:
        The server-side aggregation rule.
    test_data:
        Held-out dataset for the per-round accuracy report.
    optimizer:
        SGD configuration; constructed from ``learning_rate`` and the
        round budget when omitted.
    engine:
        Round engine modelling the client -> server exchange as a star
        topology: every client broadcasts its (possibly corrupted)
        gradient and the server — one extra, receive-only node — reads
        its own inbox.  Defaults to lock-step delivery, which reproduces
        the historical trainer bitwise.  Under lossy / partially
        synchronous engines the server aggregates whatever arrived that
        round and skips the step (keeping the model) when nothing did.
    """

    def __init__(
        self,
        global_model: Sequential,
        clients: Sequence[Client],
        aggregation: AggregationRule,
        test_data: Dataset,
        *,
        optimizer: Optional[SGD] = None,
        learning_rate: float = 0.01,
        seed=0,
        engine: Optional[RoundEngine] = None,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        self.global_model = global_model
        self.clients = list(clients)
        self.aggregation = aggregation
        self.test_data = test_data
        self.optimizer = optimizer if optimizer is not None else SGD(learning_rate)
        self._rng = as_generator(seed)
        self._attacks = {c.client_id: c.attack for c in self.clients}
        self._honest_ids = tuple(c.client_id for c in self.clients if not c.is_byzantine)
        byz_ids = tuple(c.client_id for c in self.clients if c.is_byzantine)
        self.server_node = max(c.client_id for c in self.clients) + 1
        if engine is None:
            engine = SynchronousScheduler(
                self.server_node + 1, byz_ids, require_full_broadcast=False
            )
        if engine.n != self.server_node + 1:
            raise ValueError(
                f"engine must cover every client plus the server node "
                f"(need n={self.server_node + 1}, engine has n={engine.n})"
            )
        if engine.broadcast.require_full_broadcast:
            raise ValueError(
                "the centralized trainer runs a star exchange (clients unicast "
                "to the server); build the engine with require_full_broadcast=False"
            )
        if tuple(sorted(engine.byzantine)) != tuple(sorted(byz_ids)):
            raise ValueError(
                f"engine byzantine set {sorted(engine.byzantine)} does not match "
                f"clients {sorted(byz_ids)}"
            )
        self.engine = engine
        self._strict_delivery = quorum_policy(engine) == "raise"
        # Robust rules need at least n - t vectors (the subset-based
        # ones enumerate (n - t)-subsets); under non-strict delivery the
        # server skips rounds that arrive below that floor.
        rule_n, rule_t = getattr(aggregation, "n", None), getattr(aggregation, "t", None)
        self._min_received = (
            max(1, int(rule_n) - int(rule_t))
            if rule_n is not None and rule_t is not None
            else 1
        )
        # Explicit wait condition for event-driven schedulers: the
        # server processes a round once the rule's n - t gradient floor
        # has arrived (or its wait window expires).  Respect a count the
        # experiment configuration already pinned on the engine.
        if self.engine.wait.count is None:
            self.engine.wait_for(count=self._min_received)

    # -- internals -----------------------------------------------------------
    def _collect_gradients(
        self, parameters: np.ndarray, round_index: int
    ) -> tuple[Optional[np.ndarray], int, float]:
        """Gradients the server receives this round (after attacks).

        Every client submits one plan addressed to the server link only
        (the engine runs in star mode, so honest unicast is legal) and
        the server consumes its own inbox — which is where the timing
        model (drops, delays, crash windows) applies, and what the
        delivery counters measure.  Byzantine plans come from
        :func:`~repro.engine.rounds.attack_adversary_plan`, mapped onto
        the star: selective omission is meaningless here, but timing
        attacks may still shape delivery through ``send_delays``.

        Returns the received ``(m, d)`` gradient stack in client order
        (``None`` when nothing arrived), the received count, and the
        honest mean loss.  The stack is one vectorized gather from the
        batch plane, zero-copy for a fully delivered round.
        """
        own_vectors: Dict[int, np.ndarray] = {}
        losses: List[float] = []
        for client in self.clients:
            loss, grad = client.compute_gradient(parameters)
            own_vectors[client.client_id] = grad
            if not client.is_byzantine:
                losses.append(loss)

        server_only = frozenset({self.server_node})
        attack_plan = attack_adversary_plan(
            self._attacks.get, own_vectors, self._rng, self.engine
        )

        def star_plan(
            node: int, round_index: int, honest_values: Dict[int, np.ndarray]
        ) -> BroadcastPlan:
            plan = attack_plan(node, round_index, honest_values)
            # Attacks state their lags per honest receiver, but the star
            # exchange has a single link (client -> server): the
            # strongest requested lag applies to the server delivery, so
            # timing attacks stay expressible here instead of being
            # silently voided by the topology mismatch.
            delays = {self.server_node: max(plan.delays.values())} if plan.delays else None
            return BroadcastPlan(
                sender=node, payload=plan.payload, recipients=server_only, delays=delays
            )

        plans = collect_plans(
            self._honest_ids,
            self.engine.byzantine,
            round_index,
            lambda node, _r: BroadcastPlan(
                sender=node, payload=own_vectors[node], recipients=server_only
            ),
            star_plan,
        )
        result = self.engine.submit(plans, round_index)
        inbox = result.inboxes[self.server_node]
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        if len(inbox) == 0:
            return None, 0, mean_loss
        # Reorder delivered rows into client order.  Delivery order
        # already *is* client order for the horizon-based schedulers,
        # keeping the gather zero-copy; the asynchronous scheduler's
        # arrival order needs one row permutation.
        row_of = {s: i for i, s in enumerate(inbox.senders())}
        order = [
            row_of[client.client_id]
            for client in self.clients
            if client.client_id in row_of
        ]
        matrix = inbox.matrix()
        if order != list(range(len(order))) or len(order) != len(inbox):
            matrix = matrix[np.asarray(order, dtype=np.int64)]
        return matrix, len(order), mean_loss

    # -- public API -----------------------------------------------------------
    def train(self, rounds: int) -> TrainingHistory:
        """Run ``rounds`` global communication rounds and return the history."""
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if self.optimizer.total_rounds is None:
            self.optimizer.total_rounds = rounds

        history = TrainingHistory(
            setting="centralized",
            aggregation=getattr(self.aggregation, "name", type(self.aggregation).__name__),
            attack=attack_name(self.clients),
            heterogeneity="unknown",
            num_clients=len(self.clients),
            num_byzantine=sum(1 for c in self.clients if c.is_byzantine),
        )
        parameters = self.global_model.get_flat_parameters()

        for round_index in range(rounds):
            received, num_received, mean_loss = self._collect_gradients(
                parameters, round_index
            )
            if received is None and self._strict_delivery:
                raise RuntimeError(
                    f"no gradients received in round {round_index}; cannot aggregate"
                )
            if not self._strict_delivery and num_received < self._min_received:
                # The lossy/partial network starved the server below the
                # rule's floor this round; skip the step, keep the model.
                _logger.info(
                    "centralized round %d: only %d gradients arrived (need %d), skipping step",
                    round_index, num_received, self._min_received,
                )
            else:
                # One context per round: every distance-based step of the
                # rule (and any diagnostics sharing it) reuses the same
                # pairwise-distance matrix.
                round_context = AggregationContext(received)
                aggregate = self.aggregation.aggregate(context=round_context)
                parameters = self.optimizer.step(parameters, aggregate, round_index)
                self.global_model.set_flat_parameters(parameters)

            acc = self.global_model.evaluate_accuracy(
                self.test_data.images, self.test_data.labels
            )
            history.append(
                RoundRecord(round_index=round_index, accuracy=acc, loss=mean_loss)
            )
            _logger.info(
                "centralized round %d: accuracy=%.4f loss=%.4f", round_index, acc, mean_loss
            )
        history.record_delivery(self.engine)
        return history
