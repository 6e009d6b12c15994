"""Scheduler-agnostic building blocks for multi-round exchanges.

The agreement protocol and the decentralized trainer used to hand-roll
the same loop: broadcast the current vectors, apply the per-node update
to each inbox, repeat.  :func:`run_exchange` is that loop, written once
against the :class:`~repro.engine.base.RoundEngine` interface — which is
what makes the timing model pluggable: under a lossy or partially
synchronous scheduler a node that is starved below quorum (or whose
inbox was dropped entirely) simply keeps its current vector for the
round, while the synchronous scheduler never takes those branches and
stays bitwise-identical to the historical loops.

:func:`attack_adversary_plan` builds the Byzantine side of an exchange
from a :class:`~repro.byzantine.base.GradientAttack`, including the
timing hooks (``recipients`` for selective omission, ``send_delays`` for
selective delay under schedulers with a nonzero horizon).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.byzantine.base import AttackContext, GradientAttack
from repro.engine.base import RoundEngine, WaitCondition
from repro.network.delivery import (
    AdversaryPlanFn,
    EmptyInboxError,
    RoundResult,
    full_broadcast_plan,
)
from repro.network.reliable_broadcast import BroadcastPlan

UpdateFn = Callable[[int, np.ndarray], np.ndarray]
OnRoundFn = Callable[[int, RoundResult, Dict[int, np.ndarray]], None]


def attack_adversary_plan(
    attack_for: Callable[[int], Optional[GradientAttack]],
    own_vectors: Dict[int, np.ndarray],
    rng: np.random.Generator,
    *,
    horizon: int = 0,
    engine: Optional[RoundEngine] = None,
) -> AdversaryPlanFn:
    """Adversary plan callback driving each Byzantine node's attack.

    ``attack_for(node)`` resolves the attack a Byzantine node runs
    (``None`` = crashed / silent).  ``own_vectors`` holds the vector each
    Byzantine node *would* have sent honestly; ``horizon`` is the
    engine's delivery horizon, exposed to timing-aware attacks through
    :attr:`AttackContext.horizon`.  Passing ``engine`` additionally
    exposes the tail of its per-round delivery trace through
    :attr:`AttackContext.delivery_trace`, which is what *adaptive*
    timing attacks key their delays on.
    """

    def plan(node: int, round_index: int, honest_values: Dict[int, np.ndarray]) -> BroadcastPlan:
        attack = attack_for(node)
        if attack is None:
            return BroadcastPlan(sender=node, payload=None)
        context = AttackContext(
            node=node,
            round_index=round_index,
            own_vector=own_vectors.get(node),
            honest_vectors=honest_values,
            rng=rng,
            horizon=horizon,
            delivery_trace=engine.trace_tail() if engine is not None else (),
        )
        payload = attack.corrupt(context)
        recipients = attack.recipients(context)
        delays = attack.send_delays(context)
        return BroadcastPlan(
            sender=node,
            payload=None if payload is None else np.asarray(payload, dtype=np.float64),
            recipients=recipients,
            delays=delays,
        )

    return plan


def run_exchange(
    engine: RoundEngine,
    initial: Dict[int, np.ndarray],
    rounds: int,
    update_fn: UpdateFn,
    adversary_plan: Optional[AdversaryPlanFn] = None,
    *,
    on_round: Optional[OnRoundFn] = None,
    wait: Optional[WaitCondition] = None,
) -> Dict[int, np.ndarray]:
    """Run ``rounds`` broadcast/update rounds from the ``initial`` vectors.

    Per round every honest node broadcasts its current vector, the
    engine schedules delivery, and ``update_fn(node, received)`` maps the
    delivered ``(m, d)`` stack to the node's next vector.  Nodes the
    scheduler starved below quorum — or whose whole inbox was lost —
    keep their current vector for the round.  ``on_round`` observes
    ``(round_index, round_result, new_vectors)`` after every round.

    ``wait`` optionally installs a :class:`WaitCondition` on the engine
    before the first round — required by event-driven schedulers with no
    delivery horizon, ignored by the lock-step ones.

    Returns the honest vectors after the final round.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if wait is not None:
        engine.wait_for(
            count=wait.count, quorum=wait.quorum or None,
            timeout_rounds=wait.timeout_rounds,
        )
    current = dict(initial)
    for round_index in range(rounds):
        result = engine.run_round(
            round_index,
            honest_plan=lambda node, _r: full_broadcast_plan(node, current[node]),
            adversary_plan=adversary_plan,
        )
        starved = set(result.starved)
        new_values: Dict[int, np.ndarray] = {}
        for node in engine.honest:
            if node in starved:
                new_values[node] = current[node]
                continue
            try:
                received = result.received_matrix(node)
            except EmptyInboxError:
                # The scheduler dropped everything this node was owed;
                # distinct from malformed input, so stall, don't fail.
                new_values[node] = current[node]
                continue
            new_values[node] = update_fn(node, received)
        current = new_values
        if on_round is not None:
            on_round(round_index, result, current)
    return current
