"""The one way the agreement protocol and both trainers drive a round engine.

Every consumer of a :class:`~repro.engine.base.RoundEngine` needs the
same pieces, and each lives here once:

- :func:`quorum_policy` decides what a quorum shortfall means on an
  engine: a protocol violation under lock-step delivery, a stall under
  every other timing model.
- :func:`prepare_exchange` sets an engine up for an all-to-all exchange
  (the agreement protocol and the decentralized trainer): it defaults
  to the lock-step scheduler, checks the engine's ``n`` and Byzantine
  set against the exchange, refuses a sparse topology that cannot
  deliver the quorum, and installs the quorum and the quorum wait.  The
  centralized trainer's star exchange (one extra receive-only node, no
  per-node quorum) keeps its own set-up.
- :func:`attack_adversary_plan` builds the Byzantine side of a round
  from a :class:`~repro.byzantine.base.GradientAttack`, including the
  timing hooks (``recipients`` for selective omission, ``send_delays``
  for selective delay under schedulers with a nonzero horizon).
- :func:`run_exchange` runs one exchange: it resets the engine, builds
  the adversary plan, and repeats broadcast, delivery and per-node
  update.  Under a lossy or partially synchronous scheduler a node
  starved below quorum (or whose inbox was dropped entirely) keeps its
  current vector for the round; the synchronous scheduler never takes
  those branches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.byzantine.base import AttackContext, GradientAttack
from repro.engine.base import RoundEngine
from repro.engine.synchronous import SynchronousScheduler
from repro.network.delivery import (
    AdversaryPlanFn,
    EmptyInboxError,
    RoundResult,
    full_broadcast_plan,
)
from repro.network.reliable_broadcast import BroadcastPlan
from repro.network.topology import validate_topology

UpdateFn = Callable[[int, np.ndarray], np.ndarray]
OnRoundFn = Callable[[int, RoundResult, Dict[int, np.ndarray]], None]
AttackForFn = Callable[[int], Optional[GradientAttack]]


def quorum_policy(engine: RoundEngine) -> str:
    """``"raise"`` or ``"starve"``: what a quorum shortfall means on ``engine``.

    Lock-step delivery cannot legitimately starve a node, so a shortfall
    is a protocol violation there; under the other timing models it is
    the scheduler's doing and the node stalls for the round.
    """
    return "raise" if isinstance(engine, SynchronousScheduler) else "starve"


def prepare_exchange(
    engine: Optional[RoundEngine],
    n: int,
    byzantine: Iterable[int],
    *,
    t: int,
    quorum: int,
) -> RoundEngine:
    """The engine an all-to-all exchange among ``n`` nodes runs on.

    ``engine=None`` builds the paper's lock-step scheduler.  At most
    ``t`` nodes may be Byzantine, and a given engine must cover exactly
    ``n`` nodes and the ``byzantine`` set.  A quorum above 1 must be
    reachable at every node of a sparse topology
    (:func:`~repro.network.topology.validate_topology`), so an
    infeasible graph fails here with its diagnostic instead of starving
    every round.  Every honest node then needs ``quorum`` messages per
    round (:func:`quorum_policy` says what a shortfall means), and an
    event-driven scheduler waits for that quorum unless a count was
    pinned on the engine beforehand.
    """
    byz = tuple(sorted(int(b) for b in byzantine))
    if len(byz) > t:
        raise ValueError(f"{len(byz)} Byzantine nodes exceed the tolerance t={t}")
    if engine is None:
        engine = SynchronousScheduler(n, byz)
    if engine.n != n:
        raise ValueError(f"engine is configured for n={engine.n} but the exchange has n={n}")
    if tuple(sorted(engine.byzantine)) != byz:
        raise ValueError(
            f"engine byzantine set {sorted(engine.byzantine)} does not match {list(byz)}"
        )
    if quorum > 1 and engine.topology is not None:
        validate_topology(engine.topology, n, t=t)
    engine.require_quorum(quorum, policy=quorum_policy(engine))
    engine.wait_for(quorum=True)
    return engine


def attack_adversary_plan(
    attack_for: AttackForFn,
    own_vectors: Dict[int, np.ndarray],
    rng: np.random.Generator,
    engine: RoundEngine,
) -> AdversaryPlanFn:
    """Adversary plan callback driving each Byzantine node's attack.

    ``attack_for(node)`` resolves the attack a Byzantine node runs
    (``None`` = crashed / silent).  ``own_vectors`` holds the vector each
    Byzantine node *would* have sent honestly.  The attack sees the
    engine's delivery horizon (:attr:`AttackContext.horizon`) and the
    tail of its per-round delivery trace
    (:attr:`AttackContext.delivery_trace`), which is what *adaptive*
    timing attacks key their delays on.  Per node the attack is asked
    for its payload, then its recipients, then its delays, in that
    order, so its random draws keep one order.
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
            horizon=engine.horizon,
            delivery_trace=engine.trace_tail(),
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
    *,
    attack_for: Optional[AttackForFn] = None,
    byzantine_vectors: Optional[Dict[int, np.ndarray]] = None,
    rng: Optional[np.random.Generator] = None,
    on_round: Optional[OnRoundFn] = None,
) -> Dict[int, np.ndarray]:
    """Run one exchange of ``rounds`` broadcast/update rounds from ``initial``.

    Each call is a fresh exchange: the engine drops any message still in
    flight from the previous one.  Per round every honest node
    broadcasts its current vector, the engine schedules delivery, and
    ``update_fn(node, received)`` maps the delivered ``(m, d)`` stack to
    the node's next vector.  Nodes the scheduler starved below quorum —
    or whose whole inbox was lost — keep their current vector for the
    round.  ``on_round`` observes ``(round_index, round_result,
    new_vectors)`` after every round.

    ``attack_for`` drives the engine's Byzantine nodes through
    :func:`attack_adversary_plan`, with ``byzantine_vectors`` as their
    honest-looking vectors and ``rng`` (required with it) as the
    adversary's generator; without it they stay silent.

    Returns the honest vectors after the final round.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    engine.reset()
    adversary_plan = (
        None
        if attack_for is None
        else attack_adversary_plan(attack_for, byzantine_vectors or {}, rng, engine)
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
