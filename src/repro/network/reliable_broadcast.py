"""Reliable-broadcast semantics.

Bracha-style reliable broadcast guarantees that all non-faulty nodes
that deliver a message from a given sender deliver the *same* message.
Rather than simulating the three-phase echo protocol message by message,
the simulator enforces its guarantee directly: a sender contributes at
most one payload per round, and the only freedom a Byzantine sender
retains is *which* non-faulty nodes deliver it (selective omission),
which is consistent with an asynchronous adversary delaying deliveries
past the round boundary.

:class:`BroadcastPlan` captures one sender's behaviour for one round;
:class:`ReliableBroadcast` validates plans and computes the per-node
lock-step deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BroadcastPlan:
    """What one sender broadcasts in one round.

    Attributes
    ----------
    sender:
        Sending node index.
    payload:
        The single payload reliable broadcast will deliver, or ``None``
        for a silent (crashed / omitting) sender.
    recipients:
        Nodes that deliver the payload this round.  ``None`` means every
        node.  Non-faulty senders must always use ``None`` (they follow
        the protocol); Byzantine senders may restrict the set.
    delays:
        Optional mapping receiver id -> extra rounds the adversary wants
        this delivery held back.  Only Byzantine senders may request
        delays; schedulers that model asynchrony honour them up to their
        delivery horizon, the synchronous scheduler ignores them (every
        message arrives in its own round by definition).
    """

    sender: int
    payload: Optional[np.ndarray]
    recipients: Optional[frozenset[int]] = None
    delays: Optional[Dict[int, int]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.sender < 0:
            raise ValueError("sender must be non-negative")
        if self.payload is not None:
            payload = np.asarray(self.payload, dtype=np.float64).reshape(-1)
            if payload.size == 0:
                raise ValueError("payload must be non-empty when present")
            object.__setattr__(self, "payload", payload)
        if self.recipients is not None:
            object.__setattr__(self, "recipients", frozenset(int(r) for r in self.recipients))
        if self.delays is not None:
            clean = {int(node): int(lag) for node, lag in self.delays.items()}
            if any(lag < 0 for lag in clean.values()):
                raise ValueError("delivery delays must be non-negative")
            object.__setattr__(self, "delays", clean)

    def delivers_to(self, node: int) -> bool:
        """Whether ``node`` delivers this sender's message this round."""
        if self.payload is None:
            return False
        return self.recipients is None or node in self.recipients


class ReliableBroadcast:
    """Materialises per-receiver delivery sets for one synchronous round.

    Parameters
    ----------
    n:
        Number of nodes (ids ``0 .. n-1``).
    byzantine:
        Ids of Byzantine nodes.  Only these senders may restrict their
        recipient sets or stay silent while holding a payload.
    require_full_broadcast:
        With the default ``True``, non-faulty senders must address every
        node (the agreement protocols' reliable-broadcast contract).
        ``False`` admits honest recipient restriction for non-broadcast
        round structures — the centralized trainer's star exchange sends
        each gradient to the server link only.
    """

    def __init__(
        self,
        n: int,
        byzantine: Iterable[int] = (),
        *,
        require_full_broadcast: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = int(n)
        self.byzantine = frozenset(int(b) for b in byzantine)
        self.require_full_broadcast = bool(require_full_broadcast)
        invalid = [b for b in self.byzantine if b < 0 or b >= self.n]
        if invalid:
            raise ValueError(f"byzantine ids out of range: {invalid}")

    def validate_plan(self, plan: BroadcastPlan) -> None:
        """Reject plans that violate the reliable-broadcast guarantees."""
        if plan.sender >= self.n:
            raise ValueError(f"sender {plan.sender} out of range for n={self.n}")
        if plan.recipients is not None:
            out_of_range = [r for r in plan.recipients if r < 0 or r >= self.n]
            if out_of_range:
                raise ValueError(f"recipients out of range: {sorted(out_of_range)}")
            if (
                self.require_full_broadcast
                and plan.sender not in self.byzantine
                and plan.recipients != frozenset(range(self.n))
            ):
                raise ValueError(
                    "non-faulty senders must broadcast to all nodes "
                    f"(sender {plan.sender} restricted its recipients)"
                )
        if plan.delays:
            out_of_range = [r for r in plan.delays if r < 0 or r >= self.n]
            if out_of_range:
                raise ValueError(f"delayed receivers out of range: {sorted(out_of_range)}")
            if plan.sender not in self.byzantine:
                raise ValueError(
                    "non-faulty senders cannot delay their deliveries "
                    f"(sender {plan.sender} requested delays)"
                )

    def plans_by_sender(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, BroadcastPlan]:
        """Validate one round's plans and key them by sender.

        Every plan passes :meth:`validate_plan`, and a second plan from
        the same sender is rejected: reliable broadcast admits at most
        one message per sender per round (no equivocation).
        """
        by_sender: Dict[int, BroadcastPlan] = {}
        for plan in plans:
            self.validate_plan(plan)
            if plan.sender in by_sender:
                raise ValueError(
                    f"sender {plan.sender} submitted two broadcast plans in round {round_index}; "
                    "reliable broadcast admits at most one message per sender per round"
                )
            by_sender[plan.sender] = plan
        return by_sender

    def deliver(
        self, plans: Sequence[BroadcastPlan], round_index: int
    ) -> Dict[int, List[Tuple[int, np.ndarray]]]:
        """Return the ``(sender, payload)`` pairs each node delivers this round.

        The result maps receiver id to its delivered pairs, ordered by
        sender id (deterministic, which keeps experiments reproducible).
        This is the lock-step reference the engine's schedulers are
        tested against.
        """
        by_sender = self.plans_by_sender(plans, round_index)
        inbox: Dict[int, List[Tuple[int, np.ndarray]]] = {
            node: [] for node in range(self.n)
        }
        for sender in sorted(by_sender):
            plan = by_sender[sender]
            for node in range(self.n):
                if plan.delivers_to(node):
                    inbox[node].append((sender, plan.payload))
        return inbox
