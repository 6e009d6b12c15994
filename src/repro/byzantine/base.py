"""Attack interface shared by all parameter (gradient) attacks."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

#: How many trailing per-round delivery-trace rows the engine exposes to
#: a rushing adversary through :attr:`AttackContext.delivery_trace`.
#: Adaptive attacks must size their observation windows within it.
DELIVERY_TRACE_WINDOW = 8


@dataclass
class AttackContext:
    """Everything a (rushing) Byzantine node may observe before acting.

    Attributes
    ----------
    node:
        Id of the attacking node.
    round_index:
        Current synchronous round (or learning iteration for the
        centralized setting, where there is a single exchange per round).
    own_vector:
        The gradient the Byzantine node would have sent had it been
        honest (computed from its local data).  ``None`` if the node has
        no local computation (pure injector).
    honest_vectors:
        Mapping from honest node id to the vector it broadcasts this
        round.  The standard Byzantine model allows a rushing adversary
        to see these before choosing its message, not to change them:
        the context stores read-only views (no copy), so an attack that
        writes into one raises instead of rewriting an honest broadcast.
    rng:
        Generator dedicated to the adversary, so attack randomness does
        not perturb the honest nodes' streams.
    horizon:
        The scheduler's delivery horizon: the largest number of rounds a
        message may lag behind its send round.  ``0`` under the
        synchronous scheduler — timing attacks inspect this to know how
        much slack the network gives them.
    delivery_trace:
        Tail of the engine's per-round delivery trace (most recent
        last, at most :data:`DELIVERY_TRACE_WINDOW` rows): sparse
        ``{"round", "sent", "delivered", "delayed", ...}`` counter
        deltas.  Empty under schedulers that record no stats.  This is
        what *adaptive* timing attacks observe — how well fed the
        honest inboxes have recently been.
    """

    node: int
    round_index: int
    own_vector: Optional[np.ndarray]
    honest_vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    horizon: int = 0
    delivery_trace: Tuple[Mapping[str, int], ...] = ()

    def __post_init__(self) -> None:
        views: Dict[int, np.ndarray] = {}
        for node, vector in self.honest_vectors.items():
            view = np.asarray(vector).view()
            view.flags.writeable = False
            views[node] = view
        self.honest_vectors = views

    @property
    def dimension(self) -> int:
        """Dimension of the exchanged vectors."""
        if self.own_vector is not None:
            return int(np.asarray(self.own_vector).reshape(-1).shape[0])
        for vec in self.honest_vectors.values():
            return int(np.asarray(vec).reshape(-1).shape[0])
        raise ValueError("attack context has no vectors to infer the dimension from")

    def honest_matrix(self) -> np.ndarray:
        """Honest vectors stacked as an ``(h, d)`` matrix (sorted by node id)."""
        if not self.honest_vectors:
            raise ValueError("no honest vectors available in this context")
        return np.stack(
            [np.asarray(self.honest_vectors[i], dtype=np.float64).reshape(-1)
             for i in sorted(self.honest_vectors)],
            axis=0,
        )


class GradientAttack(abc.ABC):
    """A parameter-modification attack.

    Sub-classes override :meth:`corrupt`; returning ``None`` means the
    Byzantine node stays silent this round (crash / omission).  The
    optional :meth:`recipients` hook restricts which nodes deliver the
    message (``None`` = everyone), enabling split-brain constructions.
    """

    #: Registry / reporting name.
    name: str = "attack"

    @abc.abstractmethod
    def corrupt(self, context: AttackContext) -> Optional[np.ndarray]:
        """Return the vector to broadcast, or ``None`` to stay silent."""
        raise NotImplementedError

    def recipients(self, context: AttackContext) -> Optional[frozenset[int]]:
        """Which nodes deliver the Byzantine message (``None`` = all)."""
        return None

    def send_delays(self, context: AttackContext) -> Optional[Dict[int, int]]:
        """Per-receiver extra rounds to hold this message back.

        ``None`` (default) leaves timing to the scheduler.  Only honoured
        by schedulers with a nonzero delivery horizon
        (``context.horizon``); requested lags are capped there.  This is
        the hook timing attacks (withhold-then-rush, selective delay)
        use to turn asynchrony into adversarial power.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
