"""Agreement algorithms by rule name, and the multi-round protocol runner.

:class:`AgreementProtocol` is one consumer of the round engine among
three: it sets its engine up with
:func:`~repro.engine.rounds.prepare_exchange` and runs each execution
through :func:`~repro.engine.rounds.run_exchange`, as the decentralized
trainer does for its agreement sub-rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.aggregation.registry import make_rule
from repro.byzantine.base import GradientAttack
from repro.engine.base import RoundEngine
from repro.engine.rounds import prepare_exchange, run_exchange
from repro.linalg.distances import diameter
from repro.utils.rng import as_generator
from repro.utils.validation import ensure_matrix, validate_byzantine_bound


class AgreementAlgorithm:
    """Per-node, per-sub-round update rule of an agreement algorithm.

    Every algorithm in the paper has this shape: ``update(received)``
    applies a one-shot aggregation rule to the ``(m, d)`` matrix of
    vectors a node delivered in the current sub-round, and the result is
    the node's vector for the next sub-round.  The convergence statements
    of the paper assume the rule is deterministic given that matrix.

    ``rule.n`` is filled in when unset and must otherwise equal ``n``;
    ``rule.t`` is set to ``t``.
    """

    def __init__(self, n: int, t: int, rule: AggregationRule) -> None:
        validate_byzantine_bound(n, t)
        self.n = int(n)
        self.t = int(t)
        if rule.n is None:
            rule.n = self.n
        elif rule.n != self.n:
            raise ValueError(
                f"rule {rule.name!r} is configured for n={rule.n} "
                f"but the algorithm needs n={self.n}"
            )
        rule.t = self.t
        self.rule = rule
        self.name = rule.name

    def update(self, received: np.ndarray) -> np.ndarray:
        """New local vector from the ``(m, d)`` received stack."""
        # The context validates the stack; it also shares the pairwise-
        # distance matrix between every distance-based step of the rule.
        context = AggregationContext(received)
        if context.num_vectors < self.minimum_messages():
            raise ValueError(
                f"received only {context.num_vectors} messages, "
                f"need at least {self.minimum_messages()}"
            )
        return self.rule.aggregate(context=context)

    def minimum_messages(self) -> int:
        """Quorum each honest node needs per sub-round (``n - t``)."""
        return self.n - self.t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AgreementAlgorithm(n={self.n}, t={self.t}, rule={self.name!r})"


def make_algorithm(name: str, n: int, t: int, **kwargs) -> AgreementAlgorithm:
    """Agreement algorithm applying the rule registered under ``name``.

    ``kwargs`` go to the rule constructor, exactly as for
    :func:`repro.aggregation.registry.make_rule`.
    """
    return AgreementAlgorithm(n, t, make_rule(name, n=n, t=t, **kwargs))


@dataclass
class AgreementResult:
    """Trace of one multi-round agreement execution.

    Attributes
    ----------
    initial:
        Honest nodes' input vectors, keyed by node id.
    per_round:
        ``per_round[r][i]`` is honest node ``i``'s vector *after* sub-round
        ``r`` (i.e. its input for sub-round ``r + 1``).
    honest_ids:
        Sorted honest node ids.
    """

    initial: Dict[int, np.ndarray]
    per_round: List[Dict[int, np.ndarray]] = field(default_factory=list)
    honest_ids: tuple[int, ...] = ()

    @property
    def rounds(self) -> int:
        """Number of executed sub-rounds."""
        return len(self.per_round)

    def final_vectors(self) -> Dict[int, np.ndarray]:
        """Honest vectors after the last sub-round (inputs if no round ran)."""
        return dict(self.per_round[-1]) if self.per_round else dict(self.initial)

    def final_matrix(self) -> np.ndarray:
        """Final honest vectors stacked ``(h, d)`` in node-id order."""
        final = self.final_vectors()
        return np.stack([final[i] for i in sorted(final)], axis=0)

    def honest_matrix(self, round_index: Optional[int] = None) -> np.ndarray:
        """Honest vectors after ``round_index`` (or the inputs for ``None``/-1)."""
        if round_index is None or round_index < 0:
            source = self.initial
        else:
            source = self.per_round[round_index]
        return np.stack([source[i] for i in sorted(source)], axis=0)

    def diameter_trace(self) -> List[float]:
        """Honest-vector diameter after every sub-round (index 0 = inputs)."""
        trace = [diameter(self.honest_matrix(None))]
        for r in range(self.rounds):
            trace.append(diameter(self.honest_matrix(r)))
        return trace

    def converged(self, epsilon: float) -> bool:
        """Whether the final honest vectors are within ``epsilon`` of each other."""
        return self.diameter_trace()[-1] < epsilon


class AgreementProtocol:
    """Runs an agreement algorithm for several synchronous sub-rounds.

    Parameters
    ----------
    algorithm:
        The per-node update rule.
    byzantine:
        Ids of Byzantine nodes (at most ``algorithm.t`` of them).
    attack:
        Attack model driving the Byzantine nodes.  ``None`` means they
        crash (stay silent), the weakest fault the algorithms tolerate.
    seed:
        Seed for the adversary's random generator.
    engine:
        Round engine supplying the timing model, set up by
        :func:`~repro.engine.rounds.prepare_exchange`.  Defaults to a
        lock-step :class:`~repro.engine.synchronous.SynchronousScheduler`
        (the paper's setting).  Under a lossy or partially synchronous
        engine, nodes starved below the ``n - t`` quorum keep their
        current vector for the round instead of aborting the run.  A
        sparse topology on which some node cannot receive that quorum
        is refused here.
    """

    def __init__(
        self,
        algorithm: AgreementAlgorithm,
        byzantine: tuple[int, ...] | list[int] = (),
        attack: Optional[GradientAttack] = None,
        *,
        seed: int | None = 0,
        engine: Optional[RoundEngine] = None,
    ) -> None:
        self.algorithm = algorithm
        self.byzantine = tuple(sorted(int(b) for b in byzantine))
        self.attack = attack
        self._rng = as_generator(seed)
        self.engine = prepare_exchange(
            engine, algorithm.n, self.byzantine,
            t=algorithm.t, quorum=algorithm.minimum_messages(),
        )

    def run(
        self,
        inputs: Dict[int, np.ndarray] | np.ndarray,
        rounds: int,
    ) -> AgreementResult:
        """Execute ``rounds`` sub-rounds from the given honest inputs.

        ``inputs`` maps *honest* node id to its input vector; a plain
        ``(h, d)`` array is also accepted and assigned to the honest ids
        in order.
        """
        honest_ids = self.engine.honest
        current = self._normalise_inputs(inputs, honest_ids)
        result = AgreementResult(
            initial={i: v.copy() for i, v in current.items()},
            honest_ids=honest_ids,
        )
        run_exchange(
            self.engine,
            current,
            rounds,
            lambda _node, received: self.algorithm.update(received),
            attack_for=lambda _node: self.attack,
            byzantine_vectors=self._byzantine_own_vectors(current),
            rng=self._rng,
            on_round=lambda _r, _res, vectors: result.per_round.append(
                {i: v.copy() for i, v in vectors.items()}
            ),
        )
        return result

    # -- helpers -------------------------------------------------------------
    def _normalise_inputs(
        self, inputs: Dict[int, np.ndarray] | np.ndarray, honest_ids: tuple[int, ...]
    ) -> Dict[int, np.ndarray]:
        if isinstance(inputs, dict):
            missing = [i for i in honest_ids if i not in inputs]
            if missing:
                raise ValueError(f"missing input vectors for honest nodes {missing}")
            return {
                i: np.asarray(inputs[i], dtype=np.float64).reshape(-1).copy()
                for i in honest_ids
            }
        mat = ensure_matrix(inputs, name="inputs")
        if mat.shape[0] != len(honest_ids):
            raise ValueError(
                f"expected {len(honest_ids)} input vectors (one per honest node), got {mat.shape[0]}"
            )
        return {node: mat[k].copy() for k, node in enumerate(honest_ids)}

    def _byzantine_own_vectors(self, current: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Hand each Byzantine node an "honest-looking" starting vector.

        Attacks such as the sign flip corrupt the gradient the Byzantine
        node *would* have computed; in pure agreement experiments that
        role is played by the mean of the honest inputs.
        """
        if not current:
            return {}
        base = np.mean(np.stack(list(current.values()), axis=0), axis=0)
        return {b: base.copy() for b in self.byzantine}
