"""Empirical verification of Theorem 4.4 (hyperbox algorithm guarantees)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian
from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.agreement.metrics import approximation_ratio, contraction_factors
from repro.byzantine.base import GradientAttack
from repro.byzantine.sign_flip import SignFlipAttack
from repro.utils.rng import as_generator


@dataclass
class RatioExperimentResult:
    """Measured approximation ratios against the theoretical bound."""

    ratios: List[float]
    bound: float
    dimension: int

    @property
    def max_ratio(self) -> float:
        """Worst measured ratio across trials."""
        return max(self.ratios) if self.ratios else float("nan")

    @property
    def within_bound(self) -> bool:
        """Whether every measured ratio respects the ``2 * sqrt(d)`` bound."""
        return all(r <= self.bound + 1e-9 for r in self.ratios)


def hyperbox_approximation_ratio_experiment(
    *,
    n: int = 10,
    t: int = 1,
    d: int = 6,
    trials: int = 20,
    spread: float = 3.0,
    byzantine_scale: float = 10.0,
    seed: int = 0,
) -> RatioExperimentResult:
    """Measure BOX-GEOM's one-shot ratio on random Byzantine instances.

    Each trial draws ``n - t`` honest vectors from a Gaussian cloud and
    ``t`` adversarial vectors far outside it, computes the BOX-GEOM
    output and its approximation ratio (Definition 3.3), and compares
    against the ``2 * sqrt(d)`` bound of Theorem 4.4.
    """
    rng = as_generator(seed)
    rule = HyperboxGeometricMedian(n=n, t=t)
    ratios: List[float] = []
    for _ in range(trials):
        honest = rng.normal(0.0, spread, size=(n - t, d))
        byz = rng.normal(0.0, spread, size=(t, d)) + byzantine_scale * spread
        received = np.vstack([honest, byz])
        output = rule.aggregate(received)
        ratios.append(approximation_ratio(output, honest, received, n, t))
    return RatioExperimentResult(ratios=ratios, bound=2.0 * float(np.sqrt(d)), dimension=d)


def hyperbox_contraction_experiment(
    *,
    n: int = 10,
    t: int = 1,
    d: int = 6,
    rounds: int = 8,
    spread: float = 5.0,
    attack: Optional[GradientAttack] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure the per-round contraction of BOX-GEOM (Theorem 4.4).

    Runs the multi-round agreement protocol under the given attack
    (sign flip by default) and reports the honest-diameter trace and the
    round-over-round contraction factors; the theorem predicts the
    maximum edge of the honest bounding box at least halves per round,
    so the diameter trace must converge to zero.
    """
    rng = as_generator(seed)
    algorithm = make_algorithm("box-geom", n, t)
    byzantine = tuple(range(n - t, n))
    protocol = AgreementProtocol(
        algorithm,
        byzantine=byzantine,
        attack=attack if attack is not None else SignFlipAttack(),
        seed=seed,
    )
    inputs = rng.normal(0.0, spread, size=(n - t, d))
    result = protocol.run(inputs, rounds)
    diameters = result.diameter_trace()
    return {
        "diameters": diameters,
        "contraction_factors": contraction_factors(diameters),
        "converged": result.converged(epsilon=max(diameters[0], 1e-12) * 1e-2 + 1e-12),
        "rounds": rounds,
        "dimension": d,
    }
