"""Adversarial input families from the paper's negative results.

Each function builds the exact vector configuration used in a proof and
measures the quantity the proof bounds, so the theoretical claims become
executable checks (used by the T1 benchmark and the theory tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.aggregation.krum import Krum
from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.agreement.metrics import approximation_ratio
from repro.byzantine.partition import PartitionAttack
from repro.linalg.geometric_median import geometric_median


@dataclass
class CounterexampleReport:
    """Outcome of evaluating an algorithm on an adversarial construction."""

    name: str
    measured_ratio: float
    details: Dict[str, float]


def safe_area_unbounded_instance(
    *, d: int = 4, f: int = 1, x: float = 10.0, epsilon: float = 1e-3
) -> CounterexampleReport:
    """Theorem 4.1 construction: the safe area collapses to the origin.

    ``d * f + 1`` correct nodes and ``f`` Byzantine nodes.  One correct
    node and all Byzantine nodes sit at the origin; the remaining correct
    nodes form ``d`` groups of ``f`` nodes at ``v + eps_j`` where
    ``v = (x, 0, ..., 0)``.  The safe area is the single point ``v0 = 0``
    while every candidate geometric median concentrates near ``v``, so
    the ratio ``dist(safe_area, mu*) / r_cov`` blows up (infinite in the
    limit ``epsilon -> 0``; here we report the measured, very large,
    finite value for the chosen epsilon).
    """
    if d < 3:
        raise ValueError("the construction needs d >= 3")
    if f < 1:
        raise ValueError("f must be at least 1")
    n_correct = d * f + 1
    n = n_correct + f
    t = f

    v = np.zeros(d)
    v[0] = x
    honest_vectors: List[np.ndarray] = [np.zeros(d)]
    for j in range(d):
        offset = np.zeros(d)
        offset[j] = epsilon
        for _ in range(f):
            honest_vectors.append(v + offset)
    byz_vectors = [np.zeros(d) for _ in range(f)]

    honest = np.stack(honest_vectors, axis=0)
    received = np.vstack([honest, np.stack(byz_vectors, axis=0)])

    # The safe area of this construction is the single point v0 = origin.
    safe_area_point = np.zeros(d)
    ratio = approximation_ratio(safe_area_point, honest, received, n, t)
    mu_star = geometric_median(honest, tol=1e-12, max_iter=2000)
    return CounterexampleReport(
        name="safe-area",
        measured_ratio=ratio,
        details={
            "distance_to_true_median": float(np.linalg.norm(safe_area_point - mu_star)),
            "dimension": float(d),
            "n": float(n),
            "t": float(t),
        },
    )


def krum_unbounded_instance(
    *, n: int = 10, t: int = 2, d: int = 5, spread: float = 5.0, seed: int = 7
) -> CounterexampleReport:
    """Theorem 4.3 construction: Krum with silent Byzantine nodes.

    The Byzantine parties send nothing, so exactly ``n - t`` honest
    vectors arrive and ``S_geo`` is the single point ``Geo(honest)``.
    Generic honest vectors make the medoid (Krum's output) differ from
    the geometric median, so the measured ratio is infinite.
    """
    rng = np.random.default_rng(seed)
    honest = rng.normal(0.0, spread, size=(n - t, d))
    received = honest  # Byzantine nodes stay silent.
    krum = Krum(n=n, t=t)
    output = krum.aggregate(received)
    ratio = approximation_ratio(output, honest, received, n, t)
    mu_star = geometric_median(honest, tol=1e-12, max_iter=2000)
    return CounterexampleReport(
        name="krum",
        measured_ratio=ratio,
        details={
            "distance_to_true_median": float(np.linalg.norm(output - mu_star)),
            "n": float(n),
            "t": float(t),
            "dimension": float(d),
        },
    )


def md_geom_non_convergence_instance(
    *,
    n: int = 10,
    t: int = 2,
    d: int = 4,
    separation: float = 4.0,
    rounds: int = 8,
    tie_break: str = "adversarial",
) -> Dict[str, object]:
    """Lemma 4.2 construction: MD-GEOM never converges.

    ``n - t`` honest nodes split evenly between two poles ``v1`` and
    ``v2``; Byzantine nodes echo one pole each and deliver it only to
    "their" half of the honest nodes.  Every honest node then has several
    minimum-diameter subsets of identical diameter, one of which keeps it
    pinned to a pole.  Lemma 4.2 is a worst-case statement over the valid
    executions, so the instance defaults to the *adversarial* tie-break of
    :class:`~repro.aggregation.mda.MinimumDiameterGeometricMedian`; with
    the benign ``"first"`` tie-break this particular instance happens to
    converge, which is consistent with the lemma ("does not always
    converge").

    Returns a dictionary with the per-round honest diameters and a flag
    ``converged`` (expected ``False`` under the adversarial tie-break).
    """
    if (n - t) % 2 != 0:
        raise ValueError("the construction needs an even number of honest nodes")
    if t < 2 or t * 3 >= n:
        raise ValueError("need 2 <= t < n/3 for the two-pole construction")
    honest_count = n - t
    half = honest_count // 2

    rng = np.random.default_rng(0)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    v1 = np.zeros(d)
    v2 = separation * direction

    honest_ids = list(range(honest_count))
    byzantine_ids = list(range(honest_count, n))
    group_a = honest_ids[:half]   # start at v1
    group_b = honest_ids[half:]   # start at v2

    inputs = {}
    for node in group_a:
        inputs[node] = v1.copy()
    for node in group_b:
        inputs[node] = v2.copy()

    algorithm = make_algorithm("md-geom", n, t, tie_break=tie_break)
    attack = PartitionAttack(group_a=group_a, group_b=group_b)
    protocol = AgreementProtocol(algorithm, byzantine=byzantine_ids, attack=attack, seed=0)
    result = protocol.run(inputs, rounds)
    diameters = result.diameter_trace()
    return {
        "diameters": diameters,
        "converged": result.converged(epsilon=separation / 100.0),
        "initial_diameter": diameters[0],
        "final_diameter": diameters[-1],
        "rounds": rounds,
    }
