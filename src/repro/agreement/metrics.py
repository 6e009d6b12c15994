"""Approximation-ratio and convergence diagnostics (Section 3 of the paper).

The paper measures the quality of an agreement/aggregation output
against the *true geometric median* ``mu*`` — the geometric median of
the non-faulty inputs — normalised by the radius ``r_cov`` of the
minimum covering ball of ``S_geo``, the set of geometric medians of all
``(n - t)``-subsets of the vectors a node received (Definitions 3.1 and
3.3).  A vector at distance at most ``c * r_cov`` from ``mu*`` is a
``c``-approximation.

These diagnostics are what the theory benchmarks (T1) report.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.linalg.covering_ball import Ball, minimum_covering_ball
from repro.linalg.geometric_median import geometric_median
from repro.linalg.subset_kernels import subset_geometric_medians
from repro.linalg.subsets import subset_family
from repro.utils.validation import ensure_matrix

#: Covering-ball radius (and output distance) at or below which the
#: candidate medians count as one point in :func:`approximation_ratio`.
_DEGENERATE_TOL = 1e-12


def true_geometric_median(
    honest_vectors: np.ndarray, *, tol: float = 1e-10, max_iter: int = 500
) -> np.ndarray:
    """Geometric median ``mu*`` of the non-faulty inputs."""
    mat = ensure_matrix(honest_vectors, name="honest_vectors")
    return geometric_median(mat, tol=tol, max_iter=max_iter)


def geometric_median_candidates(
    received_vectors: np.ndarray,
    n: int,
    t: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> np.ndarray:
    """The set ``S_geo``: geometric medians of all ``(n - t)``-subsets.

    ``received_vectors`` is the full ``(m, d)`` stack a node observed
    (honest and Byzantine alike); the subset size is ``n - t`` clipped to
    ``m``.  Exhaustive by default, sampled when ``max_subsets`` caps the
    enumeration.  The whole family is solved by one batched Weiszfeld
    call (:func:`repro.linalg.subset_kernels.subset_geometric_medians`).
    """
    mat = ensure_matrix(received_vectors, name="received_vectors")
    subset_size = min(max(n - t, 1), mat.shape[0])
    indices = subset_family(mat, subset_size, max_subsets=max_subsets, rng=rng)
    return subset_geometric_medians(mat, indices, tol=tol, max_iter=max_iter)


def covering_ball_of_sgeo(
    received_vectors: np.ndarray,
    n: int,
    t: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Ball:
    """Minimum covering ball ``B(S_geo)`` whose radius is ``r_cov``."""
    candidates = geometric_median_candidates(
        received_vectors, n, t, max_subsets=max_subsets, rng=rng
    )
    return minimum_covering_ball(candidates)


def approximation_ratio(
    output: np.ndarray,
    honest_vectors: np.ndarray,
    received_vectors: np.ndarray,
    n: int,
    t: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Approximation ratio of ``output`` per Definition 3.3.

    ``dist(output, mu*) / r_cov`` where ``mu*`` is the geometric median
    of the honest vectors and ``r_cov`` the covering-ball radius of
    ``S_geo`` computed from the received vectors.

    When ``r_cov`` is (numerically) zero the set of candidate medians is
    a single point: the ratio is 0 if the output coincides with it and
    ``inf`` otherwise — this is exactly the degenerate situation used in
    the unboundedness proofs (Theorems 4.1 and 4.3).
    """
    out = np.asarray(output, dtype=np.float64).reshape(-1)
    mu_star = true_geometric_median(honest_vectors)
    ball = covering_ball_of_sgeo(received_vectors, n, t, max_subsets=max_subsets, rng=rng)
    dist = float(np.linalg.norm(out - mu_star))
    if ball.radius <= _DEGENERATE_TOL:
        return 0.0 if dist <= _DEGENERATE_TOL else float("inf")
    return dist / ball.radius


def contraction_factors(diameters: List[float], *, eps: float = 1e-15) -> List[float]:
    """Round-over-round contraction ratios of a diameter trace.

    The hyperbox algorithm halves ``E_max`` each sub-round (Theorem 4.4),
    so its contraction factors should settle at or below roughly 0.5 per
    round (up to the sqrt(d) gap between diameter and E_max); MD-GEOM on
    the Lemma 4.2 instance produces factors pinned at 1.0.
    """
    factors = []
    for prev, cur in zip(diameters, diameters[1:]):
        if prev <= eps:
            factors.append(0.0)
        else:
            factors.append(cur / prev)
    return factors
