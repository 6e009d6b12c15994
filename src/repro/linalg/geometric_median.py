"""Geometric median (Weiszfeld algorithm) and medoid.

The geometric median of a point set minimises the sum of Euclidean
distances to all points (Definition 2.2 of the paper).  It has no closed
form for d >= 2, so the paper — like Pillutla et al. — computes it with
the Weiszfeld fixed-point iteration.  This module provides:

- :func:`geometric_median` — a numerically robust Weiszfeld solver with
  the standard epsilon-smoothing fix for iterates that collide with an
  input point, optional per-point weights, and convergence diagnostics.
- :func:`batched_geometric_median` — the same iteration vectorised over
  an ``(S, s, d)`` tensor of S independent point sets, with per-set
  convergence masking (converged sets are frozen, the loop stops when
  all are done).  This is the kernel behind the batched subset layer
  (:mod:`repro.linalg.subset_kernels`).
- :func:`geometric_median_cost` — the objective value (sum of distances).
- :func:`medoid` / :func:`medoid_index` — the input point minimising the
  sum of distances (used by the medoid aggregation rule and as a
  Weiszfeld warm start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.linalg.backends import KernelBackend
from repro.utils.validation import ensure_matrix


@dataclass(frozen=True)
class WeiszfeldResult:
    """Outcome of a Weiszfeld run.

    Attributes
    ----------
    point:
        The computed geometric median estimate, shape ``(d,)``.
    iterations:
        Number of fixed-point iterations performed.
    converged:
        Whether the movement between the last two iterates dropped below
        the requested tolerance.
    cost:
        Final objective value ``sum_i w_i * ||x_i - point||``.
    """

    point: np.ndarray
    iterations: int
    converged: bool
    cost: float


def geometric_median_cost(
    vectors: np.ndarray, point: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Sum of (weighted) Euclidean distances from ``point`` to all rows."""
    mat = ensure_matrix(vectors, name="vectors")
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    dists = np.linalg.norm(mat - p[None, :], axis=1)
    if weights is None:
        return float(dists.sum())
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != mat.shape[0]:
        raise ValueError("weights length must match the number of vectors")
    return float(np.dot(w, dists))


def medoid_index(vectors: np.ndarray, *, dist: Optional[np.ndarray] = None) -> int:
    """Index of the input point minimising the sum of distances to the others.

    ``dist`` optionally supplies the precomputed ``(m, m)`` pairwise
    distance matrix (e.g. from a shared
    :class:`~repro.aggregation.context.AggregationContext`), skipping the
    GEMM-based recomputation.
    """
    mat = ensure_matrix(vectors, name="vectors")
    # Reuse the GEMM-based pairwise computation; O(m^2 d).
    from repro.linalg.distances import resolve_pairwise_matrix

    dist = resolve_pairwise_matrix(mat, dist)
    return int(np.argmin(dist.sum(axis=1)))


def medoid(vectors: np.ndarray) -> np.ndarray:
    """The medoid point itself (a copy of the winning input row)."""
    mat = ensure_matrix(vectors, name="vectors")
    return mat[medoid_index(mat)].copy()


def geometric_median(
    vectors: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    eps: float = 1e-12,
    initial: Optional[np.ndarray] = None,
    dist: Optional[np.ndarray] = None,
    return_info: bool = False,
) -> np.ndarray | WeiszfeldResult:
    """Compute the geometric median via the Weiszfeld algorithm.

    Parameters
    ----------
    vectors:
        ``(m, d)`` stack of input points.
    weights:
        Optional non-negative per-point weights; defaults to uniform.
    tol:
        Convergence threshold on the Euclidean movement per iteration.
    max_iter:
        Iteration budget.  The paper's experiments use a small budget per
        aggregation call, so the default is modest.
    eps:
        Smoothing constant added to distances to avoid division by zero
        when an iterate coincides with an input point (the standard
        smoothed-Weiszfeld fix; see Pillutla et al. 2022).
    initial:
        Optional warm-start point.  Defaults to the weighted mean.
    dist:
        Optional precomputed ``(m, m)`` pairwise distance matrix of the
        input rows (e.g. from a shared
        :class:`~repro.aggregation.context.AggregationContext`).  Used
        only by the vertex-snap step, whose per-input costs become one
        matrix-vector product instead of an O(m^2 d) Python loop.  The
        snap decision has a 1e-9 relative margin, so supplying the
        GEMM-based matrix changes results at most at that tolerance.
    return_info:
        When true, return a :class:`WeiszfeldResult` instead of the bare
        point.

    Notes
    -----
    For one point the median is the point itself; for two points any
    point on the segment is optimal and the weighted mean (midpoint for
    uniform weights) is returned, which is a valid minimiser.
    """
    mat = ensure_matrix(vectors, name="vectors")
    m, _d = mat.shape
    if weights is None:
        w = np.ones(m, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != m:
            raise ValueError("weights length must match the number of vectors")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    if m == 1:
        point = mat[0].copy()
        result = WeiszfeldResult(point=point, iterations=0, converged=True, cost=0.0)
        return result if return_info else point

    if initial is None:
        current = np.average(mat, axis=0, weights=w)
    else:
        current = np.asarray(initial, dtype=np.float64).reshape(-1).copy()
        if current.shape[0] != mat.shape[1]:
            raise ValueError("initial point dimension mismatch")

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        diffs = mat - current[None, :]
        dists = np.linalg.norm(diffs, axis=1)
        # Smoothed inverse distances: points at (numerically) zero
        # distance still contribute a bounded weight.
        inv = w / np.maximum(dists, eps)
        total = inv.sum()
        new_point = (inv[:, None] * mat).sum(axis=0) / total
        move = float(np.linalg.norm(new_point - current))
        current = new_point
        if move <= tol:
            converged = True
            break

    cost = geometric_median_cost(mat, current, weights=w)
    # Weiszfeld stalls when the optimum coincides with an input point
    # (the smoothed update cannot land exactly on a vertex).  Snapping to
    # the best input point whenever it beats the iterate restores the
    # guarantee that the returned cost is no worse than any input's.
    if dist is not None:
        if dist.shape != (m, m):
            raise ValueError(f"dist must have shape {(m, m)}, got {dist.shape}")
        input_costs = dist @ w
    else:
        input_costs = np.array(
            [geometric_median_cost(mat, row, weights=w) for row in mat]
        )
    best_input = int(np.argmin(input_costs))
    # Snap only on a clear improvement: exact ties (e.g. the two-point
    # case, where every point of the segment is optimal) keep the
    # Weiszfeld iterate so the result stays scale/translation equivariant.
    if cost - input_costs[best_input] > 1e-9 * max(cost, 1.0):
        current = mat[best_input].copy()
        cost = float(input_costs[best_input])
        converged = True
    result = WeiszfeldResult(
        point=current, iterations=iterations, converged=converged, cost=cost
    )
    return result if return_info else current


@dataclass(frozen=True)
class BatchedWeiszfeldResult:
    """Outcome of a batched Weiszfeld run over S independent point sets.

    Attributes
    ----------
    points:
        ``(S, d)`` geometric-median estimates.
    iterations:
        ``(S,)`` int array — iterations each set actually ran before its
        convergence mask froze it.
    converged:
        ``(S,)`` bool array — whether each set's movement dropped below
        the tolerance (or it was snapped to an optimal vertex).
    costs:
        ``(S,)`` final objective values.
    """

    points: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    costs: np.ndarray


def batched_geometric_median(
    points: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    eps: float = 1e-12,
    initial: Optional[np.ndarray] = None,
    pairwise: Optional[np.ndarray] = None,
    return_info: bool = False,
    validate_pairwise: bool = True,
) -> np.ndarray | BatchedWeiszfeldResult:
    """Weiszfeld iteration over ``S`` independent point sets at once.

    Runs the same smoothed fixed-point update as
    :func:`geometric_median`, but on an ``(S, s, d)`` tensor: every
    iteration updates all still-active sets with a handful of fused
    array operations instead of S separate Python-level solves.
    Converged sets are frozen (masked out of subsequent updates) and the
    loop exits as soon as every set has converged.  The iteration body
    is :meth:`repro.linalg.backends.KernelBackend.weiszfeld_loop`.

    Parameters
    ----------
    points:
        ``(S, s, d)`` tensor — S sets of s points in dimension d.
    weights:
        Optional non-negative weights, shape ``(s,)`` (shared) or
        ``(S, s)`` (per set); defaults to uniform.
    tol, max_iter, eps:
        As in :func:`geometric_median`, applied per set.
    initial:
        Optional ``(S, d)`` warm starts; defaults to the per-set
        weighted mean (the scalar solver's default).
    pairwise:
        Optional ``(S, s, s)`` per-set pairwise distances, used by the
        vertex-snap step; computed with one batched GEMM when absent.
    return_info:
        When true, return a :class:`BatchedWeiszfeldResult`.
    validate_pairwise:
        Pass ``False`` when ``pairwise`` is a gather from an
        already-validated ``(m, m)`` matrix (the chunked subset kernel
        does) to skip the per-chunk dtype/shape re-validation.

    Notes
    -----
    Results match S scalar :func:`geometric_median` calls within a
    tolerance of order ``tol``: both paths run the identical iteration,
    but batched reductions accumulate sums in a different order, so
    bitwise equality is not guaranteed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3:
        raise ValueError(f"points must be an (S, s, d) tensor, got shape {pts.shape}")
    num_sets, s, d = pts.shape
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if weights is None:
        w = np.ones((num_sets, s), dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = np.broadcast_to(w, (num_sets, s))
        if w.shape != (num_sets, s):
            raise ValueError(
                f"weights must have shape ({s},) or {(num_sets, s)}, got {w.shape}"
            )
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if not np.all(np.any(w > 0, axis=1)):
            raise ValueError("every set needs at least one positive weight")
        w = np.ascontiguousarray(w)

    if num_sets == 0 or s == 1:
        current = pts[:, 0, :].copy() if s == 1 else np.empty((0, d))
        info = BatchedWeiszfeldResult(
            points=current,
            iterations=np.zeros(num_sets, dtype=np.int64),
            converged=np.ones(num_sets, dtype=bool),
            costs=np.zeros(num_sets, dtype=np.float64),
        )
        return info if return_info else current

    if initial is None:
        totals = w.sum(axis=1)
        current = np.einsum("as,asd->ad", w, pts)
        current /= totals[:, None]
    else:
        current = np.asarray(initial, dtype=np.float64).copy()
        if current.shape != (num_sets, d):
            raise ValueError(
                f"initial must have shape {(num_sets, d)}, got {current.shape}"
            )

    current, iterations, converged = KernelBackend().weiszfeld_loop(
        pts, w, current, tol=tol, max_iter=max_iter, eps=eps
    )

    # Final objective values, then the same snap-to-best-vertex repair as
    # the scalar solver (clear improvements only, 1e-9 relative margin).
    diffs = pts - current[:, None, :]
    dists = np.sqrt(np.einsum("asd,asd->as", diffs, diffs))
    costs = np.einsum("as,as->a", w, dists)
    if pairwise is None:
        # Per-set pairwise distances via one batched GEMM.
        sq_norms = np.einsum("asd,asd->as", pts, pts)
        sq = sq_norms[:, :, None] + sq_norms[:, None, :] - 2.0 * (
            pts @ pts.transpose(0, 2, 1)
        )
        np.maximum(sq, 0.0, out=sq)
        diag = np.arange(s)
        sq[:, diag, diag] = 0.0
        pairwise = np.sqrt(sq)
    elif validate_pairwise:
        pairwise = np.asarray(pairwise, dtype=np.float64)
        if pairwise.shape != (num_sets, s, s):
            raise ValueError(
                f"pairwise must have shape {(num_sets, s, s)}, got {pairwise.shape}"
            )
    input_costs = np.einsum("ai,aij->aj", w, pairwise)
    best = np.argmin(input_costs, axis=1)
    best_costs = np.take_along_axis(input_costs, best[:, None], axis=1)[:, 0]
    snap = costs - best_costs > 1e-9 * np.maximum(costs, 1.0)
    if snap.any():
        rows = np.flatnonzero(snap)
        current[rows] = pts[rows, best[rows]]
        costs[rows] = best_costs[rows]
        converged[rows] = True
    info = BatchedWeiszfeldResult(
        points=current, iterations=iterations, converged=converged, costs=costs
    )
    return info if return_info else current


def coordinatewise_median(vectors: np.ndarray) -> np.ndarray:
    """Coordinate-wise (marginal) median of the rows.

    Not the same as the geometric median for d >= 2, but coincides with
    it in one dimension; used as a cheap robust baseline and in tests.
    """
    mat = ensure_matrix(vectors, name="vectors")
    return np.median(mat, axis=0)
