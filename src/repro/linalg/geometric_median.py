"""Geometric median (Weiszfeld algorithm) and medoid.

The geometric median of a point set minimises the sum of Euclidean
distances to all points (Definition 2.2 of the paper).  It has no closed
form for d >= 2, so the paper — like Pillutla et al. — computes it with
the Weiszfeld fixed-point iteration.  Every geometric median in the
package runs the one loop,
:meth:`repro.linalg.backends.KernelBackend.weiszfeld_loop`.  This
module provides:

- :func:`batched_geometric_median` — that loop over an ``(S, s, d)``
  tensor of S independent point sets, with per-set convergence masking,
  followed by the vertex snap.  It is the kernel behind the batched
  subset layer (:mod:`repro.linalg.subset_kernels`).
- :func:`geometric_median` — its S = 1 front for one ``(m, d)`` stack.
- :func:`weiszfeld_reference` — the same iteration written for one
  stack, the oracle of the tests and the per-tuple side of
  ``benchmarks/bench_subset_kernels.py``.  Nothing in the package calls
  it.
- :func:`check_solver_settings` — the one check of ``tol`` and
  ``max_iter``.
- :func:`geometric_median_cost` — the objective value (sum of distances).
- :func:`medoid` / :func:`medoid_index` — the input point minimising the
  sum of distances (used by the medoid aggregation rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.linalg.backends import WEISZFELD_EPS, KernelBackend
from repro.utils.validation import ensure_matrix

#: Relative margin by which an input point must beat the final iterate
#: before the vertex snap replaces the iterate with it.
SNAP_MARGIN = 1e-9


def check_solver_settings(tol: float, max_iter: int) -> None:
    """Raise ``ValueError`` unless ``tol > 0`` and ``max_iter >= 1``.

    The geometric-median rules call it from their constructors, so a bad
    setting fails where the rule is built, not at its first aggregation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def geometric_median_cost(vectors: np.ndarray, point: np.ndarray) -> float:
    """Sum of Euclidean distances from ``point`` to all rows."""
    mat = ensure_matrix(vectors, name="vectors")
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    return float(np.linalg.norm(mat - p[None, :], axis=1).sum())


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
    vectors: np.ndarray, *, tol: float = 1e-8, max_iter: int = 200
) -> np.ndarray:
    """Geometric median of the rows of ``vectors``.

    The S = 1 front of :func:`batched_geometric_median`.

    Parameters
    ----------
    vectors:
        ``(m, d)`` stack of input points.
    tol:
        Convergence threshold on the Euclidean movement per iteration.
    max_iter:
        Iteration budget.  The paper's experiments use a small budget per
        aggregation call, so the default is modest.

    Notes
    -----
    For one point the median is the point itself; for two points any
    point on the segment is optimal and the midpoint is returned.
    """
    mat = ensure_matrix(vectors, name="vectors")
    return batched_geometric_median(mat[None], tol=tol, max_iter=max_iter)[0]


def weiszfeld_reference(
    vectors: np.ndarray, *, tol: float = 1e-8, max_iter: int = 200
) -> np.ndarray:
    """One stack's Weiszfeld solve, written without batching.

    The iteration of :func:`batched_geometric_median` — mean start,
    smoothed update, the same snap — with the snap's per-input costs
    computed row by row from exact differences.  It is the oracle the
    tests hold :func:`geometric_median` to, within the tolerance tier,
    and the per-tuple baseline of ``benchmarks/bench_subset_kernels.py``.
    """
    mat = ensure_matrix(vectors, name="vectors")
    check_solver_settings(tol, max_iter)
    if mat.shape[0] == 1:
        return mat[0].copy()
    current = mat.mean(axis=0)
    for _ in range(max_iter):
        dists = np.linalg.norm(mat - current[None, :], axis=1)
        inv = 1.0 / np.maximum(dists, WEISZFELD_EPS)
        new_point = (inv[:, None] * mat).sum(axis=0) / inv.sum()
        move = float(np.linalg.norm(new_point - current))
        current = new_point
        if move <= tol:
            break
    cost = geometric_median_cost(mat, current)
    input_costs = [geometric_median_cost(mat, row) for row in mat]
    best = int(np.argmin(input_costs))
    if cost - input_costs[best] > SNAP_MARGIN * max(cost, 1.0):
        return mat[best].copy()
    return current


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
    tol: float = 1e-8,
    max_iter: int = 200,
    pairwise: Optional[np.ndarray] = None,
    return_info: bool = False,
) -> np.ndarray | BatchedWeiszfeldResult:
    """Weiszfeld iteration over ``S`` independent point sets at once.

    Every iteration updates all still-active sets with a handful of
    fused array operations instead of S separate Python-level solves.
    Converged sets are frozen (masked out of subsequent updates) and the
    loop exits as soon as every set has converged.  The iteration body
    is :meth:`repro.linalg.backends.KernelBackend.weiszfeld_loop`, and
    each set starts from its mean.

    Parameters
    ----------
    points:
        ``(S, s, d)`` tensor — S sets of s >= 1 points in dimension d.
    tol, max_iter:
        As in :func:`geometric_median`, applied per set.
    pairwise:
        Optional ``(S, s, s)`` per-set pairwise distances for the vertex
        snap, e.g. gathered from a shared ``(m, m)`` matrix.  When
        absent, each set's block is built from the differences to its
        final iterate, which the cost step already holds.
    return_info:
        When true, return a :class:`BatchedWeiszfeldResult`.

    Notes
    -----
    Results match :func:`weiszfeld_reference` on each set within a
    tolerance of order ``tol``: both run the same iteration, but batched
    reductions accumulate sums in a different order, so bitwise equality
    is not guaranteed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3:
        raise ValueError(f"points must be an (S, s, d) tensor, got shape {pts.shape}")
    num_sets, s, _d = pts.shape
    if s == 0:
        raise ValueError(
            f"every point set needs at least one point, got shape {pts.shape}"
        )
    check_solver_settings(tol, max_iter)

    if num_sets == 0 or s == 1:
        current = pts[:, 0, :].copy()
        info = BatchedWeiszfeldResult(
            points=current,
            iterations=np.zeros(num_sets, dtype=np.int64),
            converged=np.ones(num_sets, dtype=bool),
            costs=np.zeros(num_sets, dtype=np.float64),
        )
        return info if return_info else current

    current, iterations, converged = KernelBackend().weiszfeld_loop(
        pts, pts.mean(axis=1), tol=tol, max_iter=max_iter
    )

    # Final objective values, then the snap to the best input point: the
    # smoothed update cannot land exactly on a vertex, so a set whose
    # optimum is an input point stalls next to it.  Only a clear
    # improvement snaps; exact ties (e.g. two points, where the whole
    # segment is optimal) keep the iterate, so the result stays scale
    # and translation equivariant.
    diffs = pts - current[:, None, :]
    sq = np.einsum("asd,asd->as", diffs, diffs)
    costs = np.sqrt(sq).sum(axis=1)
    if pairwise is None:
        # |p_i - p_j|^2 = |δ_i|^2 + |δ_j|^2 - 2 δ_i·δ_j with δ = p - x.
        # Centred on the iterate, the block stays accurate when the set
        # shares a large offset or its rows nearly coincide; the
        # uncentred |p_i|^2 + |p_j|^2 - 2 p_i·p_j form does not.
        block = sq[:, :, None] + sq[:, None, :] - 2.0 * (diffs @ diffs.transpose(0, 2, 1))
        np.maximum(block, 0.0, out=block)
        diag = np.arange(s)
        block[:, diag, diag] = 0.0
        pairwise = np.sqrt(block)
    else:
        pairwise = np.asarray(pairwise, dtype=np.float64)
        if pairwise.shape != (num_sets, s, s):
            raise ValueError(
                f"pairwise must have shape {(num_sets, s, s)}, got {pairwise.shape}"
            )
    input_costs = pairwise.sum(axis=1)
    best = np.argmin(input_costs, axis=1)
    best_costs = np.take_along_axis(input_costs, best[:, None], axis=1)[:, 0]
    snap = costs - best_costs > SNAP_MARGIN * np.maximum(costs, 1.0)
    if snap.any():
        rows = np.flatnonzero(snap)
        current[rows] = pts[rows, best[rows]]
        costs[rows] = best_costs[rows]
        converged[rows] = True
    info = BatchedWeiszfeldResult(
        points=current, iterations=iterations, converged=converged, costs=costs
    )
    return info if return_info else current
