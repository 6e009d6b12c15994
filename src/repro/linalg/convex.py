"""Convex-hull machinery and the safe-area construction.

The safe-area algorithm (Definition 2.3, Mendes et al.) intersects the
convex hulls of every ``(n - t)``-subset of the received vectors.  The
paper only uses it as a theoretical foil — it cannot be run when
``n <= d`` — but we implement it for low dimensions so the unbounded
approximation ratio of Theorem 4.1 can be demonstrated executably.

Membership in a convex hull is decided by a small linear program
(scipy ``linprog``), which works in any dimension and for degenerate
hulls, unlike Qhull-based approaches.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.utils.validation import ensure_matrix


def in_convex_hull(point: np.ndarray, vertices: np.ndarray, *, tol: float = 1e-9) -> bool:
    """Whether ``point`` is a convex combination of the rows of ``vertices``.

    Solves the feasibility LP ``find lambda >= 0, sum lambda = 1,
    V^T lambda = point``; robust to degenerate (lower-dimensional) hulls.
    """
    verts = ensure_matrix(vertices, name="vertices")
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != verts.shape[1]:
        raise ValueError("point dimension does not match vertices dimension")
    m = verts.shape[0]
    a_eq = np.vstack([verts.T, np.ones((1, m))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(
        c=np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * m,
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:  # infeasible
        # Retry with a tolerance band: accept points within `tol` of the hull.
        res2 = linprog(
            c=np.zeros(m + 1),
            A_ub=None,
            b_ub=None,
            A_eq=np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))]),
            b_eq=b_eq,
            bounds=[(0.0, 1.0)] * m + [(0.0, 0.0)],
            method="highs",
        )
        return bool(res2.status == 0)
    return False


def safe_area_vertices(
    vectors: np.ndarray,
    t: int,
    *,
    candidate_points: Optional[np.ndarray] = None,
    grid_resolution: int = 0,
) -> np.ndarray:
    """Points that belong to the safe area (Definition 2.3).

    The safe area is the intersection of the convex hulls of every
    ``(n - t)``-subset of the inputs.  A full H-representation is
    unnecessary for our purposes; instead this returns the subset of a
    candidate point set that lies in *every* hull.  By default the
    candidates are the input vectors themselves plus their mean and the
    pairwise midpoints, optionally augmented with a coarse grid (only
    sensible for d <= 3).

    Returns an ``(k, d)`` array, possibly empty (shape ``(0, d)``) when no
    candidate lies in the intersection.
    """
    mat = ensure_matrix(vectors, name="vectors")
    n, d = mat.shape
    if t < 0:
        raise ValueError("t must be non-negative")
    if n - t < 1:
        raise ValueError("n - t must be at least 1")

    if candidate_points is None:
        cands = [mat, mat.mean(axis=0, keepdims=True)]
        mids = [(mat[i] + mat[j]) / 2.0 for i, j in combinations(range(n), 2)]
        if mids:
            cands.append(np.stack(mids, axis=0))
        if grid_resolution > 0 and d <= 3:
            lows, highs = mat.min(axis=0), mat.max(axis=0)
            axes = [np.linspace(lows[k], highs[k], grid_resolution) for k in range(d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            cands.append(np.stack([m.ravel() for m in mesh], axis=1))
        candidates = np.vstack(cands)
    else:
        candidates = ensure_matrix(candidate_points, name="candidate_points")

    subsets = list(combinations(range(n), n - t))
    keep: List[np.ndarray] = []
    for cand in candidates:
        if all(in_convex_hull(cand, mat[list(idx)]) for idx in subsets):
            keep.append(cand)
    if not keep:
        return np.empty((0, d))
    stacked = np.stack(keep, axis=0)
    # De-duplicate nearly identical candidates.
    unique: List[np.ndarray] = []
    for row in stacked:
        if not any(np.linalg.norm(row - u) <= 1e-9 for u in unique):
            unique.append(row)
    return np.stack(unique, axis=0)
