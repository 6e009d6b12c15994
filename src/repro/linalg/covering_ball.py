"""Minimum covering (enclosing) ball.

The paper's approximation measure (Definition 3.3) is stated in terms of
the radius ``r_cov`` of the minimum covering ball of ``S_geo``, the set
of geometric medians of all ``(n - t)``-subsets.  This module provides:

- :func:`minimum_covering_ball` — exact Welzl algorithm (move-to-front,
  iterative support handling) for modest point counts and dimensions,
  with automatic fallback to the Ritter approximation plus a refinement
  sweep for large inputs.
- :func:`ritter_ball` — the classic 2-pass approximation (guaranteed to
  cover, radius at most ~1.5x optimal in practice).

For high-dimensional gradient vectors the exact ball is both expensive
and unnecessary — the approximation-ratio metrics only need a covering
ball whose radius is a constant-factor estimate — so the default entry
point picks the strategy based on input size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.validation import ensure_matrix


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball with ``center`` (shape ``(d,)``) and ``radius``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def contains(self, point: np.ndarray, *, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Whether ``point`` lies in the (slightly inflated) closed ball."""
        p = np.asarray(point, dtype=np.float64).reshape(-1)
        dist = float(np.linalg.norm(p - self.center))
        return dist <= self.radius * (1.0 + rtol) + atol

    def contains_all(self, points: np.ndarray, *, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Whether every row of ``points`` lies in the closed ball."""
        mat = ensure_matrix(points, name="points")
        dists = np.linalg.norm(mat - self.center[None, :], axis=1)
        return bool(np.all(dists <= self.radius * (1.0 + rtol) + atol))


# ---------------------------------------------------------------------------
# Exact ball from a support set (<= d + 1 affinely independent points)
# ---------------------------------------------------------------------------

def _ball_from_support(points: np.ndarray) -> Ball:
    """Smallest ball whose boundary passes through all support points.

    Solves the linear system expressing that the centre is equidistant
    from every support point and lies in their affine hull.
    """
    pts = np.asarray(points, dtype=np.float64)
    k = pts.shape[0]
    if k == 0:
        return Ball(center=np.zeros(1), radius=0.0)
    if k == 1:
        return Ball(center=pts[0].copy(), radius=0.0)
    base = pts[0]
    rel = pts[1:] - base  # (k-1, d)
    # Solve 2 * rel @ x = |rel_i|^2 in the least-squares sense; the
    # solution is expressed in the affine frame anchored at `base`.
    rhs = np.einsum("ij,ij->i", rel, rel)
    # Use lstsq for robustness to degenerate (affinely dependent) supports.
    sol, *_ = np.linalg.lstsq(2.0 * rel, rhs, rcond=None)
    center = base + sol
    radius = float(np.max(np.linalg.norm(pts - center[None, :], axis=1)))
    return Ball(center=center, radius=radius)


def _welzl(points: np.ndarray, rng: np.random.Generator) -> Ball:
    """Welzl's randomised algorithm for the exact minimum enclosing ball.

    Classic recursive formulation over a random permutation: process the
    points one by one, and whenever a point falls outside the ball of the
    already-processed prefix, recompute the ball with that point forced
    onto the boundary (added to the support set ``R``).  Expected linear
    time for fixed dimension; the recursion depth is at most the number
    of points, which is bounded by ``exact_limit``.
    """
    pts = points.copy()
    rng.shuffle(pts)
    m, d = pts.shape

    def solve(i: int, support: tuple[int, ...]) -> Ball:
        if i == 0 or len(support) == d + 1:
            if not support:
                return Ball(center=pts[0].copy(), radius=0.0)
            return _ball_from_support(pts[list(support)])
        ball = solve(i - 1, support)
        p = pts[i - 1]
        if ball.contains(p, rtol=1e-12, atol=1e-12):
            return ball
        return solve(i - 1, support + (i - 1,))

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * m + 100))
    try:
        return solve(m, ())
    finally:
        sys.setrecursionlimit(old_limit)


def ritter_ball(points: np.ndarray) -> Ball:
    """Ritter's two-pass approximate bounding sphere.

    Guaranteed to contain all points; the radius can exceed the optimum
    by a modest constant factor.  Runs in O(m d).
    """
    pts = ensure_matrix(points, name="points")
    # Pick the point farthest from an arbitrary seed, then the point
    # farthest from that one: their midpoint seeds the ball.
    seed = pts[0]
    a = pts[int(np.argmax(np.linalg.norm(pts - seed[None, :], axis=1)))]
    b = pts[int(np.argmax(np.linalg.norm(pts - a[None, :], axis=1)))]
    center = (a + b) / 2.0
    radius = float(np.linalg.norm(a - b) / 2.0)
    # Grow pass.
    for p in pts:
        dist = float(np.linalg.norm(p - center))
        if dist > radius:
            new_radius = (radius + dist) / 2.0
            # Shift the centre towards p so the old ball stays inside.
            center = center + (p - center) * ((dist - radius) / (2.0 * dist))
            radius = new_radius
    # Final inflation so floating point error cannot exclude any point.
    dists = np.linalg.norm(pts - center[None, :], axis=1)
    radius = max(radius, float(dists.max()))
    return Ball(center=center, radius=radius)


def _refine_ball(points: np.ndarray, ball: Ball, iterations: int = 64) -> Ball:
    """Shrink an approximate ball via the "badoiu-clarkson" style updates.

    Each step moves the centre towards the farthest point with a 1/(k+1)
    step size; this converges towards the optimal centre and never stops
    covering the points (the radius is recomputed from the data).
    """
    pts = ensure_matrix(points, name="points")
    center = ball.center.copy()
    for k in range(1, iterations + 1):
        dists = np.linalg.norm(pts - center[None, :], axis=1)
        far = int(np.argmax(dists))
        center = center + (pts[far] - center) / (k + 1.0)
    radius = float(np.max(np.linalg.norm(pts - center[None, :], axis=1)))
    refined = Ball(center=center, radius=radius)
    return refined if refined.radius <= ball.radius else ball


def minimum_covering_ball(
    points: np.ndarray,
    *,
    exact_limit: int = 512,
    rng: Optional[np.random.Generator] = None,
) -> Ball:
    """Minimum enclosing ball of the rows of ``points``.

    Uses the exact Welzl algorithm when the point count is at most
    ``exact_limit``; otherwise falls back to Ritter + refinement, which
    is a covering ball with near-optimal radius and is what the
    approximation-ratio diagnostics need at gradient dimensionality.
    """
    pts = ensure_matrix(points, name="points")
    generator = rng if rng is not None else np.random.default_rng(0)
    m = pts.shape[0]
    if m == 1:
        return Ball(center=pts[0].copy(), radius=0.0)
    if m == 2:
        center = pts.mean(axis=0)
        return Ball(center=center, radius=float(np.linalg.norm(pts[0] - center)))
    if m <= exact_limit:
        ball = _welzl(pts, generator)
        # Guard against numerical slack: radius must cover all points.
        dists = np.linalg.norm(pts - ball.center[None, :], axis=1)
        return Ball(center=ball.center, radius=max(ball.radius, float(dists.max())))
    return _refine_ball(pts, ritter_ball(pts))
