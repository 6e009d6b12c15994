"""Safe-area rule (Mendes–Herlihy–Vaidya–Garg).

The classic multidimensional approximate-agreement algorithm: each node
repeatedly moves to a point inside the *safe area*, the intersection of
the convex hulls of every ``(n - t)``-subset of its received vectors
(Definition 2.3).  The safe area is guaranteed non-empty only when
``t < n / max(3, d + 1)``, so the rule is unusable when ``n <= d`` —
which is the regime of machine-learning gradients — and the paper uses
it purely as a theoretical comparison point (Theorem 4.1 shows its
approximation ratio w.r.t. the geometric median is unbounded).

The implementation restricts itself to small dimensions and picks the
safe-area candidate closest to the mean of the received vectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.linalg.convex import safe_area_vertices


class SafeArea(AggregationRule):
    """Safe-area rule for low-dimensional inputs.

    Parameters
    ----------
    n, t:
        System size and fault tolerance.  ``t < n / max(3, d + 1)`` is
        checked per call: the dimension is only known then.
    grid_resolution:
        Optional grid refinement for the candidate search in d <= 3.
    """

    name = "safe-area"

    def __init__(
        self, n: Optional[int] = None, t: int = 0, *, grid_resolution: int = 0
    ) -> None:
        super().__init__(n=n, t=t)
        if grid_resolution < 0:
            raise ValueError("grid_resolution must be non-negative")
        self.grid_resolution = int(grid_resolution)

    def _aggregate(self, vectors: np.ndarray, context: AggregationContext) -> np.ndarray:
        m, d = vectors.shape
        n = self.effective_n(m)
        divisor = max(3, d + 1)
        if self.t > 0 and self.t * divisor >= n:
            raise ValueError(
                f"safe-area algorithm requires t < n/max(3, d+1) = {n}/{divisor}; "
                f"got t={self.t} with d={d}"
            )
        candidates = safe_area_vertices(
            vectors, self.t, grid_resolution=self.grid_resolution
        )
        mean = vectors.mean(axis=0)
        if candidates.shape[0] == 0:
            # The candidate search is heuristic; fall back to the mean of
            # the received vectors, which lies in the convex hull of all
            # of them (a superset of the safe area's hull constraints).
            return mean
        dists = np.linalg.norm(candidates - mean[None, :], axis=1)
        return candidates[int(np.argmin(dists))].copy()
