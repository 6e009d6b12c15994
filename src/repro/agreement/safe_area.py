"""Safe-area agreement algorithm (Mendes–Herlihy–Vaidya–Garg).

The classic multidimensional approximate-agreement algorithm: each node
repeatedly moves to a point inside the *safe area*, the intersection of
the convex hulls of every ``(n - t)``-subset of its received vectors
(Definition 2.3).  The safe area is guaranteed non-empty only when
``t < n / max(3, d + 1)``, so the algorithm is unusable when ``n <= d``
— which is the regime of machine-learning gradients — and the paper uses
it purely as a theoretical comparison point (Theorem 4.1 shows its
approximation ratio w.r.t. the geometric median is unbounded).

The implementation restricts itself to small dimensions and picks the
safe-area candidate closest to the mean of the received vectors.
"""

from __future__ import annotations

import numpy as np

from repro.agreement.base import AgreementAlgorithm
from repro.linalg.convex import safe_area_vertices
from repro.utils.validation import ensure_matrix


class SafeAreaAgreement(AgreementAlgorithm):
    """Safe-area update rule for low-dimensional inputs.

    Parameters
    ----------
    n, t:
        System size and fault tolerance.  The constructor enforces
        ``t < n / max(3, d_max + 1)`` lazily: the dimension is only known
        at update time, so the check happens per call.
    grid_resolution:
        Optional grid refinement for the candidate search in d <= 3.
    """

    name = "safe-area"
    resilience_divisor = 3  # refined per-call with the actual dimension

    def __init__(self, n: int, t: int, *, grid_resolution: int = 0) -> None:
        super().__init__(n, t)
        if grid_resolution < 0:
            raise ValueError("grid_resolution must be non-negative")
        self.grid_resolution = int(grid_resolution)

    def update(self, received: np.ndarray) -> np.ndarray:
        mat = ensure_matrix(received, name="received")
        m, d = mat.shape
        divisor = max(3, d + 1)
        if self.t > 0 and self.t * divisor >= self.n:
            raise ValueError(
                f"safe-area algorithm requires t < n/max(3, d+1) = {self.n}/{divisor}; "
                f"got t={self.t} with d={d}"
            )
        if m < self.minimum_messages():
            raise ValueError(
                f"received only {m} messages, need at least {self.minimum_messages()}"
            )
        candidates = safe_area_vertices(
            mat, self.t, grid_resolution=self.grid_resolution
        )
        if candidates.shape[0] == 0:
            # The candidate search is heuristic; fall back to the mean of
            # the received vectors, which lies in the convex hull of all
            # of them (a superset of the safe area's hull constraints).
            return mat.mean(axis=0)
        mean = mat.mean(axis=0)
        dists = np.linalg.norm(candidates - mean[None, :], axis=1)
        return candidates[int(np.argmin(dists))].copy()
