"""Geometric-median aggregation rule (Weiszfeld-based)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.base import AggregationRule
from repro.aggregation.context import AggregationContext
from repro.linalg.geometric_median import check_solver_settings, geometric_median


class GeometricMedian(AggregationRule):
    """Aggregate with the geometric median of all received vectors.

    This is the "simple geometric median" baseline of the paper's
    evaluation: every received vector, Byzantine or not, enters the
    Weiszfeld computation.  The geometric median's 1/2 breakdown point
    gives it substantial robustness even without any filtering.

    Parameters
    ----------
    tol, max_iter:
        Forwarded to :func:`repro.linalg.geometric_median.geometric_median`.
    """

    name = "geomedian"

    def __init__(
        self,
        n: Optional[int] = None,
        t: int = 0,
        *,
        tol: float = 1e-8,
        max_iter: int = 200,
    ) -> None:
        super().__init__(n=n, t=t)
        check_solver_settings(tol, max_iter)
        self.tol = float(tol)
        self.max_iter = int(max_iter)

    def _aggregate(self, vectors: np.ndarray, context: AggregationContext) -> np.ndarray:
        return geometric_median(vectors, tol=self.tol, max_iter=self.max_iter)
