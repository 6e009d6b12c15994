"""One-shot hyperbox aggregation rules (BOX-MEAN and BOX-GEOM).

These are the single-application versions of the hyperbox agreement
algorithms, i.e. what a centralized server computes from the gradients
it received in one round:

1. compute the locally trusted hyperbox ``TH`` by trimming the
   ``m - (n - t)`` extreme values per coordinate (Definition 2.5),
2. compute the aggregate hyperbox — the smallest box containing the
   means (``BOX-MEAN``) or geometric medians (``BOX-GEOM``) of every
   ``(n - t)``-subset (Definition 3.5),
3. output the midpoint of the intersection ``TH ∩ GH`` (Definition 3.6).

Theorem 4.4 shows the intersection is never empty, and that repeating
the procedure across nodes converges; the one-shot output is a
``2·sqrt(d)``-approximation of the true geometric median.

The per-subset aggregates run through the batched kernels of
:mod:`repro.linalg.subset_kernels` on one family from
:func:`repro.linalg.subsets.subset_family`, exhaustive or capped by
``max_subsets``, with the context's duplicate-row profile, so subsets
gathering byte-identical rows are computed once.  Subset means are
bitwise-identical to the per-tuple loop; subset geometric medians match
within the Weiszfeld tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregation.base import AggregationRule, check_context
from repro.aggregation.context import AggregationContext
from repro.linalg.geometric_median import check_solver_settings
from repro.linalg.hyperbox import Hyperbox, bounding_hyperbox, trimmed_hyperbox
from repro.linalg.subset_kernels import subset_geometric_medians, subset_means
from repro.linalg.subsets import subset_family


class _HyperboxRuleBase(AggregationRule):
    """Shared TH/GH/intersection machinery for the BOX rules."""

    def __init__(
        self,
        n: Optional[int] = None,
        t: int = 0,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(n=n, t=t)
        if max_subsets is not None and max_subsets < 1:
            raise ValueError("max_subsets must be positive when given")
        self.max_subsets = max_subsets
        self._rng = rng

    def _subset_aggregates(
        self, context: AggregationContext, indices: np.ndarray
    ) -> np.ndarray:
        """``(S, d)`` aggregates (mean or geometric median) of an index matrix."""
        raise NotImplementedError

    def trusted_hyperbox(self, vectors: np.ndarray) -> Hyperbox:
        """Locally trusted hyperbox of the received vectors."""
        m = vectors.shape[0]
        trim = max(0, m - self.honest_subset_size(m))
        return trimmed_hyperbox(vectors, trim)

    def aggregate_hyperbox(
        self,
        vectors: np.ndarray,
        *,
        context: Optional[AggregationContext] = None,
    ) -> Hyperbox:
        """Smallest box containing the per-subset aggregates (GH / mean-box)."""
        if context is None:
            context = AggregationContext(vectors)
        else:
            check_context(vectors, context)
        indices = subset_family(
            context.matrix,
            self.honest_subset_size(context.num_vectors),
            max_subsets=self.max_subsets,
            rng=self._rng,
        )
        return bounding_hyperbox(self._subset_aggregates(context, indices))

    def decision_hyperbox(
        self,
        vectors: np.ndarray,
        *,
        context: Optional[AggregationContext] = None,
    ) -> Hyperbox:
        """Intersection ``TH ∩ GH`` whose midpoint is the output.

        Falls back to the aggregate hyperbox when numerical noise makes
        the intersection empty in some coordinate (Theorem 4.4 guarantees
        non-emptiness mathematically; with a sampled subset budget the
        guarantee can be violated, so the fallback keeps the rule total).
        """
        th = self.trusted_hyperbox(vectors)
        gh = self.aggregate_hyperbox(vectors, context=context)
        inter = th.intersect(gh)
        if inter.is_empty:
            # Repair coordinate-wise: keep the intersection where it is
            # non-empty and use GH clipped to TH elsewhere.
            lower = np.where(inter.lower <= inter.upper, inter.lower, np.maximum(th.lower, np.minimum(gh.lower, th.upper)))
            upper = np.where(inter.lower <= inter.upper, inter.upper, np.minimum(th.upper, np.maximum(gh.upper, th.lower)))
            lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
            return Hyperbox(lower=lower, upper=upper)
        return inter

    def _aggregate(self, vectors: np.ndarray, context: AggregationContext) -> np.ndarray:
        return self.decision_hyperbox(vectors, context=context).midpoint()


class HyperboxMean(_HyperboxRuleBase):
    """BOX-MEAN: midpoint of (trusted box ∩ box of subset means)."""

    name = "box-mean"

    def _subset_aggregates(
        self, context: AggregationContext, indices: np.ndarray
    ) -> np.ndarray:
        return subset_means(context.matrix, indices, profile=context.profile)


class HyperboxGeometricMedian(_HyperboxRuleBase):
    """BOX-GEOM: midpoint of (trusted box ∩ geometric-median box).

    This is the paper's Algorithm 2 applied for a single sub-round, the
    form used by the centralized learning loop.
    """

    name = "box-geom"

    def __init__(
        self,
        n: Optional[int] = None,
        t: int = 0,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        tol: float = 1e-8,
        max_iter: int = 100,
    ) -> None:
        super().__init__(n=n, t=t, max_subsets=max_subsets, rng=rng)
        check_solver_settings(tol, max_iter)
        self.tol = float(tol)
        self.max_iter = int(max_iter)

    def _subset_aggregates(
        self, context: AggregationContext, indices: np.ndarray
    ) -> np.ndarray:
        return subset_geometric_medians(
            context.matrix,
            indices,
            tol=self.tol,
            max_iter=self.max_iter,
            dist=context.distances,
            profile=context.profile,
        )
