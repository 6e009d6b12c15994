"""Minimum-diameter aggregation rules (MD-MEAN and MD-GEOM, one-shot).

Both rules first search for a subset of ``n - t`` received vectors with
minimum diameter (Definition 3.4) and then aggregate that subset:

- ``MD-MEAN`` averages the subset (El-Mhamdi et al.'s Minimum Diameter
  Averaging).
- ``MD-GEOM`` takes the subset's geometric median — one round of the
  paper's Algorithm 1, which is exactly what the centralized server
  applies each learning round, and which the paper proves to be a
  2-approximation of the true geometric median.

The subset search is exponential in general (``C(m, n - t)`` subsets);
``max_subsets`` switches to the sampled/greedy search from
:func:`repro.linalg.subsets.minimum_diameter_subset` for larger systems.

All candidate diameters are computed by the batched gather kernel
(:func:`repro.linalg.subset_kernels.subset_diameters`) over the
context's distance matrix, one path for exhaustive and capped families.
The selected subset is aggregated once, and the adversarial tie-break
aggregates its whole tied family in one batched call; MD-GEOM's medians
run through :func:`repro.linalg.subset_kernels.subset_geometric_medians`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.aggregation.base import AggregationRule, check_context
from repro.aggregation.context import AggregationContext
from repro.linalg.geometric_median import check_solver_settings
from repro.linalg.subset_kernels import subset_geometric_medians, subsets_as_matrix
from repro.linalg.subsets import minimum_diameter_subset, minimum_diameter_subsets

#: Valid tie-breaking strategies among equal-diameter subsets.
TIE_BREAKS = ("first", "adversarial")


class _MinimumDiameterBase(AggregationRule):
    """Shared subset-selection logic for the MD rules.

    ``tie_break`` controls which minimum-diameter subset is used when
    several subsets share the minimum diameter (the common case in the
    adversarial constructions of the paper):

    - ``"first"`` (default): the lexicographically smallest index tuple —
      a deterministic, benign scheduler.
    - ``"adversarial"``: among all tied subsets, pick the one whose
      aggregate lies farthest from the mean of the received vectors —
      a worst-case scheduler, used to exhibit Lemma 4.2's
      non-convergence executions.
    """

    def __init__(
        self,
        n: Optional[int] = None,
        t: int = 0,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        tie_break: str = "first",
    ) -> None:
        super().__init__(n=n, t=t)
        if max_subsets is not None and max_subsets < 1:
            raise ValueError("max_subsets must be positive when given")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
        self.max_subsets = max_subsets
        self.tie_break = tie_break
        self._rng = rng

    def _subset_aggregates(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``(S, d)`` aggregates of the subsets in an ``(S, s)`` index matrix."""
        raise NotImplementedError

    def minimum_diameter_set(
        self,
        vectors: np.ndarray,
        *,
        context: Optional[AggregationContext] = None,
    ) -> Tuple[Tuple[int, ...], float]:
        """Indices of the selected minimum-diameter subset and its diameter.

        A given ``context`` must wrap the same stack as ``vectors``.
        """
        idx, diam, _ = self._select(vectors, context)
        return idx, diam

    def _select(
        self, vectors: np.ndarray, context: Optional[AggregationContext]
    ) -> Tuple[Tuple[int, ...], float, Optional[np.ndarray]]:
        """The selected subset, its diameter and, when the adversarial
        tie-break already computed it, its aggregate (else ``None``)."""
        if context is None:
            context = AggregationContext(vectors)
        else:
            check_context(vectors, context)
        vectors = context.matrix
        size = self.honest_subset_size(context.num_vectors)
        if self.tie_break == "first":
            idx, diam = minimum_diameter_subset(
                vectors,
                size,
                max_subsets=self.max_subsets,
                rng=self._rng,
                dist=context.distances,
            )
            return idx, diam, None
        tied, diam = minimum_diameter_subsets(
            vectors,
            size,
            max_subsets=self.max_subsets,
            rng=self._rng,
            dist=context.distances,
        )
        aggregates = self._subset_aggregates(vectors, subsets_as_matrix(tied))
        reference = vectors.mean(axis=0)
        best = 0
        best_dist = -1.0
        for row, aggregate in enumerate(aggregates):
            dist = float(np.linalg.norm(aggregate - reference))
            if dist > best_dist + 1e-15:
                best_dist = dist
                best = row
        return tied[best], diam, aggregates[best]

    def _aggregate(self, vectors: np.ndarray, context: AggregationContext) -> np.ndarray:
        idx, _, aggregate = self._select(vectors, context)
        if aggregate is None:
            aggregate = self._subset_aggregates(vectors, np.array([idx]))[0]
        return aggregate


class MinimumDiameterMean(_MinimumDiameterBase):
    """MD-MEAN: mean of a minimum-diameter ``(n - t)``-subset."""

    name = "md-mean"

    def _subset_aggregates(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return vectors[indices].mean(axis=1)


class MinimumDiameterGeometricMedian(_MinimumDiameterBase):
    """MD-GEOM: geometric median of a minimum-diameter ``(n - t)``-subset."""

    name = "md-geom"

    def __init__(
        self,
        n: Optional[int] = None,
        t: int = 0,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        tie_break: str = "first",
        tol: float = 1e-8,
        max_iter: int = 200,
    ) -> None:
        super().__init__(
            n=n, t=t, max_subsets=max_subsets, rng=rng, tie_break=tie_break
        )
        check_solver_settings(tol, max_iter)
        self.tol = float(tol)
        self.max_iter = int(max_iter)

    def _subset_aggregates(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        # No context distances: the snap centres each block on the final
        # iterate, which stays accurate on near-identical rows.
        return subset_geometric_medians(
            vectors, indices, tol=self.tol, max_iter=self.max_iter
        )
