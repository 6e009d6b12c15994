"""Concrete agreement algorithms built from one-shot aggregation rules.

Each class fixes the aggregation rule a node applies per sub-round:

========================  =============================================
Class                      Paper name / reference
========================  =============================================
HyperboxGeometricMedian-   Algorithm 2, ``BOX-GEOM`` (this paper):
Agreement                  midpoint of (trusted box ∩ geo-median box)
HyperboxMeanAgreement      ``BOX-MEAN`` (Cambus & Melnyk 2023)
MinimumDiameterGeometric-  Algorithm 1, ``MD-GEOM``: geometric median of
MedianAgreement            a minimum-diameter ``(n-t)``-subset
MinimumDiameterMean-       ``MD-MEAN`` (El-Mhamdi et al. 2021, MDA)
Agreement
TrimmedMeanAgreement       coordinate-wise trimmed mean (El-Mhamdi
                           et al.'s second optimal averaging algorithm)
========================  =============================================

The subset-quantified algorithms (BOX-*, MD-*) accept a ``chunk_size``
knob forwarded to the batched subset kernels
(:mod:`repro.linalg.subset_kernels`): it bounds how many subsets one
kernel invocation materialises at a time, trading peak memory for a few
extra kernel launches at large ``C(m, n - t)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agreement.base import AggregationAgreement
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian, HyperboxMean
from repro.aggregation.mda import MinimumDiameterGeometricMedian, MinimumDiameterMean
from repro.aggregation.mean import Mean, TrimmedMean


class HyperboxGeometricMedianAgreement(AggregationAgreement):
    """Algorithm 2 of the paper: synchronous approximate agreement with
    hyperbox validity for the geometric median (``BOX-GEOM``).

    Per sub-round every node (i) computes its locally trusted hyperbox by
    trimming ``m - (n - t)`` values per coordinate side, (ii) computes the
    smallest box containing the geometric medians of all ``(n - t)``-
    subsets of its received vectors, and (iii) moves to the midpoint of
    the intersection.  Theorem 4.4: converges with approximation ratio at
    most ``2·sqrt(d)``.
    """

    name = "box-geom"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        weiszfeld_tol: float = 1e-8,
        weiszfeld_max_iter: int = 100,
        chunk_size: Optional[int] = None,
    ) -> None:
        rule = HyperboxGeometricMedian(
            n=n,
            t=t,
            max_subsets=max_subsets,
            rng=rng,
            tol=weiszfeld_tol,
            max_iter=weiszfeld_max_iter,
            chunk_size=chunk_size,
        )
        super().__init__(n, t, rule)
        self.name = "box-geom"


class HyperboxMeanAgreement(AggregationAgreement):
    """``BOX-MEAN``: the hyperbox algorithm with subset means as candidates."""

    name = "box-mean"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        rule = HyperboxMean(
            n=n, t=t, max_subsets=max_subsets, rng=rng, chunk_size=chunk_size
        )
        super().__init__(n, t, rule)
        self.name = "box-mean"


class MinimumDiameterGeometricMedianAgreement(AggregationAgreement):
    """Algorithm 1 of the paper: ``MD-GEOM``.

    Per sub-round every node picks a minimum-diameter ``(n - t)``-subset
    of its received vectors and moves to its geometric median.  Lemma 4.2
    shows this does *not* converge in the worst case; any single round is
    still a 2-approximation of the true geometric median.
    """

    name = "md-geom"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        tie_break: str = "first",
        weiszfeld_tol: float = 1e-8,
        weiszfeld_max_iter: int = 200,
        chunk_size: Optional[int] = None,
    ) -> None:
        rule = MinimumDiameterGeometricMedian(
            n=n,
            t=t,
            max_subsets=max_subsets,
            rng=rng,
            tie_break=tie_break,
            tol=weiszfeld_tol,
            max_iter=weiszfeld_max_iter,
            chunk_size=chunk_size,
        )
        super().__init__(n, t, rule)
        self.name = "md-geom"


class MinimumDiameterMeanAgreement(AggregationAgreement):
    """``MD-MEAN`` — El-Mhamdi et al.'s Minimum Diameter Averaging."""

    name = "md-mean"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        max_subsets: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        tie_break: str = "first",
        chunk_size: Optional[int] = None,
    ) -> None:
        rule = MinimumDiameterMean(
            n=n,
            t=t,
            max_subsets=max_subsets,
            rng=rng,
            tie_break=tie_break,
            chunk_size=chunk_size,
        )
        super().__init__(n, t, rule)
        self.name = "md-mean"


class TrimmedMeanAgreement(AggregationAgreement):
    """Coordinate-wise trimmed-mean agreement.

    The second optimal averaging-agreement algorithm of El-Mhamdi et al.;
    included as a baseline and for the ablation benchmarks.
    """

    name = "trimmed-mean"

    def __init__(self, n: int, t: int) -> None:
        rule = TrimmedMean(n=n, t=t)
        super().__init__(n, t, rule)
        self.name = "trimmed-mean"


class SimpleMeanAgreement(AggregationAgreement):
    """Plain-mean "agreement": every node averages everything it received.

    Not Byzantine-robust; included because the paper's decentralized
    comparison (contribution 4) also evaluates the simple mean rule.
    """

    name = "mean"

    def __init__(self, n: int, t: int) -> None:
        super().__init__(n, t, Mean(n=n, t=t))
        self.name = "mean"


class SimpleGeometricMedianAgreement(AggregationAgreement):
    """Plain geometric-median "agreement" over all received vectors.

    The simple geometric median baseline of the paper's decentralized
    comparison: robust through the median's 1/2 breakdown point but with
    no trimming or subset search.
    """

    name = "geomedian"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        tol: float = 1e-8,
        max_iter: int = 200,
    ) -> None:
        super().__init__(n, t, GeometricMedian(n=n, t=t, tol=tol, max_iter=max_iter))
        self.name = "geomedian"
