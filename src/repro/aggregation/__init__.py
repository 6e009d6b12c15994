"""One-shot robust aggregation rules.

An aggregation rule maps the stack of gradient vectors a server (or a
client in the decentralized setting) received in one round to a single
aggregate vector.  This package implements every rule that appears in
the paper's evaluation:

- plain :class:`Mean` and :class:`GeometricMedian`,
- coordinate-wise :class:`Median` and :class:`TrimmedMean`,
- :class:`Medoid`,
- :class:`Krum` and :class:`MultiKrum` (Blanchard et al.),
- :class:`MinimumDiameterMean` (``MD-MEAN``, El-Mhamdi et al.) and
  :class:`MinimumDiameterGeometricMedian` (``MD-GEOM``, Algorithm 1
  applied once, i.e. the centralized variant), and
- :class:`HyperboxMean` / :class:`HyperboxGeometricMedian` — the one-shot
  (single sub-round) applications of the BOX algorithms, used by the
  centralized learning loop, and
- :class:`SafeArea` — the classical safe-area rule, restricted to
  ``t < n / max(3, d+1)`` (Theorem 4.1's comparison point).

:mod:`repro.agreement` runs any of these once per sub-round as a
multi-round agreement algorithm, by the same registry names.
"""

from repro.aggregation.base import AggregationRule, aggregate_all
from repro.aggregation.context import (
    AggregationContext,
    cache_hit_rate,
    cache_stats,
    reset_cache_stats,
)
from repro.aggregation.mean import CoordinatewiseMedian, Mean, TrimmedMean
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.medoid import Medoid
from repro.aggregation.krum import Krum, MultiKrum
from repro.aggregation.mda import (
    MinimumDiameterGeometricMedian,
    MinimumDiameterMean,
)
from repro.aggregation.hyperbox_rules import (
    HyperboxGeometricMedian,
    HyperboxMean,
)
from repro.aggregation.safe_area import SafeArea
from repro.aggregation.registry import available_rules, make_rule

__all__ = [
    "AggregationContext",
    "AggregationRule",
    "CoordinatewiseMedian",
    "GeometricMedian",
    "HyperboxGeometricMedian",
    "HyperboxMean",
    "Krum",
    "Mean",
    "Medoid",
    "MinimumDiameterGeometricMedian",
    "MinimumDiameterMean",
    "MultiKrum",
    "SafeArea",
    "TrimmedMean",
    "aggregate_all",
    "available_rules",
    "cache_hit_rate",
    "cache_stats",
    "make_rule",
    "reset_cache_stats",
]
