"""Name-based registry of aggregation rules.

Benchmarks, examples and experiment configs refer to aggregation rules
by string name (``"box-geom"``, ``"md-mean"`` ...); the registry maps
those names to constructors so configurations stay serialisable.  Both
settings read it: a centralized server applies the rule once per round,
and :func:`repro.agreement.make_algorithm` wraps it into the per-sub-round
update of a decentralized agreement algorithm.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.aggregation.base import AggregationRule
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian, HyperboxMean
from repro.aggregation.krum import Krum, MultiKrum
from repro.aggregation.mda import MinimumDiameterGeometricMedian, MinimumDiameterMean
from repro.aggregation.mean import CoordinatewiseMedian, Mean, TrimmedMean
from repro.aggregation.medoid import Medoid
from repro.aggregation.safe_area import SafeArea

_REGISTRY: Dict[str, Type[AggregationRule]] = {
    "mean": Mean,
    "cw-median": CoordinatewiseMedian,
    "trimmed-mean": TrimmedMean,
    "geomedian": GeometricMedian,
    "medoid": Medoid,
    "krum": Krum,
    "multi-krum": MultiKrum,
    "md-mean": MinimumDiameterMean,
    "md-geom": MinimumDiameterGeometricMedian,
    "box-mean": HyperboxMean,
    "box-geom": HyperboxGeometricMedian,
    "safe-area": SafeArea,
}


def available_rules() -> list[str]:
    """Sorted list of registered rule names."""
    return sorted(_REGISTRY)


def make_rule(name: str, n: int | None = None, t: int = 0, **kwargs) -> AggregationRule:
    """Instantiate the rule registered under ``name``.

    Extra keyword arguments are forwarded to the rule constructor
    (e.g. ``q=3`` for Multi-Krum or ``max_subsets`` for the subset-search
    rules).
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown aggregation rule {name!r}; available: {available_rules()}"
        )
    return _REGISTRY[key](n=n, t=t, **kwargs)
