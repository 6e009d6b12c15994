"""The paper's primary contribution, re-exported for convenient access.

``repro.core`` groups the pieces that constitute the SPAA 2025 paper's
contribution proper:

- the hyperbox rule for the geometric median in its one-shot form
  (:class:`HyperboxGeometricMedian`) and as the multi-round agreement
  algorithm of Algorithm 2 (``make_algorithm("box-geom", n, t)``),
- the geometric-median approximation framework of Section 3
  (``S_geo``, the covering ball, :func:`approximation_ratio`), and
- the protocol runner that executes agreement algorithms against a
  Byzantine adversary.

Agreement algorithms are named like aggregation rules: ``"box-geom"``,
``"md-geom"``, ``"box-mean"``, ``"md-mean"`` and every other name in
:func:`repro.aggregation.available_rules`.

Everything here is also importable from its home subpackage; the alias
exists so downstream users can start from a single import.
"""

from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian, HyperboxMean
from repro.agreement.base import (
    AgreementAlgorithm,
    AgreementProtocol,
    AgreementResult,
    make_algorithm,
)
from repro.agreement.metrics import (
    approximation_ratio,
    covering_ball_of_sgeo,
    geometric_median_candidates,
    true_geometric_median,
)
from repro.linalg.geometric_median import geometric_median
from repro.linalg.hyperbox import Hyperbox, bounding_hyperbox, trimmed_hyperbox

__all__ = [
    "AgreementAlgorithm",
    "AgreementProtocol",
    "AgreementResult",
    "Hyperbox",
    "HyperboxGeometricMedian",
    "HyperboxMean",
    "approximation_ratio",
    "bounding_hyperbox",
    "covering_ball_of_sgeo",
    "geometric_median",
    "geometric_median_candidates",
    "make_algorithm",
    "trimmed_hyperbox",
    "true_geometric_median",
]
