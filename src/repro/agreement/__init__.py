"""Multi-round approximate-agreement algorithms (the paper's core).

An *agreement algorithm* is the rule every honest node applies to the
vectors it received in a sub-round to obtain its vector for the next
sub-round.  Running that rule for several synchronous sub-rounds over
the reliable-broadcast network yields ε-approximate agreement — or fails
to, which is exactly what the paper analyses.

Every such rule is a one-shot aggregation rule from
:mod:`repro.aggregation`, so :func:`make_algorithm` takes the same names
and keyword arguments as :func:`repro.aggregation.make_rule`:

- ``"box-geom"`` — Algorithm 2, ``BOX-GEOM``: converges and is a
  ``2·sqrt(d)``-approximation of the true geometric median
  (Theorem 4.4).
- ``"box-mean"`` — ``BOX-MEAN`` (Cambus–Melnyk).
- ``"md-geom"`` — Algorithm 1, ``MD-GEOM``: a 2-approximation per round
  but *not* convergent in the worst case (Lemma 4.2;
  ``tie_break="adversarial"`` exhibits it).
- ``"md-mean"`` — ``MD-MEAN`` (El-Mhamdi et al.).
- ``"safe-area"`` — the classical safe-area algorithm, restricted to
  ``t < n / max(3, d+1)``; unbounded approximation ratio for the
  geometric median (Theorem 4.1).
- ``"trimmed-mean"`` — coordinate-wise trimmed mean, the other optimal
  averaging-agreement algorithm from El-Mhamdi et al.
- every other registered rule (``"mean"``, ``"geomedian"``, ``"krum"``,
  ...) as a baseline.

:class:`AgreementAlgorithm` wraps an already-built rule;
:class:`AgreementProtocol` executes an algorithm against a configurable
adversary; :mod:`repro.agreement.metrics` measures convergence and the
approximation ratio of Definition 3.3.
"""

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

__all__ = [
    "AgreementAlgorithm",
    "AgreementProtocol",
    "AgreementResult",
    "approximation_ratio",
    "covering_ball_of_sgeo",
    "geometric_median_candidates",
    "make_algorithm",
    "true_geometric_median",
]
