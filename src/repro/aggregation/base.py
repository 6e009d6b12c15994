"""Base class for one-shot aggregation rules."""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Mapping, Optional, Union

import numpy as np

from repro.aggregation.context import AggregationContext


def check_context(vectors: np.ndarray, context: AggregationContext) -> None:
    """Raise ``ValueError`` unless ``context`` wraps a stack shaped like ``vectors``."""
    shape = np.shape(vectors)  # no copy for array inputs
    if len(shape) == 1:
        shape = (1, shape[0])
    if shape != context.matrix.shape:
        raise ValueError(
            f"context wraps a {context.matrix.shape} stack but "
            f"vectors have shape {shape}"
        )


class AggregationRule(abc.ABC):
    """Maps a stack of received vectors to a single aggregate vector.

    Sub-classes implement :meth:`_aggregate` on a validated ``(m, d)``
    matrix plus its :class:`AggregationContext`; the public
    :meth:`aggregate` handles validation, empty-input errors and the
    trivial single-vector case uniformly.

    Parameters
    ----------
    n:
        Total number of nodes in the system (``None`` means "infer from
        the number of received vectors", which is adequate for rules that
        do not depend on the resilience parameters).
    t:
        Maximum number of Byzantine nodes tolerated.  Rules that trim or
        search over ``(n - t)``-subsets require both ``n`` and ``t``.
    """

    #: Human-readable name used by the registry, plots and reports.
    name: str = "aggregation"

    def __init__(self, n: Optional[int] = None, t: int = 0) -> None:
        if n is not None and n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if n is not None and t >= n:
            raise ValueError(f"t must be smaller than n, got n={n}, t={t}")
        self.n = n
        self.t = int(t)

    # -- public API ---------------------------------------------------------
    def aggregate(
        self,
        vectors: Optional[np.ndarray] = None,
        *,
        context: Optional[AggregationContext] = None,
    ) -> np.ndarray:
        """Aggregate an ``(m, d)`` stack of vectors into a ``(d,)`` vector.

        Either ``vectors`` or a pre-built ``context`` must be given.  A
        shared context lets several rules (or several passes of one
        rule) reuse one pairwise-distance matrix per round; results are
        bitwise-identical to the context-free path.  When both are
        given, ``context`` must wrap the same stack.
        """
        if context is None:
            if vectors is None:
                raise ValueError("aggregate() needs vectors or a context")
            context = AggregationContext(vectors)
        elif vectors is not None:
            check_context(vectors, context)
        mat = context.matrix
        if mat.shape[0] == 1:
            return mat[0].copy()
        return np.asarray(self._aggregate(mat, context), dtype=np.float64).reshape(-1)

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        return self.aggregate(vectors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, t={self.t})"

    # -- helpers for resilience-aware rules ----------------------------------
    def effective_n(self, received: int) -> int:
        """System size used for subset computations.

        Rules configured without an explicit ``n`` treat the number of
        received vectors as the system size.
        """
        return int(self.n) if self.n is not None else int(received)

    def honest_subset_size(self, received: int) -> int:
        """``n - t`` clipped to the number of received vectors."""
        size = self.effective_n(received) - self.t
        if size < 1:
            raise ValueError(
                f"n - t must be positive (n={self.effective_n(received)}, t={self.t})"
            )
        return min(size, received)

    # -- to be provided by sub-classes ---------------------------------------
    @abc.abstractmethod
    def _aggregate(
        self, vectors: np.ndarray, context: AggregationContext
    ) -> np.ndarray:
        """Aggregate a validated ``(m >= 2, d)`` matrix.

        ``context`` wraps the same matrix; distance-based rules should
        read :attr:`AggregationContext.sq_distances` /
        :attr:`AggregationContext.distances` instead of recomputing.
        """
        raise NotImplementedError


def aggregate_all(
    rules: Union[Mapping[str, AggregationRule], Iterable[AggregationRule]],
    vectors: np.ndarray,
    *,
    context: Optional[AggregationContext] = None,
) -> Dict[str, np.ndarray]:
    """Aggregate one received stack with several rules, sharing one context.

    This is the batched per-round evaluation path: Krum/Multi-Krum, the
    minimum-diameter rules and the medoid all reduce to operations on
    the same pairwise-distance matrix, so evaluating them against a
    shared :class:`AggregationContext` computes that matrix once instead
    of once per rule.  Results are bitwise-identical to calling each
    rule's :meth:`~AggregationRule.aggregate` on its own.

    ``rules`` is either a ``{label: rule}`` mapping or an iterable of
    rules (labelled by their ``name`` attribute, which must then be
    unique).  Returns ``{label: aggregate_vector}``.
    """
    if isinstance(rules, Mapping):
        labelled = dict(rules)
    else:
        labelled = {}
        for rule in rules:
            label = getattr(rule, "name", type(rule).__name__)
            if label in labelled:
                raise ValueError(
                    f"duplicate rule label {label!r}; pass a mapping to disambiguate"
                )
            labelled[label] = rule
    if context is None:
        context = AggregationContext(vectors)
    return {
        label: rule.aggregate(context=context) for label, rule in labelled.items()
    }
