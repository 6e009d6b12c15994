"""Per-round shared computation cache for aggregation rules.

Krum/Multi-Krum, minimum-diameter averaging and the medoid all reduce to
operations on the pairwise (squared) Euclidean distance matrix of the
received vectors.  When several of these rules — or several internal
steps of one rule, such as BOX-GEOM's vertex snap or the MD rules'
subset search — look at the *same* received stack in one round,
recomputing that matrix is the dominant redundant cost.

:class:`AggregationContext` wraps one received ``(m, d)`` matrix and
memoises the distance matrices lazily: the first consumer pays for the
GEMM, every later consumer reuses the exact same array, so results are
bitwise-identical to the uncached code path.  Module-level counters
record cache hits and misses so the benchmark suite can report the hit
rate (see ``benchmarks/bench_sweep_engine.py``).

The context also holds the stack's duplicate-row profile
(:attr:`AggregationContext.profile`), detected on first use, which the
subset kernels read to compute byte-identical subsets once
(:mod:`repro.linalg.sparsity`).  Per-subset results are not memoised:
every server round and agreement update builds a fresh context for one
rule, so such a memo was never hit.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.utils.validation import ensure_matrix

#: Cumulative pairwise-distance cache counters.
_CACHE_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def cache_stats() -> Dict[str, int]:
    """Copy of the global distance-cache counters."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the global cache counters."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def cache_hit_rate() -> float:
    """Fraction of distance-matrix requests served from the cache."""
    total = _CACHE_STATS["hits"] + _CACHE_STATS["misses"]
    return _CACHE_STATS["hits"] / total if total else 0.0


class AggregationContext:
    """Shared per-round state for aggregation rules.

    Parameters
    ----------
    vectors:
        The ``(m, d)`` stack of received vectors the round operates on.
        Validated once here, so rules consuming the context can skip
        their own :func:`~repro.utils.validation.ensure_matrix` pass.

    Notes
    -----
    The context assumes the wrapped matrix is not mutated after
    construction — the learning loops build a fresh context per round.
    Passing the same context to several rules shares the distance work
    between them; every rule also works without a context, in which case
    it builds a private one (see :meth:`AggregationRule.aggregate`).
    """

    __slots__ = ("matrix", "_profile", "_sq_distances", "_distances")

    def __init__(self, vectors: np.ndarray) -> None:
        self.matrix = ensure_matrix(vectors, name="vectors", min_rows=1)
        self._profile = None
        self._sq_distances: Optional[np.ndarray] = None
        self._distances: Optional[np.ndarray] = None

    @property
    def num_vectors(self) -> int:
        """Number of received vectors ``m``."""
        return int(self.matrix.shape[0])

    @property
    def dimension(self) -> int:
        """Vector dimension ``d``."""
        return int(self.matrix.shape[1])

    @property
    def profile(self):
        """Duplicate-row structure of the wrapped matrix (memoised).

        Detected on first use by a subset kernel, so rounds of rules
        that read no subset kernel (Krum, Multi-Krum) build none.
        """
        if self._profile is None:
            from repro.linalg.sparsity import detect_structure

            self._profile = detect_structure(self.matrix)
        return self._profile

    @property
    def sq_distances(self) -> np.ndarray:
        """Lazily computed ``(m, m)`` squared-distance matrix (memoised)."""
        if self._sq_distances is None:
            from repro.linalg.distances import pairwise_sq_distances

            _CACHE_STATS["misses"] += 1
            self._sq_distances = pairwise_sq_distances(self.matrix)
        else:
            _CACHE_STATS["hits"] += 1
        return self._sq_distances

    @property
    def distances(self) -> np.ndarray:
        """Lazily computed ``(m, m)`` distance matrix (memoised).

        Derived as ``sqrt`` of :attr:`sq_distances`, so requesting both
        matrices still performs the underlying GEMM only once and the
        values match :func:`repro.linalg.distances.pairwise_distances`
        bitwise.
        """
        if self._distances is None:
            self._distances = np.sqrt(self.sq_distances)
        else:
            _CACHE_STATS["hits"] += 1
        return self._distances

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = [
            name
            for name, value in (
                ("sq", self._sq_distances),
                ("dist", self._distances),
            )
            if value is not None
        ]
        return (
            f"AggregationContext(m={self.num_vectors}, d={self.dimension}, "
            f"cached={cached})"
        )
