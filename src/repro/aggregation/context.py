"""Per-round shared computation cache for aggregation rules.

Krum/Multi-Krum, minimum-diameter averaging and the medoid all reduce to
operations on the pairwise (squared) Euclidean distance matrix of the
received vectors.  When several of these rules — or several internal
steps of one rule, such as the adversarial tie-break of MD-GEOM — look
at the *same* received stack in one round, recomputing that matrix is
the dominant redundant cost.

:class:`AggregationContext` wraps one received ``(m, d)`` matrix and
memoises the distance matrices lazily: the first consumer pays for the
GEMM, every later consumer reuses the exact same array, so results are
bitwise-identical to the uncached code path.  Module-level counters
record cache hits and misses so the benchmark suite can report the hit
rate (see ``benchmarks/bench_sweep_engine.py``).

On top of the distance matrices the context also caches the *subset
artifacts* the subset-quantified rules (BOX-MEAN/BOX-GEOM,
MD-MEAN/MD-GEOM) consume per round: the exhaustive ``(S, s)`` subset
index matrix, the ``(S,)`` subset diameters, the ``(S, d)`` subset
means, and the ``(S, d)`` subset geometric medians.  BOX- and MD-rules
evaluated on the same received stack (e.g. via ``aggregate_all`` or the
agreement sub-rounds) therefore never recompute a subset family or its
aggregates.  Only deterministic, exhaustive families are cached —
sampled families depend on the caller's random generator and bypass the
cache so results stay identical to the uncached path.  Subset-cache
traffic is counted separately (``subset_hits`` / ``subset_misses``).

The subset kernels run through exact row dedup: the context profiles
its matrix once (:attr:`AggregationContext.profile`) and subsets that
gather byte-identical rows are computed once
(:mod:`repro.linalg.sparsity`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_matrix

#: Cumulative cache counters.  "hits"/"misses" track the pairwise
#: distance matrices; "subset_hits"/"subset_misses" track the per-round
#: subset artifacts (index matrices, diameters, means, medians).
_CACHE_STATS: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "subset_hits": 0,
    "subset_misses": 0,
}


def cache_stats() -> Dict[str, int]:
    """Copy of the global cache counters (distance + subset)."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the global cache counters."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def cache_hit_rate() -> float:
    """Fraction of distance-matrix requests served from the cache."""
    total = _CACHE_STATS["hits"] + _CACHE_STATS["misses"]
    return _CACHE_STATS["hits"] / total if total else 0.0


def subset_cache_hit_rate() -> float:
    """Fraction of subset-artifact requests served from the cache."""
    total = _CACHE_STATS["subset_hits"] + _CACHE_STATS["subset_misses"]
    return _CACHE_STATS["subset_hits"] / total if total else 0.0


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

    The subset accessors (:meth:`subset_indices`,
    :meth:`subset_diameters`, :meth:`subset_means`,
    :meth:`subset_geometric_medians`) cache only exhaustive families —
    they are deterministic functions of the wrapped matrix, so reuse is
    result-identical.
    """

    __slots__ = (
        "matrix",
        "_profile",
        "_profile_provider",
        "_sq_distances",
        "_distances",
        "_subset_indices",
        "_subset_diameters",
        "_subset_means",
        "_subset_medians",
    )

    def __init__(self, vectors: np.ndarray) -> None:
        # A matrix gathered by the batch message plane arrives as a
        # TransportMatrix carrying a profile provider; capture it before
        # ensure_matrix validation strips the ndarray subclass.
        provider = getattr(vectors, "_profile_provider", None)
        self.matrix = ensure_matrix(vectors, name="vectors", min_rows=1)
        self._profile = None
        self._profile_provider = provider
        self._sq_distances: Optional[np.ndarray] = None
        self._distances: Optional[np.ndarray] = None
        self._subset_indices: Dict[int, np.ndarray] = {}
        self._subset_diameters: Dict[int, np.ndarray] = {}
        self._subset_means: Dict[int, np.ndarray] = {}
        self._subset_medians: Dict[Tuple[int, float, int], np.ndarray] = {}

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

        Built on first use by a subset kernel.  When the wrapped matrix
        was gathered by the batch message plane, the transported
        batch-level profile is *projected* through the provider it
        carried instead of re-detected from scratch; both give the same
        row groups (see :func:`repro.linalg.sparsity.project_profile`).
        """
        if self._profile is None:
            if self._profile_provider is not None:
                self._profile = self._profile_provider(self.matrix)
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

    # -- per-round subset artifacts ------------------------------------------
    def _check_subset_size(self, subset_size: int) -> int:
        size = int(subset_size)
        if size < 1 or size > self.num_vectors:
            raise ValueError(
                f"subset_size must be in [1, {self.num_vectors}], got {subset_size}"
            )
        return size

    def subset_indices(self, subset_size: int) -> np.ndarray:
        """Exhaustive ``(C(m, s), s)`` subset index matrix (memoised)."""
        size = self._check_subset_size(subset_size)
        cached = self._subset_indices.get(size)
        if cached is None:
            from repro.linalg.subset_kernels import subset_index_matrix

            _CACHE_STATS["subset_misses"] += 1
            cached = subset_index_matrix(self.num_vectors, size)
            self._subset_indices[size] = cached
        else:
            _CACHE_STATS["subset_hits"] += 1
        return cached

    def subset_diameters(self, subset_size: int) -> np.ndarray:
        """Diameters of every exhaustive ``subset_size``-subset (memoised)."""
        size = self._check_subset_size(subset_size)
        cached = self._subset_diameters.get(size)
        if cached is None:
            from repro.linalg.subset_kernels import subset_diameters

            _CACHE_STATS["subset_misses"] += 1
            cached = subset_diameters(
                self.distances, self.subset_indices(size), profile=self.profile
            )
            self._subset_diameters[size] = cached
        else:
            _CACHE_STATS["subset_hits"] += 1
        return cached

    def subset_means(self, subset_size: int) -> np.ndarray:
        """Means of every exhaustive ``subset_size``-subset (memoised)."""
        size = self._check_subset_size(subset_size)
        cached = self._subset_means.get(size)
        if cached is None:
            from repro.linalg.subset_kernels import subset_means

            _CACHE_STATS["subset_misses"] += 1
            cached = subset_means(
                self.matrix, self.subset_indices(size), profile=self.profile
            )
            self._subset_means[size] = cached
        else:
            _CACHE_STATS["subset_hits"] += 1
        return cached

    def subset_geometric_medians(
        self, subset_size: int, *, tol: float = 1e-8, max_iter: int = 200
    ) -> np.ndarray:
        """Geometric medians of every exhaustive subset (memoised).

        Cached per ``(subset_size, tol, max_iter)`` so rules with
        different solver settings never share results.
        """
        size = self._check_subset_size(subset_size)
        key = (size, float(tol), int(max_iter))
        cached = self._subset_medians.get(key)
        if cached is None:
            from repro.linalg.subset_kernels import subset_geometric_medians

            _CACHE_STATS["subset_misses"] += 1
            cached = subset_geometric_medians(
                self.matrix,
                self.subset_indices(size),
                tol=tol,
                max_iter=max_iter,
                dist=self.distances,
                profile=self.profile,
            )
            self._subset_medians[key] = cached
        else:
            _CACHE_STATS["subset_hits"] += 1
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = [
            name
            for name, value in (
                ("sq", self._sq_distances),
                ("dist", self._distances),
            )
            if value is not None
        ]
        cached += [
            f"{name}[{len(table)}]"
            for name, table in (
                ("subsets", self._subset_indices),
                ("diams", self._subset_diameters),
                ("means", self._subset_means),
                ("medians", self._subset_medians),
            )
            if table
        ]
        return (
            f"AggregationContext(m={self.num_vectors}, d={self.dimension}, "
            f"cached={cached})"
        )
