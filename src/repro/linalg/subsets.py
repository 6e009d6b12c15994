"""Enumeration and sampling of ``(n - t)``-subsets.

Several constructions in the paper quantify over every subset of size
``n - t`` of the received vectors:

- ``S_geo`` (Definition 3.1): geometric medians of all such subsets,
- the candidate means ``A_1 ... A_C(m, n-t)`` in the hyperbox algorithm,
- the minimum-diameter subset ``MD`` (Definition 3.4).

For the paper's scale (n = 10, t <= 3) exhaustive enumeration is cheap;
for larger systems the number of subsets explodes, so every consumer can
switch to uniform random subset sampling with a caller-provided budget.

Subset families are materialised as ``(S, s)`` int64 index matrices
(:func:`subset_family`) and the heavy per-subset work — diameters,
means, geometric medians — runs through the batched kernels in
:mod:`repro.linalg.subset_kernels` instead of per-tuple Python loops.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.linalg.subset_kernels import (
    subset_diameters,
    subset_index_matrix,
    subsets_as_matrix,
)
from repro.utils.rng import as_generator
from repro.utils.validation import ensure_matrix

#: Absolute slack under which two subset diameters count as tied in the
#: sequential minimum scan (kept from the original per-tuple search).
_DIAMETER_TIE_TOL = 1e-15


def subset_count(m: int, k: int) -> int:
    """Number of k-subsets of an m-element set (0 when k > m or k < 0)."""
    if k < 0 or k > m:
        return 0
    return comb(m, k)


def enumerate_subsets(m: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield every k-subset of ``range(m)`` as a sorted tuple of indices."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > m:
        return iter(())
    return combinations(range(m), k)


def sample_subsets(
    m: int,
    k: int,
    count: int,
    *,
    rng: Optional[np.random.Generator] = None,
    max_attempts: Optional[int] = None,
) -> list[Tuple[int, ...]]:
    """Draw ``count`` distinct k-subsets of ``range(m)`` uniformly at random.

    When the requested count reaches the total number of subsets, falls
    back to exhaustive enumeration.

    The rejection loop runs for at most ``max_attempts`` draws (default
    ``max(64, 16 * count)``).  If it exhausts the budget — which happens
    with non-negligible probability when ``count`` is close to the total
    number of subsets — the remainder is topped up *deterministically*
    from the lexicographic enumeration, so the function always returns
    exactly ``count`` subsets whenever ``count <= C(m, k)``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    total = subset_count(m, k)
    if total == 0:
        return []
    generator = as_generator(rng)
    if count >= total:
        return list(enumerate_subsets(m, k))
    picks: list[Tuple[int, ...]] = []
    seen: set[Tuple[int, ...]] = set()
    attempts = 0
    limit = max(64, 16 * count) if max_attempts is None else int(max_attempts)
    while len(picks) < count and attempts < limit:
        attempts += 1
        idx = tuple(sorted(generator.choice(m, size=k, replace=False).tolist()))
        if idx in seen:
            continue
        seen.add(idx)
        picks.append(idx)
    if len(picks) < count:
        # Deterministic top-up: the rejection loop ran out of attempts
        # (high count/total ratio).  Fill from the lexicographic
        # enumeration so the contract "exactly count subsets when
        # possible" holds regardless of sampler luck.
        for idx in enumerate_subsets(m, k):
            if len(picks) >= count:
                break
            if idx in seen:
                continue
            seen.add(idx)
            picks.append(idx)
    return picks


def subset_family(
    vectors: np.ndarray,
    subset_size: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """The ``(S, subset_size)`` index matrix of a subset family.

    Exhaustive (lexicographic) when ``max_subsets`` is ``None`` or at
    least ``C(m, subset_size)``; otherwise ``max_subsets`` uniformly
    sampled subsets anchored by the two norm-ordered prefix/suffix
    subsets: ``max_subsets`` rows plus up to two anchors, appended only
    when not already sampled.

    This is the canonical representation consumed by the batched kernels
    in :mod:`repro.linalg.subset_kernels`.
    """
    mat = ensure_matrix(vectors, name="vectors")
    m = mat.shape[0]
    if subset_size < 1:
        raise ValueError("subset_size must be at least 1")
    if subset_size > m:
        raise ValueError(
            f"subset_size {subset_size} exceeds the number of vectors {m}"
        )
    total = subset_count(m, subset_size)
    use_sampling = max_subsets is not None and max_subsets < total
    if not use_sampling:
        return subset_index_matrix(m, subset_size)
    subsets = sample_subsets(m, subset_size, int(max_subsets), rng=rng)
    # The proof of Theorem 4.4 relies on the medians of the
    # `subset_size` smallest and largest vectors (per coordinate order);
    # including the norm-ordered prefix/suffix keeps the sampled
    # aggregate cloud anchored.
    order = np.argsort(np.linalg.norm(mat, axis=1))
    prefix = tuple(sorted(order[:subset_size].tolist()))
    suffix = tuple(sorted(order[-subset_size:].tolist()))
    extra = [s for s in (prefix, suffix) if s not in set(subsets)]
    return subsets_as_matrix(subsets + extra, subset_size)


def _candidate_indices(
    dist: np.ndarray,
    m: int,
    subset_size: int,
    max_subsets: Optional[int],
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Candidate index matrix for the minimum-diameter search."""
    total = subset_count(m, subset_size)
    if max_subsets is not None and max_subsets < total:
        candidates = sample_subsets(m, subset_size, int(max_subsets), rng=rng)
        # Greedy candidates anchored at each point: take its subset_size-1
        # nearest neighbours.  These are usually close to optimal.
        for anchor in range(m):
            neighbours = np.argsort(dist[anchor])[:subset_size]
            candidates.append(tuple(sorted(neighbours.tolist())))
        return subsets_as_matrix(candidates, subset_size)
    return subset_index_matrix(m, subset_size)


def _resolve_distances(
    mat: np.ndarray, dist: Optional[np.ndarray]
) -> np.ndarray:
    """Validate a caller-supplied distance matrix or compute one."""
    from repro.linalg.distances import resolve_pairwise_matrix

    return resolve_pairwise_matrix(mat, dist)


def select_minimum_diameter(
    indices: np.ndarray, diameters: np.ndarray
) -> Tuple[Tuple[int, ...], float]:
    """Sequential minimum scan over precomputed subset diameters.

    Replicates the original per-tuple search exactly: a candidate
    replaces the running best when it is more than ``1e-15`` smaller, or
    when it ties within ``1e-15`` and its index tuple is
    lexicographically smaller.  The scan itself is O(S) cheap Python
    over a float list — the expensive part (the diameters) is batched.
    """
    if indices.shape[0] == 0:
        raise ValueError("candidate family must be non-empty")
    diams: List[float] = np.asarray(diameters, dtype=np.float64).tolist()
    best_row = 0
    best_diam = diams[0]
    for row in range(1, len(diams)):
        diam = diams[row]
        if diam < best_diam - _DIAMETER_TIE_TOL:
            best_diam = diam
            best_row = row
        elif abs(diam - best_diam) <= _DIAMETER_TIE_TOL and tuple(
            indices[row].tolist()
        ) < tuple(indices[best_row].tolist()):
            best_diam = diam
            best_row = row
    return tuple(int(i) for i in indices[best_row]), float(best_diam)


def select_minimum_diameter_ties(
    indices: np.ndarray,
    diameters: np.ndarray,
    *,
    tolerance: float = 1e-12,
) -> Tuple[list[Tuple[int, ...]], float]:
    """All subsets whose diameter ties the minimum within ``tolerance``."""
    if indices.shape[0] == 0:
        raise ValueError("candidate family must be non-empty")
    diams = np.asarray(diameters, dtype=np.float64)
    best = float(diams.min())
    slack = tolerance * max(1.0, best)
    rows = np.flatnonzero(diams <= best + slack)
    tied = sorted({tuple(int(i) for i in indices[r]) for r in rows})
    return tied, best


def minimum_diameter_subset(
    vectors: np.ndarray,
    subset_size: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    dist: Optional[np.ndarray] = None,
) -> Tuple[Tuple[int, ...], float]:
    """Indices of a ``subset_size``-subset with minimum diameter (Def. 3.4).

    Returns the (sorted) index tuple and its diameter.  Exhaustive by
    default; a greedy seeded sampling mode is used when ``max_subsets``
    caps the search.  Ties are broken by the lexicographically smallest
    index tuple, which makes the choice deterministic.  ``dist``
    optionally supplies the precomputed pairwise distance matrix.

    All candidate diameters are computed in one chunked gather over the
    distance matrix (:func:`repro.linalg.subset_kernels.subset_diameters`).
    """
    mat = ensure_matrix(vectors, name="vectors")
    m = mat.shape[0]
    if subset_size < 1 or subset_size > m:
        raise ValueError(
            f"subset_size must be in [1, {m}], got {subset_size}"
        )
    dist = _resolve_distances(mat, dist)
    indices = _candidate_indices(dist, m, subset_size, max_subsets, rng)
    diams = subset_diameters(dist, indices)
    return select_minimum_diameter(indices, diams)


def minimum_diameter_subsets(
    vectors: np.ndarray,
    subset_size: int,
    *,
    max_subsets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-12,
    dist: Optional[np.ndarray] = None,
) -> Tuple[list[Tuple[int, ...]], float]:
    """*All* minimum-diameter ``subset_size``-subsets (within ``tolerance``).

    The minimum-diameter set of Definition 3.4 is generally not unique;
    Lemma 4.2's non-convergence argument relies on an adversarial choice
    among the tied subsets.  This variant returns every subset whose
    diameter is within ``tolerance`` (relative to the spread) of the
    minimum, so callers can implement worst-case tie-breaking.  ``dist``
    optionally supplies the precomputed pairwise distance matrix.
    """
    mat = ensure_matrix(vectors, name="vectors")
    m = mat.shape[0]
    if subset_size < 1 or subset_size > m:
        raise ValueError(f"subset_size must be in [1, {m}], got {subset_size}")
    dist = _resolve_distances(mat, dist)
    indices = _candidate_indices(dist, m, subset_size, max_subsets, rng)
    diams = subset_diameters(dist, indices)
    return select_minimum_diameter_ties(indices, diams, tolerance=tolerance)
