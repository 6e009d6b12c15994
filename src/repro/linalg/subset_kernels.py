"""Batched kernels over families of ``(n - t)``-subsets.

The subset-quantified rules (BOX-MEAN / BOX-GEOM, MD-MEAN / MD-GEOM,
``S_geo``) all evaluate one small computation — a mean, a geometric
median, a diameter — on every subset of a family of ``C(m, n - t)``
index tuples.  Evaluating them one tuple at a time costs O(S) Python
round-trips through per-subset solves; this module restructures the
work into a handful of BLAS-shaped array kernels instead:

- a subset family is a single ``(S, s)`` int64 **index matrix**
  (:func:`subset_index_matrix` for exhaustive lexicographic families,
  :func:`subsets_as_matrix` for sampled tuple lists),
- subset **diameters** are one chunked gather over the precomputed
  ``(m, m)`` pairwise distance matrix (:func:`subset_diameters`),
- subset **means** are one chunked fancy-index + reduction
  (:func:`subset_means`), bitwise-identical to the per-tuple loop,
- subset **geometric medians** run the smoothed Weiszfeld iteration on
  the whole ``(S, s, d)`` tensor simultaneously with per-subset
  convergence masking (:func:`subset_geometric_medians`, built on
  :func:`repro.linalg.geometric_median.batched_geometric_median`).

Every kernel walks its family in chunks sized from the
:data:`DEFAULT_CHUNK_ELEMENTS` element budget, so peak memory stays
bounded at large ``C(m, n - t)``; chunking never changes values.

Every kernel also takes an optional
:class:`~repro.linalg.sparsity.SparsityProfile` of the row stack.  Given
one, subsets whose index patterns gather byte-identical point sets are
computed once and scattered back, which is exact (see
:mod:`repro.linalg.sparsity`); without one the kernel runs dense.

See ``docs/performance.md`` for the memory/speed trade-off and benchmark
numbers (``benchmarks/bench_subset_kernels.py``).
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Optional

import numpy as np

from repro.linalg.sparsity import SparsityProfile, dedup_subsets

#: Element budget (float64 entries per intermediate tensor) used to pick
#: an automatic chunk size.  4M elements = ~32 MiB per temporary.
DEFAULT_CHUNK_ELEMENTS = 4_000_000


def subset_index_matrix(m: int, k: int) -> np.ndarray:
    """All k-subsets of ``range(m)`` as an ``(C(m, k), k)`` int64 matrix.

    Rows are in lexicographic order, matching
    :func:`repro.linalg.subsets.enumerate_subsets` row for row.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    total = comb(m, k) if k <= m else 0
    if total == 0:
        return np.empty((0, k), dtype=np.int64)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(m), k)),
        dtype=np.int64,
        count=total * k,
    )
    return flat.reshape(total, k)


def subsets_as_matrix(subsets, k: Optional[int] = None) -> np.ndarray:
    """Convert a sequence of index tuples to an ``(S, k)`` int64 matrix."""
    rows = list(subsets)
    if not rows:
        if k is None:
            raise ValueError("cannot infer subset size from an empty family")
        return np.empty((0, int(k)), dtype=np.int64)
    if any(np.ndim(row) != 1 for row in rows):
        raise ValueError(
            "subsets must be a sequence of index tuples of shape (S, k); "
            "wrap a single subset as [(i, j, ...)]"
        )
    sizes = sorted({len(row) for row in rows})
    if len(sizes) > 1:
        raise ValueError(f"subsets must all have the same size, got sizes {sizes}")
    mat = np.asarray(rows, dtype=np.int64)
    if k is not None and mat.shape[1] != int(k):
        raise ValueError(
            f"subsets have size {mat.shape[1]}, expected {int(k)}"
        )
    return mat


def validate_subset_indices(indices: np.ndarray, m: int) -> np.ndarray:
    """Validate an ``(S, s)`` index matrix against a stack of ``m`` rows."""
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise ValueError(f"index matrix must be 2-D, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"index matrix must be integer-typed, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ValueError(f"subset indices must lie in [0, {m}), got range "
                         f"[{idx.min()}, {idx.max()}]")
    return idx.astype(np.int64, copy=False)


def resolve_chunk_size(per_subset_elements: int, total: int) -> int:
    """Number of subsets per chunk, from the element budget."""
    per = max(1, int(per_subset_elements))
    return max(1, min(total if total else 1, DEFAULT_CHUNK_ELEMENTS // per))


def _as_float_matrix(matrix: np.ndarray, name: str) -> np.ndarray:
    """2-D float64 view of ``matrix`` — no copy when already float64."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {mat.shape}")
    return mat


def subset_diameters(
    dist: np.ndarray,
    indices: np.ndarray,
    *,
    profile: Optional[SparsityProfile] = None,
) -> np.ndarray:
    """Diameter of every subset, gathered from a pairwise distance matrix.

    Parameters
    ----------
    dist:
        ``(m, m)`` pairwise Euclidean distance matrix (e.g. from
        :attr:`repro.aggregation.context.AggregationContext.distances`).
    indices:
        ``(S, s)`` subset index matrix.
    profile:
        Optional :class:`~repro.linalg.sparsity.SparsityProfile` of the
        row stack behind ``dist``.  Subsets gathering byte-identical
        point sets are then computed once per pattern and scattered
        back; values stay bitwise-identical (the representative runs
        through the same gather).

    Returns
    -------
    ``(S,)`` float64 array.  Values are bitwise-identical to
    ``dist[np.ix_(rows, rows)].max()`` per subset (``max`` is exact).
    """
    dist = np.asarray(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"dist must be a square matrix, got shape {dist.shape}")
    if not np.issubdtype(dist.dtype, np.floating):
        dist = dist.astype(np.float64)
    idx = validate_subset_indices(indices, dist.shape[0])
    total, s = idx.shape
    if total == 0 or s <= 1:
        return np.zeros(total, dtype=np.float64)

    plan = None if profile is None else dedup_subsets(idx, profile)
    if plan is not None:
        idx = plan[0]

    reduced_total = idx.shape[0]
    out = np.zeros(reduced_total, dtype=np.float64)
    chunk = resolve_chunk_size(s * s, reduced_total)
    for start in range(0, reduced_total, chunk):
        rows = idx[start : start + chunk]
        out[start : start + chunk] = dist[rows[:, :, None], rows[:, None, :]].max(
            axis=(1, 2)
        )
    if plan is not None:
        out = out[plan[1]]
    return out


def subset_means(
    matrix: np.ndarray,
    indices: np.ndarray,
    *,
    profile: Optional[SparsityProfile] = None,
) -> np.ndarray:
    """Mean vector of every subset, as one chunked gather + reduction.

    Bitwise-identical to ``matrix[list(idx)].mean(axis=0)`` per subset:
    the reduction over the subset axis accumulates rows in the same
    order in both layouts.  Given a ``profile``, pattern-duplicate
    subsets are computed once on byte-identical gathers and scattered
    back — still bitwise-exact, because the representative runs through
    the identical reduction.
    """
    mat = _as_float_matrix(matrix, "matrix")
    idx = validate_subset_indices(indices, mat.shape[0])
    total, s = idx.shape
    d = mat.shape[1]
    if total == 0:
        return np.empty((total, d), dtype=np.float64)
    if s == 0:
        raise ValueError("subset size must be at least 1 for means")

    plan = None if profile is None else dedup_subsets(idx, profile)
    if plan is not None:
        idx = plan[0]

    reduced_total = idx.shape[0]
    out = np.empty((reduced_total, d), dtype=np.float64)
    chunk = resolve_chunk_size(s * d, reduced_total)
    for start in range(0, reduced_total, chunk):
        gathered = mat[idx[start : start + chunk]]
        out[start : start + chunk] = gathered.mean(axis=1, dtype=np.float64)
    if plan is not None:
        out = out[plan[1]]
    return out


def subset_geometric_medians(
    matrix: np.ndarray,
    indices: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 200,
    dist: Optional[np.ndarray] = None,
    profile: Optional[SparsityProfile] = None,
) -> np.ndarray:
    """Geometric median of every subset via one batched Weiszfeld solve.

    Parameters
    ----------
    matrix:
        ``(m, d)`` stack of received vectors.
    indices:
        ``(S, s)`` subset index matrix.
    tol, max_iter:
        Forwarded to
        :func:`repro.linalg.geometric_median.batched_geometric_median`.
    dist:
        Optional precomputed ``(m, m)`` pairwise distance matrix.  When
        given, the per-subset pairwise distances needed by the
        vertex-snap step are a free gather; otherwise each subset's
        block is built from the differences to its final iterate.
    profile:
        Optional :class:`~repro.linalg.sparsity.SparsityProfile` of
        ``matrix``.  Pattern-duplicate subsets then run one Weiszfeld
        solve per pattern; this is exact, because the representative
        solves on byte-identical points.

    Returns
    -------
    ``(S, d)`` float64 array, matching
    :func:`repro.linalg.geometric_median.weiszfeld_reference` per subset
    within a tolerance of order ``tol`` (the two run the same iteration
    but accumulate sums in different orders).
    """
    from repro.linalg.geometric_median import batched_geometric_median

    mat = _as_float_matrix(matrix, "matrix")
    idx = validate_subset_indices(indices, mat.shape[0])
    total, s = idx.shape
    d = mat.shape[1]
    if total == 0:
        return np.empty((total, d), dtype=np.float64)
    if s == 0:
        raise ValueError("subset size must be at least 1 for geometric medians")
    if s == 1:
        return mat[idx[:, 0]]
    if dist is not None:
        dist = np.asarray(dist)
        if not np.issubdtype(dist.dtype, np.floating):
            dist = dist.astype(np.float64)
        if dist.shape != (mat.shape[0], mat.shape[0]):
            raise ValueError(
                f"dist must have shape {(mat.shape[0], mat.shape[0])}, "
                f"got {dist.shape}"
            )

    plan = None if profile is None else dedup_subsets(idx, profile)
    if plan is not None:
        idx = plan[0]

    reduced_total = idx.shape[0]
    out = np.empty((reduced_total, d), dtype=np.float64)
    chunk = resolve_chunk_size(s * max(s, d), reduced_total)
    for start in range(0, reduced_total, chunk):
        rows = idx[start : start + chunk]
        points = mat[rows]
        pairwise = None
        if dist is not None:
            pairwise = dist[rows[:, :, None], rows[:, None, :]]
        out[start : start + chunk] = batched_geometric_median(
            points, tol=tol, max_iter=max_iter, pairwise=pairwise
        )
    if plan is not None:
        out = out[plan[1]]
    return out


__all__ = [
    "DEFAULT_CHUNK_ELEMENTS",
    "resolve_chunk_size",
    "subset_diameters",
    "subset_geometric_medians",
    "subset_index_matrix",
    "subset_means",
    "subsets_as_matrix",
    "validate_subset_indices",
]
