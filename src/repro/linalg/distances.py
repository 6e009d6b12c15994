"""Pairwise distance helpers.

All aggregation rules that reason about "close" subsets (Krum,
minimum-diameter averaging, medoid) reduce to operations on the pairwise
Euclidean distance matrix of the received vectors.  These helpers keep
that computation vectorised and reused.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_matrix


def pairwise_sq_distances(vectors: np.ndarray) -> np.ndarray:
    """Return the ``(m, m)`` matrix of squared Euclidean distances.

    Uses the expanded form ``|x|^2 + |y|^2 - 2 x.y`` which is O(m^2 d)
    with a single GEMM, instead of the naive O(m^2 d) loop.
    Negative values caused by floating point cancellation are clamped to
    zero so callers can safely take square roots.
    """
    mat = ensure_matrix(np.asarray(vectors), name="vectors")
    sq_norms = np.einsum("ij,ij->i", mat, mat)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (mat @ mat.T)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return sq


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """Return the ``(m, m)`` matrix of Euclidean distances."""
    return np.sqrt(pairwise_sq_distances(vectors))


def resolve_pairwise_matrix(
    vectors: np.ndarray,
    precomputed: "np.ndarray | None",
    *,
    squared: bool = False,
) -> np.ndarray:
    """Validate a caller-supplied pairwise matrix or compute one.

    Shared by every consumer that accepts a precomputed distance matrix
    (Krum scores, the medoid, the minimum-diameter subset search) — e.g.
    from an :class:`~repro.aggregation.context.AggregationContext`.
    ``squared`` selects which matrix is computed when none is supplied
    and names the caller's expectation in every validation error; a
    supplied matrix is checked for shape and a floating dtype, trusting
    the caller on the squared/plain distinction (the values themselves
    cannot distinguish the two).
    """
    m = vectors.shape[0]
    kind = "squared Euclidean" if squared else "Euclidean"
    if precomputed is None:
        return pairwise_sq_distances(vectors) if squared else pairwise_distances(vectors)
    pre = np.asarray(precomputed)
    if pre.shape != (m, m):
        raise ValueError(
            f"pairwise matrix must have shape {(m, m)}, got {pre.shape}"
        )
    if not np.issubdtype(pre.dtype, np.floating):
        raise ValueError(
            f"precomputed pairwise matrix must hold floating-point {kind} "
            f"distances, got dtype {pre.dtype}"
        )
    return pre


def diameter(vectors: np.ndarray) -> float:
    """Largest Euclidean distance between any two of the given vectors.

    For small stacks the differences are formed explicitly, which avoids
    the catastrophic cancellation of the ``|x|^2 + |y|^2 - 2 x.y``
    expansion and makes the diameter of (numerically) identical vectors
    exactly zero — a property the agreement convergence checks rely on.
    """
    mat = ensure_matrix(vectors, name="vectors")
    m, d = mat.shape
    if m == 1:
        return 0.0
    if m * m * d <= 50_000_000:
        diffs = mat[:, None, :] - mat[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs).max()))
    return float(np.sqrt(pairwise_sq_distances(mat).max()))


def max_coordinate_spread(vectors: np.ndarray) -> float:
    """Largest per-coordinate range, i.e. ``E_max`` of the bounding box.

    Equals :meth:`repro.linalg.hyperbox.Hyperbox.max_edge_length` of the
    smallest axis-parallel hyperbox containing the vectors.
    """
    mat = ensure_matrix(vectors, name="vectors")
    return float(np.max(mat.max(axis=0) - mat.min(axis=0)))
