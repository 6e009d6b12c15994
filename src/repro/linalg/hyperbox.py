"""Axis-parallel hyperbox algebra.

The hyperbox (BOX) family of agreement algorithms — the paper's central
contribution — works entirely with coordinate-parallel boxes:

- the *locally trusted hyperbox* ``TH_i`` obtained by trimming the
  ``m_i - (n - t)`` extreme values per coordinate (Definition 2.5),
- the *geometric-median hyperbox* ``GH_i``, the smallest box containing
  all candidate aggregates ``S_geo(i)`` (Definition 3.5),
- their intersection and its midpoint (Definition 3.6), and
- the maximum edge length ``E_max`` (Definition 3.7) that drives the
  convergence argument of Theorem 4.4.

:class:`Hyperbox` is an immutable value object storing lower/upper
corners; all operations are vectorised over coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_matrix


@dataclass(frozen=True)
class Hyperbox:
    """A (possibly empty) axis-parallel box ``[lower, upper]`` in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        upper = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError(
                f"lower/upper shape mismatch: {lower.shape} vs {upper.shape}"
            )
        if lower.size == 0:
            raise ValueError("hyperbox must have positive dimension")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("hyperbox corners must be finite")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    # -- basic properties -------------------------------------------------
    @property
    def dimension(self) -> int:
        """Ambient dimension d."""
        return int(self.lower.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when any coordinate interval is empty (lower > upper)."""
        return bool(np.any(self.lower > self.upper))

    @property
    def edge_lengths(self) -> np.ndarray:
        """Per-coordinate edge lengths (0 for degenerate or empty boxes)."""
        return np.maximum(self.upper - self.lower, 0.0)

    def max_edge_length(self) -> float:
        """``E_max`` (Definition 3.7): the longest edge of the box."""
        if self.is_empty:
            return 0.0
        return float(self.edge_lengths.max())

    def midpoint(self) -> np.ndarray:
        """Centre of the box (Definition 3.6).

        Raises :class:`ValueError` for empty boxes because the midpoint
        of an empty region is undefined.
        """
        if self.is_empty:
            raise ValueError("midpoint of an empty hyperbox is undefined")
        return (self.lower + self.upper) / 2.0

    # -- set operations ----------------------------------------------------
    def contains(self, point: np.ndarray, *, atol: float = 1e-12) -> bool:
        """Whether ``point`` lies inside the box (within tolerance ``atol``)."""
        p = np.asarray(point, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.dimension:
            raise ValueError(
                f"point dimension {p.shape[0]} does not match box dimension {self.dimension}"
            )
        if self.is_empty:
            return False
        return bool(
            np.all(p >= self.lower - atol) and np.all(p <= self.upper + atol)
        )

    def contains_box(self, other: "Hyperbox", *, atol: float = 1e-12) -> bool:
        """Whether ``other`` is entirely contained in this box."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch between hyperboxes")
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return bool(
            np.all(other.lower >= self.lower - atol)
            and np.all(other.upper <= self.upper + atol)
        )

    def intersect(self, other: "Hyperbox") -> "Hyperbox":
        """Coordinate-wise intersection (possibly empty) of two boxes."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch between hyperboxes")
        return Hyperbox(
            lower=np.maximum(self.lower, other.lower),
            upper=np.minimum(self.upper, other.upper),
        )

    def expand(self, margin: float) -> "Hyperbox":
        """Box grown by ``margin`` on every side (useful in tests)."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return Hyperbox(lower=self.lower - margin, upper=self.upper + margin)

    def clip(self, point: np.ndarray) -> np.ndarray:
        """Project ``point`` onto the box (nearest point inside it)."""
        if self.is_empty:
            raise ValueError("cannot clip onto an empty hyperbox")
        p = np.asarray(point, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.dimension:
            raise ValueError("point dimension mismatch")
        return np.clip(p, self.lower, self.upper)

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Draw ``count`` uniform points inside the box, shape ``(count, d)``."""
        if self.is_empty:
            raise ValueError("cannot sample from an empty hyperbox")
        if count < 1:
            raise ValueError("count must be positive")
        u = rng.random((count, self.dimension))
        return self.lower[None, :] + u * (self.upper - self.lower)[None, :]

    def corners(self, *, max_dimension: int = 16) -> np.ndarray:
        """All 2^d corners of the box (guarded against dimension blow-up)."""
        if self.is_empty:
            raise ValueError("an empty hyperbox has no corners")
        d = self.dimension
        if d > max_dimension:
            raise ValueError(
                f"refusing to enumerate 2^{d} corners; increase max_dimension explicitly"
            )
        grid = np.array(
            np.meshgrid(*[(self.lower[k], self.upper[k]) for k in range(d)], indexing="ij")
        )
        return grid.reshape(d, -1).T


def bounding_hyperbox(vectors: np.ndarray) -> Hyperbox:
    """Smallest axis-parallel hyperbox containing all rows of ``vectors``."""
    mat = ensure_matrix(vectors, name="vectors")
    return Hyperbox(lower=mat.min(axis=0), upper=mat.max(axis=0))


def trimmed_hyperbox(vectors: np.ndarray, trim: int) -> Hyperbox:
    """Locally trusted hyperbox (Definition 2.5).

    Per coordinate, sort the received values and drop the ``trim``
    smallest and ``trim`` largest; the box spans the remaining range.
    With ``m`` received vectors and resilience parameters ``(n, t)`` the
    caller passes ``trim = m - (n - t)``, the maximum possible number of
    Byzantine values per coordinate.

    Raises
    ------
    ValueError
        If trimming would remove every value (``2 * trim >= m``).
    """
    mat = ensure_matrix(vectors, name="vectors")
    m = mat.shape[0]
    if trim < 0:
        raise ValueError(f"trim must be non-negative, got {trim}")
    if trim == 0:
        return bounding_hyperbox(mat)
    if 2 * trim >= m:
        raise ValueError(
            f"cannot trim {trim} values from each side of only {m} vectors"
        )
    ordered = np.sort(mat, axis=0)
    return Hyperbox(lower=ordered[trim], upper=ordered[m - trim - 1])
