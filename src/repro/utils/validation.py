"""Input validation helpers shared across the library.

The agreement and aggregation code paths are all driven by stacks of
``(m, d)`` vectors; validating shapes and the Byzantine resilience bound
in one place keeps the numerical code free of defensive clutter.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def ensure_matrix(
    value: np.typing.ArrayLike | Iterable[np.typing.ArrayLike],
    *,
    name: str = "vectors",
    min_rows: int = 1,
    allow_non_finite: bool = False,
) -> np.ndarray:
    """Convert a sequence of vectors to an ``(m, d)`` float64 matrix.

    Accepts a 2-D array, a list of 1-D arrays, or a single vector (which
    becomes a one-row matrix).  The conversion is a no-copy view when
    the input is already a float64 array.
    """
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, dtype=np.float64)
    else:
        rows = [np.asarray(v, dtype=np.float64) for v in value]
        if not rows:
            raise ValueError(f"{name} must contain at least {min_rows} vector(s)")
        arr = np.stack([r.reshape(-1) for r in rows], axis=0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D stack of vectors, got shape {arr.shape}")
    if arr.shape[0] < min_rows:
        raise ValueError(
            f"{name} must contain at least {min_rows} vector(s), got {arr.shape[0]}"
        )
    if arr.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimension")
    if not allow_non_finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def validate_byzantine_bound(n: int, t: int) -> None:
    """Validate the standard ``t < n / 3`` Byzantine resilience condition.

    Parameters
    ----------
    n:
        Total number of nodes in the system.
    t:
        Maximum number of Byzantine nodes tolerated.
    """
    require(n >= 1, f"n must be positive, got {n}")
    require(t >= 0, f"t must be non-negative, got {t}")
    if 3 * t >= n:
        raise ValueError(
            f"Byzantine resilience violated: need t < n/3 but got n={n}, t={t}"
        )
