"""Exact row dedup for received update stacks.

Adversarial rounds are rarely "generic" dense data: the sign-flip and
omniscient attacks send the *same* corrupted vector from every Byzantine
node, and partition attacks echo honest vectors verbatim.  A received
stack then holds byte-identical rows, and the subset kernels pay
O(C(m, n-t) · s · d) for work they have already done.

Rows are grouped by byte-equality (:attr:`SparsityProfile.row_group_ids`).
Two subsets whose index tuples map to the same group-id pattern gather
bit-identical ``(s, d)`` point sets, so any per-subset kernel value can
be computed once per *pattern* and scattered back
(:func:`dedup_subsets`).  This is exact: the representative subset runs
through the very same kernel, it is merely not run twice.

Profiles cost one pass over the rows and are cached per round on the
:class:`~repro.aggregation.context.AggregationContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SparsityProfile:
    """Duplicate-row structure of one ``(m, d)`` received stack.

    Attributes
    ----------
    row_group_ids:
        ``(m,)`` int64 — for every row, the index of the first row with
        byte-identical contents (a row with no duplicate maps to
        itself).
    num_unique_rows:
        Number of distinct row groups.
    """

    row_group_ids: np.ndarray
    num_unique_rows: int

    @property
    def num_rows(self) -> int:
        return int(self.row_group_ids.shape[0])

    @property
    def has_duplicate_rows(self) -> bool:
        return self.num_unique_rows < self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparsityProfile(rows={self.num_rows}, "
            f"unique_rows={self.num_unique_rows})"
        )


def detect_structure(matrix: np.ndarray) -> SparsityProfile:
    """Group the rows of a stack by byte-equality.

    Rows compare by raw bytes, so two rows share a group only when they
    hold the same bits (``-0.0`` and ``+0.0`` stay apart) and a profile
    never claims structure that the dense kernels would distinguish.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {mat.shape}")
    m = mat.shape[0]

    group_ids = np.empty(m, dtype=np.int64)
    first_seen: dict = {}
    for i in range(m):
        key = mat[i].tobytes()
        group_ids[i] = first_seen.setdefault(key, i)

    return SparsityProfile(row_group_ids=group_ids, num_unique_rows=len(first_seen))


def dedup_subsets(
    indices: np.ndarray, profile: SparsityProfile
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Collapse a subset family to one representative per row pattern.

    Maps every ``(S, s)`` index row through
    :attr:`SparsityProfile.row_group_ids` and groups subsets whose
    patterns coincide; the representative of a group is its **first**
    subset in family order.  Returns ``(representatives, inverse)``
    where ``representatives`` is the reduced ``(U, s)`` index matrix and
    ``kernel(indices)[i] == kernel(representatives)[inverse[i]]``
    bitwise — the representative gathers byte-identical points, so the
    kernel cannot tell the difference.  Returns ``None`` when nothing
    collapses (all patterns distinct), letting callers skip the scatter.
    """
    if not profile.has_duplicate_rows or indices.shape[0] <= 1:
        return None
    patterns = profile.row_group_ids[indices]
    _, first, inverse = np.unique(
        patterns, axis=0, return_index=True, return_inverse=True
    )
    if first.shape[0] == indices.shape[0]:
        return None
    return indices[first], inverse.reshape(-1)
