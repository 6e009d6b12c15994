"""Split-brain partition attack: selective omission.

:class:`PartitionAttack` is the adversary of Lemma 4.2: Byzantine nodes
echo one of two honest "poles" and deliver their message only to one
half of the honest nodes, keeping the two halves pinned to different
vectors forever and preventing the MD-GEOM agreement routine from
converging.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.byzantine.base import AttackContext, GradientAttack


class PartitionAttack(GradientAttack):
    """Echo an extreme honest vector towards a chosen half of the nodes.

    Parameters
    ----------
    group_a, group_b:
        The two sets of honest node ids the adversary tries to keep
        apart.  Byzantine nodes with an even id echo the vector common to
        ``group_a`` and deliver it only to ``group_a`` (and all Byzantine
        nodes); odd-id attackers mirror this for ``group_b``.
    """

    name = "partition"

    def __init__(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        if not group_a or not group_b:
            raise ValueError("both partition groups must be non-empty")
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ValueError(f"partition groups overlap: {sorted(overlap)}")
        self.group_a = tuple(sorted(int(i) for i in group_a))
        self.group_b = tuple(sorted(int(i) for i in group_b))

    def _target_group(self, context: AttackContext) -> tuple[int, ...]:
        return self.group_a if context.node % 2 == 0 else self.group_b

    def corrupt(self, context: AttackContext) -> Optional[np.ndarray]:
        group = self._target_group(context)
        vectors = [
            np.asarray(context.honest_vectors[i], dtype=np.float64).reshape(-1)
            for i in group
            if i in context.honest_vectors
        ]
        if not vectors:
            return None
        # Echo the group's common vector (they are identical in the
        # Lemma 4.2 construction; otherwise use their mean).
        return np.mean(np.stack(vectors, axis=0), axis=0)

    def recipients(self, context: AttackContext) -> Optional[frozenset[int]]:
        group = self._target_group(context)
        # Deliver to the target group and to the attacker itself; other
        # honest nodes never see the message this round.
        return frozenset(set(group) | {context.node})
