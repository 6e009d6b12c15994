"""The one Weiszfeld loop.

:meth:`KernelBackend.weiszfeld_loop` is the one float64 implementation
of the smoothed Weiszfeld fixed point; every geometric median in the
package runs through it, and every pinned fixture holds its results bit
for bit.  :func:`repro.linalg.geometric_median.batched_geometric_median`
prepares its inputs and applies the vertex-snap repair around it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Floor on the distances the update divides by: an iterate that
#: coincides with an input point still gives it a bounded weight (the
#: standard smoothed-Weiszfeld fix; see Pillutla et al. 2022).
WEISZFELD_EPS = 1e-12


class KernelBackend:
    """The float64 Weiszfeld convergence loop.

    It is a class, not a function, so that a profiler can wrap
    :meth:`weiszfeld_loop` on the class and see every call: callers
    build an instance and look the method up when they call it, and
    never keep a bound method from import time.
    """

    def weiszfeld_loop(
        self,
        pts: np.ndarray,
        current: np.ndarray,
        *,
        tol: float,
        max_iter: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the smoothed Weiszfeld fixed point over ``S`` point sets.

        Parameters are the pre-validated ``(S, s, d)`` float64 tensor
        and ``(S, d)`` float64 warm starts.  Returns ``(points,
        iterations, converged)``; ``current`` may be consumed
        destructively.
        """
        num_sets = pts.shape[0]
        converged = np.zeros(num_sets, dtype=bool)
        iterations = np.zeros(num_sets, dtype=np.int64)
        # The working arrays shrink as sets converge; `active` maps
        # working rows back to set indices.  Retired rows are written
        # back once, so an iteration with no retirements touches no
        # (A, s, d) gather.
        active = np.arange(num_sets)
        sub = pts
        cur = current
        for _ in range(max_iter):
            diffs = sub - cur[:, None, :]
            dists = np.sqrt(np.einsum("asd,asd->as", diffs, diffs))
            inv = 1.0 / np.maximum(dists, WEISZFELD_EPS)
            new_points = np.einsum("as,asd->ad", inv, sub) / inv.sum(axis=1)[:, None]
            move = np.linalg.norm(new_points - cur, axis=1)
            cur = new_points
            iterations[active] += 1
            done = move <= tol
            if done.any():
                retired = active[done]
                current[retired] = cur[done]
                converged[retired] = True
                keep = ~done
                active = active[keep]
                if active.size == 0:
                    break
                sub = sub[keep]
                cur = cur[keep]
        if active.size:
            current[active] = cur
        return current, iterations, converged
