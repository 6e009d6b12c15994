"""Numerical geometry substrate.

This package contains every geometric primitive the agreement and
aggregation layers build on:

- :mod:`repro.linalg.distances` — pairwise distance / diameter helpers.
- :mod:`repro.linalg.geometric_median` — the Weiszfeld algorithm (one
  batched solver and its single-stack front) and the medoid.
- :mod:`repro.linalg.hyperbox` — axis-parallel hyperbox algebra
  (bounding boxes, intersections, midpoints, maximum edge length).
- :mod:`repro.linalg.covering_ball` — minimum enclosing ball (exact
  Welzl for small point sets, Ritter approximation for large ones).
- :mod:`repro.linalg.convex` — convex-hull membership tests and the
  safe-area construction for low dimensions.
- :mod:`repro.linalg.subsets` — enumeration and sampling of the
  ``(n - t)``-subsets used to build ``S_geo`` and the trusted hyperbox.
- :mod:`repro.linalg.subset_kernels` — batched (chunked) kernels over
  ``(S, s)`` subset index matrices: diameters in one gather, means in
  one reduction, geometric medians via the batched Weiszfeld solver.
- :mod:`repro.linalg.sparsity` — byte-level duplicate-row detection
  and the exact subset dedup it drives in the subset kernels.
- :mod:`repro.linalg.backends` — :class:`KernelBackend`, the float64
  Weiszfeld loop behind every geometric median.

Every kernel computes in float64.
"""

from repro.linalg.backends import KernelBackend
from repro.linalg.distances import (
    diameter,
    max_coordinate_spread,
    pairwise_distances,
    pairwise_sq_distances,
    resolve_pairwise_matrix,
)
from repro.linalg.geometric_median import (
    BatchedWeiszfeldResult,
    batched_geometric_median,
    geometric_median,
    geometric_median_cost,
    medoid,
    medoid_index,
)
from repro.linalg.hyperbox import Hyperbox, bounding_hyperbox, trimmed_hyperbox
from repro.linalg.sparsity import SparsityProfile, dedup_subsets, detect_structure
from repro.linalg.covering_ball import Ball, minimum_covering_ball, ritter_ball
from repro.linalg.convex import in_convex_hull, safe_area_vertices
from repro.linalg.subset_kernels import (
    subset_diameters,
    subset_geometric_medians,
    subset_index_matrix,
    subset_means,
    subsets_as_matrix,
)
from repro.linalg.subsets import (
    enumerate_subsets,
    minimum_diameter_subset,
    sample_subsets,
    subset_count,
    subset_family,
)

__all__ = [
    "Ball",
    "BatchedWeiszfeldResult",
    "Hyperbox",
    "KernelBackend",
    "SparsityProfile",
    "batched_geometric_median",
    "bounding_hyperbox",
    "dedup_subsets",
    "detect_structure",
    "diameter",
    "enumerate_subsets",
    "geometric_median",
    "geometric_median_cost",
    "in_convex_hull",
    "max_coordinate_spread",
    "medoid",
    "medoid_index",
    "minimum_covering_ball",
    "minimum_diameter_subset",
    "pairwise_distances",
    "pairwise_sq_distances",
    "resolve_pairwise_matrix",
    "ritter_ball",
    "safe_area_vertices",
    "sample_subsets",
    "subset_count",
    "subset_diameters",
    "subset_family",
    "subset_geometric_medians",
    "subset_index_matrix",
    "subset_means",
    "subsets_as_matrix",
    "trimmed_hyperbox",
]
