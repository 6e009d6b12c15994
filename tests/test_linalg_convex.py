"""Tests for repro.linalg.convex (hull membership, safe area)."""

import numpy as np
import pytest

from repro.linalg.convex import (
    in_convex_hull,
    safe_area_vertices,
)


class TestInConvexHull:
    def test_vertex_is_inside(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert in_convex_hull(np.array([0.0, 0.0]), verts)

    def test_centroid_is_inside(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert in_convex_hull(verts.mean(axis=0), verts)

    def test_outside_point(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not in_convex_hull(np.array([1.0, 1.0]), verts)

    def test_degenerate_segment(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert in_convex_hull(np.array([1.0, 0.0]), verts)
        assert not in_convex_hull(np.array([1.0, 0.5]), verts)

    def test_higher_dimension(self, rng):
        verts = rng.normal(size=(8, 5))
        inside = verts.mean(axis=0)
        assert in_convex_hull(inside, verts)
        far = verts.max(axis=0) + 10.0
        assert not in_convex_hull(far, verts)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_convex_hull(np.zeros(3), np.zeros((4, 2)))


class TestSafeArea:
    def test_no_byzantine_gives_full_hull_candidates(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = safe_area_vertices(verts, t=0)
        # With t=0 the safe area is the hull of all points, so at least the
        # input points and their mean qualify.
        assert result.shape[0] >= 4

    def test_theorem_41_configuration_collapses_to_origin(self):
        # d=2, f=1: nodes at origin (one correct + byzantine) and two
        # groups at v + eps_j.  The hulls of the (n-1)-subsets intersect
        # only at the origin.
        x = 5.0
        eps = 1e-2
        vectors = np.array(
            [
                [0.0, 0.0],          # correct at origin
                [x + eps, 0.0],      # group 1
                [x, eps],            # group 2
                [0.0, 0.0],          # Byzantine clone of the origin
            ]
        )
        result = safe_area_vertices(vectors, t=1)
        assert result.shape[0] >= 1
        # Every safe-area candidate must be (numerically) the origin.
        assert np.all(np.linalg.norm(result, axis=1) < 1e-6)

    def test_separated_clusters_have_empty_candidate_set(self):
        vectors = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        result = safe_area_vertices(vectors, t=2)
        # The hulls of disjoint 2-subsets do not intersect at any candidate.
        assert result.shape[0] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            safe_area_vertices(np.zeros((3, 2)), t=-1)
        with pytest.raises(ValueError):
            safe_area_vertices(np.zeros((3, 2)), t=3)
