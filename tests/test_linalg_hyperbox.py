"""Tests for repro.linalg.hyperbox."""

import numpy as np
import pytest

from repro.linalg.hyperbox import (
    Hyperbox,
    bounding_hyperbox,
    trimmed_hyperbox,
)


@pytest.fixture
def unit_box():
    return Hyperbox(lower=np.zeros(3), upper=np.ones(3))


class TestHyperboxBasics:
    def test_dimension(self, unit_box):
        assert unit_box.dimension == 3

    def test_midpoint(self, unit_box):
        np.testing.assert_allclose(unit_box.midpoint(), [0.5, 0.5, 0.5])

    def test_max_edge_length(self):
        box = Hyperbox(lower=[0.0, 0.0], upper=[2.0, 5.0])
        assert box.max_edge_length() == pytest.approx(5.0)

    def test_degenerate_box(self):
        box = Hyperbox(lower=[1.0, 1.0], upper=[1.0, 1.0])
        assert not box.is_empty
        np.testing.assert_allclose(box.midpoint(), [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hyperbox(lower=np.zeros(2), upper=np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Hyperbox(lower=[0.0, np.nan], upper=[1.0, 1.0])

    def test_empty_box_properties(self):
        box = Hyperbox(lower=[1.0], upper=[0.0])
        assert box.is_empty
        assert box.max_edge_length() == 0.0
        with pytest.raises(ValueError):
            box.midpoint()


class TestContainment:
    def test_contains_interior_point(self, unit_box):
        assert unit_box.contains(np.array([0.5, 0.5, 0.5]))

    def test_contains_boundary(self, unit_box):
        assert unit_box.contains(np.zeros(3))

    def test_rejects_outside(self, unit_box):
        assert not unit_box.contains(np.array([1.5, 0.5, 0.5]))

    def test_dimension_mismatch(self, unit_box):
        with pytest.raises(ValueError):
            unit_box.contains(np.zeros(2))

    def test_contains_box(self, unit_box):
        inner = Hyperbox(lower=[0.2, 0.2, 0.2], upper=[0.8, 0.8, 0.8])
        assert unit_box.contains_box(inner)
        assert not inner.contains_box(unit_box)

    def test_empty_box_contained_everywhere(self, unit_box):
        empty = Hyperbox(lower=[1.0, 1.0, 1.0], upper=[0.0, 0.0, 0.0])
        assert unit_box.contains_box(empty)

    def test_midpoint_inside(self, unit_box):
        assert unit_box.contains(unit_box.midpoint())


class TestSetOperations:
    def test_intersection_overlapping(self):
        a = Hyperbox(lower=[0.0, 0.0], upper=[2.0, 2.0])
        b = Hyperbox(lower=[1.0, 1.0], upper=[3.0, 3.0])
        inter = a.intersect(b)
        np.testing.assert_allclose(inter.lower, [1.0, 1.0])
        np.testing.assert_allclose(inter.upper, [2.0, 2.0])

    def test_intersection_disjoint_is_empty(self):
        a = Hyperbox(lower=[0.0], upper=[1.0])
        b = Hyperbox(lower=[2.0], upper=[3.0])
        assert a.intersect(b).is_empty

    def test_intersection_commutes(self, unit_box):
        other = Hyperbox(lower=[0.5, -1.0, 0.2], upper=[2.0, 0.5, 0.7])
        x = unit_box.intersect(other)
        y = other.intersect(unit_box)
        np.testing.assert_allclose(x.lower, y.lower)
        np.testing.assert_allclose(x.upper, y.upper)

    def test_expand(self, unit_box):
        bigger = unit_box.expand(1.0)
        assert bigger.contains_box(unit_box)
        with pytest.raises(ValueError):
            unit_box.expand(-0.1)

    def test_clip(self, unit_box):
        clipped = unit_box.clip(np.array([2.0, -1.0, 0.5]))
        np.testing.assert_allclose(clipped, [1.0, 0.0, 0.5])

    def test_sample_inside(self, unit_box, rng):
        samples = unit_box.sample(rng, 50)
        assert samples.shape == (50, 3)
        assert all(unit_box.contains(s) for s in samples)

    def test_corners_count(self, unit_box):
        corners = unit_box.corners()
        assert corners.shape == (8, 3)
        assert all(unit_box.contains(c) for c in corners)

    def test_corners_guard(self):
        box = Hyperbox(lower=np.zeros(20), upper=np.ones(20))
        with pytest.raises(ValueError):
            box.corners()

class TestBoundingHyperbox:
    def test_contains_all_points(self, gaussian_cloud):
        box = bounding_hyperbox(gaussian_cloud)
        assert all(box.contains(p) for p in gaussian_cloud)

    def test_is_smallest(self, gaussian_cloud):
        box = bounding_hyperbox(gaussian_cloud)
        np.testing.assert_allclose(box.lower, gaussian_cloud.min(axis=0))
        np.testing.assert_allclose(box.upper, gaussian_cloud.max(axis=0))


class TestTrimmedHyperbox:
    def test_trim_zero_is_bounding_box(self, gaussian_cloud):
        box = trimmed_hyperbox(gaussian_cloud, 0)
        ref = bounding_hyperbox(gaussian_cloud)
        np.testing.assert_allclose(box.lower, ref.lower)
        np.testing.assert_allclose(box.upper, ref.upper)

    def test_trim_removes_extremes(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0], [100.0]])
        box = trimmed_hyperbox(pts, 1)
        np.testing.assert_allclose([box.lower[0], box.upper[0]], [1.0, 3.0])

    def test_trimmed_contained_in_bounding(self, gaussian_cloud):
        trimmed = trimmed_hyperbox(gaussian_cloud, 2)
        assert bounding_hyperbox(gaussian_cloud).contains_box(trimmed)

    def test_trimmed_excludes_byzantine_outlier(self, cloud_with_outlier):
        # One Byzantine value per coordinate: trimming 1 per side must
        # bring the upper corner back to honest range.
        box = trimmed_hyperbox(cloud_with_outlier, 1)
        honest_box = bounding_hyperbox(cloud_with_outlier[:9])
        assert honest_box.contains_box(box)

    def test_over_trimming_rejected(self):
        with pytest.raises(ValueError):
            trimmed_hyperbox(np.zeros((4, 2)), 2)

    def test_negative_trim_rejected(self, gaussian_cloud):
        with pytest.raises(ValueError):
            trimmed_hyperbox(gaussian_cloud, -1)
