"""Tests for the simple aggregation rules (mean family, geometric median, medoid)."""

import numpy as np
import pytest

from repro.aggregation.base import AggregationRule
from repro.aggregation.geometric_median import GeometricMedian
from repro.aggregation.mean import CoordinatewiseMedian, Mean, TrimmedMean
from repro.aggregation.medoid import Medoid
from repro.linalg.geometric_median import weiszfeld_reference


class TestBaseBehaviour:
    def test_single_vector_returned_unchanged(self):
        rule = Mean()
        vec = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(rule.aggregate(vec), vec[0])

    def test_callable_interface(self, gaussian_cloud):
        rule = Mean()
        np.testing.assert_allclose(rule(gaussian_cloud), rule.aggregate(gaussian_cloud))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            Mean(n=0)

    def test_negative_t(self):
        with pytest.raises(ValueError):
            Mean(n=10, t=-1)

    def test_t_geq_n(self):
        with pytest.raises(ValueError):
            Mean(n=3, t=3)

    def test_effective_n_inferred(self, gaussian_cloud):
        rule = Mean(t=1)
        assert rule.effective_n(gaussian_cloud.shape[0]) == 10

    def test_honest_subset_size(self):
        rule = Mean(n=10, t=2)
        assert rule.honest_subset_size(10) == 8
        assert rule.honest_subset_size(9) == 8

    def test_abstract_cannot_instantiate(self):
        with pytest.raises(TypeError):
            AggregationRule()  # type: ignore[abstract]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            Mean().aggregate(np.empty((0, 3)))

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError):
            Mean().aggregate(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestMean:
    def test_matches_numpy(self, gaussian_cloud):
        np.testing.assert_allclose(Mean().aggregate(gaussian_cloud), gaussian_cloud.mean(axis=0))

    def test_not_robust_to_outlier(self, cloud_with_outlier):
        out = Mean().aggregate(cloud_with_outlier)
        honest_center = cloud_with_outlier[:9].mean(axis=0)
        assert np.linalg.norm(out - honest_center) > 1.0


class TestCoordinatewiseMedian:
    def test_matches_numpy(self, gaussian_cloud):
        np.testing.assert_allclose(
            CoordinatewiseMedian().aggregate(gaussian_cloud),
            np.median(gaussian_cloud, axis=0),
        )

    def test_robust_to_outlier(self, cloud_with_outlier):
        out = CoordinatewiseMedian().aggregate(cloud_with_outlier)
        honest_box_hi = cloud_with_outlier[:9].max(axis=0)
        assert np.all(out <= honest_box_hi + 1e-9)


class TestTrimmedMean:
    def test_trim_zero_is_mean(self, gaussian_cloud):
        rule = TrimmedMean(trim=0)
        np.testing.assert_allclose(rule.aggregate(gaussian_cloud), gaussian_cloud.mean(axis=0))

    def test_explicit_trim_removes_outlier(self, cloud_with_outlier):
        rule = TrimmedMean(trim=1)
        out = rule.aggregate(cloud_with_outlier)
        assert np.all(out <= cloud_with_outlier[:9].max(axis=0) + 1e-9)

    def test_trim_from_n_t(self, cloud_with_outlier):
        rule = TrimmedMean(n=10, t=1)
        out = rule.aggregate(cloud_with_outlier)
        # m - (n - t) = 1 value trimmed per side: outlier removed.
        assert np.all(out <= cloud_with_outlier[:9].max(axis=0) + 1e-9)

    def test_output_within_trimmed_range(self, gaussian_cloud):
        rule = TrimmedMean(trim=2)
        out = rule.aggregate(gaussian_cloud)
        ordered = np.sort(gaussian_cloud, axis=0)
        assert np.all(out >= ordered[2] - 1e-9)
        assert np.all(out <= ordered[-3] + 1e-9)

    def test_over_trim_rejected(self):
        rule = TrimmedMean(trim=3)
        with pytest.raises(ValueError):
            rule.aggregate(np.zeros((5, 2)))

    def test_negative_trim_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMean(trim=-1)


class TestGeometricMedianRule:
    def test_matches_library_function(self, gaussian_cloud):
        rule = GeometricMedian(tol=1e-10, max_iter=1000)
        np.testing.assert_allclose(
            rule.aggregate(gaussian_cloud),
            weiszfeld_reference(gaussian_cloud, tol=1e-10, max_iter=1000),
            atol=1e-8,
        )

    def test_robust_to_outlier(self, cloud_with_outlier):
        out = GeometricMedian().aggregate(cloud_with_outlier)
        honest_center = cloud_with_outlier[:9].mean(axis=0)
        mean_out = Mean().aggregate(cloud_with_outlier)
        assert np.linalg.norm(out - honest_center) < np.linalg.norm(mean_out - honest_center)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GeometricMedian(tol=-1.0)
        with pytest.raises(ValueError):
            GeometricMedian(max_iter=0)

    def test_strict_majority_wins_on_near_identical_rows(self):
        # Four copies of b and three rows within 1e-8 of it: b holds a
        # strict majority, so it is the geometric median.  A vertex snap
        # reading uncentred |x|^2 + |y|^2 - 2x.y distances (error ~1e-8
        # here) misses it and returns a point with up to 2.3x b's cost.
        rule = GeometricMedian(n=7, t=0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b = rng.normal(size=1000)
            near = b + 1e-8 * rng.normal(size=(3, 1000)) / np.sqrt(1000)
            stack = np.vstack([np.tile(b, (4, 1)), near])
            assert np.array_equal(rule.aggregate(stack), b), seed


class TestMedoid:
    def test_output_is_an_input(self, gaussian_cloud):
        out = Medoid().aggregate(gaussian_cloud)
        assert any(np.allclose(out, row) for row in gaussian_cloud)

    def test_outlier_never_selected(self, cloud_with_outlier):
        out = Medoid().aggregate(cloud_with_outlier)
        assert not np.allclose(out, cloud_with_outlier[9])
