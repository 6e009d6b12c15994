"""Tests for the minimum-diameter aggregation rules (MD-MEAN, MD-GEOM)."""

import numpy as np
import pytest

from repro.aggregation.mda import (
    MinimumDiameterGeometricMedian,
    MinimumDiameterMean,
)
from repro.linalg.geometric_median import weiszfeld_reference


class TestMinimumDiameterMean:
    def test_excludes_outlier(self, cloud_with_outlier):
        rule = MinimumDiameterMean(n=10, t=1)
        out = rule.aggregate(cloud_with_outlier)
        honest_mean = cloud_with_outlier[:9].mean(axis=0)
        np.testing.assert_allclose(out, honest_mean, atol=1e-9)

    def test_no_byzantine_reduces_to_mean_of_tightest_subset(self, gaussian_cloud):
        rule = MinimumDiameterMean(n=10, t=0)
        np.testing.assert_allclose(rule.aggregate(gaussian_cloud), gaussian_cloud.mean(axis=0))

    def test_output_inside_received_hull_box(self, cloud_with_outlier):
        rule = MinimumDiameterMean(n=10, t=1)
        out = rule.aggregate(cloud_with_outlier)
        assert np.all(out >= cloud_with_outlier.min(axis=0) - 1e-9)
        assert np.all(out <= cloud_with_outlier.max(axis=0) + 1e-9)

    def test_minimum_diameter_set_size(self, gaussian_cloud):
        rule = MinimumDiameterMean(n=10, t=2)
        idx, diam = rule.minimum_diameter_set(gaussian_cloud)
        assert len(idx) == 8
        assert diam >= 0.0

    def test_max_subsets_sampling_still_valid(self, cloud_with_outlier, rng):
        rule = MinimumDiameterMean(n=10, t=1, max_subsets=5, rng=rng)
        out = rule.aggregate(cloud_with_outlier)
        # The greedy anchored candidates always exclude the far outlier.
        assert np.linalg.norm(out - cloud_with_outlier[:9].mean(axis=0)) < 2.0

    def test_invalid_max_subsets(self):
        with pytest.raises(ValueError):
            MinimumDiameterMean(n=10, t=1, max_subsets=0)

    def test_invalid_tie_break(self):
        with pytest.raises(ValueError):
            MinimumDiameterMean(n=10, t=1, tie_break="bogus")


class TestMinimumDiameterGeometricMedian:
    def test_excludes_outlier(self, cloud_with_outlier):
        rule = MinimumDiameterGeometricMedian(n=10, t=1, tol=1e-10, max_iter=1000)
        out = rule.aggregate(cloud_with_outlier)
        expected = weiszfeld_reference(cloud_with_outlier[:9], tol=1e-10, max_iter=1000)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_2_approximation_of_true_geometric_median(self, rng):
        # Lemma 4.2 discussion: MD-GEOM's one-shot output is a
        # 2-approximation of the honest geometric median.
        from repro.agreement.metrics import approximation_ratio

        n, t, d = 10, 2, 4
        honest = rng.normal(0.0, 1.0, size=(n - t, d))
        byz = rng.normal(0.0, 1.0, size=(t, d)) + 30.0
        received = np.vstack([honest, byz])
        rule = MinimumDiameterGeometricMedian(n=n, t=t)
        out = rule.aggregate(received)
        ratio = approximation_ratio(out, honest, received, n, t)
        assert ratio <= 2.0 + 1e-6

    def test_adversarial_tie_break_differs_on_tied_instance(self):
        # Two poles, equal multiplicities: ties exist and the adversarial
        # pick maximises the distance from the mean.
        pts = np.vstack([np.zeros((3, 2)), np.tile([4.0, 0.0], (3, 1))])
        benign = MinimumDiameterGeometricMedian(n=6, t=1, tie_break="first").aggregate(pts)
        adversarial = MinimumDiameterGeometricMedian(n=6, t=1, tie_break="adversarial").aggregate(pts)
        center = pts.mean(axis=0)
        assert np.linalg.norm(adversarial - center) >= np.linalg.norm(benign - center) - 1e-9

    def test_deterministic(self, cloud_with_outlier):
        rule = MinimumDiameterGeometricMedian(n=10, t=1)
        a = rule.aggregate(cloud_with_outlier)
        b = rule.aggregate(cloud_with_outlier)
        np.testing.assert_allclose(a, b)
