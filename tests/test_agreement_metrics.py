"""Tests for the approximation-ratio / convergence metrics (Section 3)."""

import numpy as np
import pytest

from repro.agreement.metrics import (
    approximation_ratio,
    contraction_factors,
    covering_ball_of_sgeo,
    geometric_median_candidates,
    true_geometric_median,
)
from repro.linalg.geometric_median import weiszfeld_reference
from repro.linalg.subsets import subset_count


class TestSgeo:
    def test_candidate_count_exhaustive(self, gaussian_cloud):
        cands = geometric_median_candidates(gaussian_cloud, n=10, t=2)
        assert cands.shape == (subset_count(10, 8), 5)

    def test_single_candidate_when_t_zero(self, gaussian_cloud):
        cands = geometric_median_candidates(gaussian_cloud, n=10, t=0)
        assert cands.shape[0] == 1
        np.testing.assert_allclose(
            cands[0], weiszfeld_reference(gaussian_cloud, tol=1e-9, max_iter=200), atol=1e-6
        )

    def test_sampling_budget_respected(self, gaussian_cloud, rng):
        cands = geometric_median_candidates(gaussian_cloud, n=10, t=2, max_subsets=6, rng=rng)
        assert 6 <= cands.shape[0] <= 8

    def test_candidates_inside_input_box(self, cloud_with_outlier):
        cands = geometric_median_candidates(cloud_with_outlier, n=10, t=1)
        assert np.all(cands >= cloud_with_outlier.min(axis=0) - 1e-9)
        assert np.all(cands <= cloud_with_outlier.max(axis=0) + 1e-9)


class TestCoveringBall:
    def test_ball_covers_all_candidates(self, gaussian_cloud):
        ball = covering_ball_of_sgeo(gaussian_cloud, n=10, t=2)
        cands = geometric_median_candidates(gaussian_cloud, n=10, t=2)
        assert ball.contains_all(cands)

    def test_true_median_inside_ball_when_all_honest(self, gaussian_cloud):
        # Lemma 3.2: mu* lies in the convex hull of S_geo, hence inside any
        # ball covering S_geo when the received set equals the honest set.
        ball = covering_ball_of_sgeo(gaussian_cloud, n=10, t=2)
        mu = true_geometric_median(gaussian_cloud)
        assert ball.contains(mu, rtol=1e-6, atol=1e-6)

    def test_zero_radius_without_byzantine_room(self, gaussian_cloud):
        ball = covering_ball_of_sgeo(gaussian_cloud, n=10, t=0)
        assert ball.radius == pytest.approx(0.0, abs=1e-9)


class TestApproximationRatio:
    def test_true_median_has_zero_ratio(self, cloud_with_outlier):
        honest = cloud_with_outlier[:9]
        mu = true_geometric_median(honest)
        ratio = approximation_ratio(mu, honest, cloud_with_outlier, n=10, t=1)
        assert ratio == pytest.approx(0.0, abs=1e-6)

    def test_far_output_large_ratio(self, cloud_with_outlier):
        honest = cloud_with_outlier[:9]
        far = np.full(4, 1e6)
        ratio = approximation_ratio(far, honest, cloud_with_outlier, n=10, t=1)
        assert ratio > 100.0

    def test_degenerate_ball_exact_output(self, gaussian_cloud):
        honest = gaussian_cloud
        mu = true_geometric_median(honest)
        ratio = approximation_ratio(mu, honest, honest, n=10, t=0)
        assert ratio == 0.0

    def test_degenerate_ball_wrong_output_infinite(self, gaussian_cloud):
        honest = gaussian_cloud
        ratio = approximation_ratio(honest.mean(axis=0) + 10.0, honest, honest, n=10, t=0)
        assert ratio == float("inf")

    def test_ratio_scale_invariance(self, cloud_with_outlier):
        honest = cloud_with_outlier[:9]
        out = honest.mean(axis=0)
        r1 = approximation_ratio(out, honest, cloud_with_outlier, n=10, t=1)
        r2 = approximation_ratio(3.0 * out, 3.0 * honest, 3.0 * cloud_with_outlier, n=10, t=1)
        assert r1 == pytest.approx(r2, rel=1e-3)


class TestConvergenceDiagnostics:
    def test_contraction_factors(self):
        factors = contraction_factors([8.0, 4.0, 1.0])
        assert factors == [pytest.approx(0.5), pytest.approx(0.25)]

    def test_contraction_factor_zero_prev(self):
        assert contraction_factors([0.0, 0.0]) == [0.0]
