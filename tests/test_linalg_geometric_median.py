"""Tests for repro.linalg.geometric_median (Weiszfeld, medoid)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation import make_rule
from repro.agreement.metrics import true_geometric_median
from repro.linalg.backends import KernelBackend
from repro.linalg.geometric_median import (
    SNAP_MARGIN,
    batched_geometric_median,
    geometric_median,
    geometric_median_cost,
    medoid,
    medoid_index,
    weiszfeld_reference,
)


class TestGeometricMedianBasics:
    def test_single_point(self):
        point = np.array([[2.0, -1.0, 3.0]])
        np.testing.assert_allclose(geometric_median(point), point[0])

    def test_identical_points(self):
        pts = np.tile(np.array([1.0, 2.0]), (6, 1))
        np.testing.assert_allclose(geometric_median(pts), [1.0, 2.0], atol=1e-9)

    def test_two_points_on_segment(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        med = geometric_median(pts)
        # Any point on the segment is optimal; the returned point must be on it.
        assert 0.0 - 1e-9 <= med[0] <= 2.0 + 1e-9
        assert abs(med[1]) < 1e-9

    def test_collinear_odd_points_is_middle(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        np.testing.assert_allclose(geometric_median(pts), [1.0], atol=1e-6)

    def test_symmetric_square_center(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(geometric_median(pts), [0.0, 0.0], atol=1e-8)

    def test_majority_at_single_point(self):
        # With a strict majority of points at one location, the geometric
        # median is that location.
        pts = np.vstack([np.tile([5.0, 5.0], (6, 1)), np.zeros((4, 2))])
        np.testing.assert_allclose(geometric_median(pts), [5.0, 5.0], atol=1e-6)

    def test_one_dimension_matches_median(self, rng):
        values = rng.normal(size=(11, 1))
        np.testing.assert_allclose(
            geometric_median(values, tol=1e-12, max_iter=2000),
            np.median(values, axis=0),
            atol=1e-4,
        )


class TestGeometricMedianOptimality:
    def test_cost_below_perturbations(self, gaussian_cloud):
        med = geometric_median(gaussian_cloud, tol=1e-12, max_iter=1000)
        base_cost = geometric_median_cost(gaussian_cloud, med)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perturbed = med + rng.normal(0.0, 0.1, size=med.shape)
            assert base_cost <= geometric_median_cost(gaussian_cloud, perturbed) + 1e-9

    def test_cost_below_mean_and_inputs(self, gaussian_cloud):
        med = geometric_median(gaussian_cloud, tol=1e-12, max_iter=1000)
        cost = geometric_median_cost(gaussian_cloud, med)
        assert cost <= geometric_median_cost(gaussian_cloud, gaussian_cloud.mean(axis=0)) + 1e-9
        for row in gaussian_cloud:
            assert cost <= geometric_median_cost(gaussian_cloud, row) + 1e-9

    def test_robust_to_outlier(self, cloud_with_outlier):
        med = geometric_median(cloud_with_outlier)
        mean = cloud_with_outlier.mean(axis=0)
        honest_center = cloud_with_outlier[:9].mean(axis=0)
        assert np.linalg.norm(med - honest_center) < np.linalg.norm(mean - honest_center)

    def test_translation_equivariance(self, gaussian_cloud):
        shift = np.arange(gaussian_cloud.shape[1], dtype=float)
        a = geometric_median(gaussian_cloud, tol=1e-12, max_iter=1000)
        b = geometric_median(gaussian_cloud + shift, tol=1e-12, max_iter=1000)
        np.testing.assert_allclose(b, a + shift, atol=1e-6)

    def test_inside_bounding_box(self, gaussian_cloud):
        med = geometric_median(gaussian_cloud)
        assert np.all(med >= gaussian_cloud.min(axis=0) - 1e-9)
        assert np.all(med <= gaussian_cloud.max(axis=0) + 1e-9)


class TestGeometricMedianOptions:
    # geometric_median is the S = 1 front of batched_geometric_median,
    # whose return_info carries the convergence diagnostics.
    def test_convergence_flag(self, gaussian_cloud):
        result = batched_geometric_median(
            gaussian_cloud[None], tol=1e-10, max_iter=5000, return_info=True
        )
        assert result.converged[0]

    def test_max_iter_limits_iterations(self, gaussian_cloud):
        result = batched_geometric_median(
            gaussian_cloud[None], tol=1e-16, max_iter=3, return_info=True
        )
        assert result.iterations[0] <= 3

    def test_invalid_tol(self, gaussian_cloud):
        with pytest.raises(ValueError):
            geometric_median(gaussian_cloud, tol=0.0)

    def test_invalid_max_iter(self, gaussian_cloud):
        with pytest.raises(ValueError):
            geometric_median(gaussian_cloud, max_iter=0)

    def test_iterate_collision_with_input_point(self):
        # The mean start of this cross is exactly its centre input point:
        # the epsilon smoothing must keep the iteration finite and
        # converge to the median of the cross.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        med = geometric_median(pts)
        np.testing.assert_allclose(med, [0.0, 0.0], atol=1e-6)
        assert np.all(np.isfinite(med))


class TestMedoid:
    def test_medoid_is_input_point(self, gaussian_cloud):
        m = medoid(gaussian_cloud)
        assert any(np.allclose(m, row) for row in gaussian_cloud)

    def test_medoid_index_minimises_cost(self, gaussian_cloud):
        idx = medoid_index(gaussian_cloud)
        costs = [geometric_median_cost(gaussian_cloud, row) for row in gaussian_cloud]
        assert costs[idx] == pytest.approx(min(costs))

    def test_medoid_ignores_far_outlier(self, cloud_with_outlier):
        assert medoid_index(cloud_with_outlier) != 9


@st.composite
def tier_stacks(draw):
    """Stacks on which Weiszfeld is hard or its arithmetic is fragile."""
    kind = draw(st.sampled_from(
        ["gaussian", "majority", "collinear", "sign-flip", "offset", "near-identical"]
    ))
    m = draw(st.integers(2, 12))
    d = draw(st.one_of(st.integers(1, 8), st.integers(9, 1000), st.just(12786)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(m, d))
    if kind == "majority":
        rows[: m // 2 + 1] = rows[0]
    elif kind == "collinear":
        rows = rng.normal(size=d) + rng.normal(size=(m, 1)) * rng.normal(size=d)
    elif kind == "sign-flip":
        flipped = draw(st.integers(1, max(1, (m - 1) // 3)))
        rows[:flipped] = -3.0 * rows[flipped:].mean(axis=0)
    elif kind == "offset":
        rows += 10.0 ** draw(st.floats(3, 6)) * rng.normal(size=d) / np.sqrt(d)
    elif kind == "near-identical":
        rows = rng.normal(size=d) + 10.0 ** -draw(st.floats(3, 11)) * rows
    return rows


class TestToleranceTier:
    """The S = 1 front against the unbatched reference: equal objectives.

    Points are not compared: on a 1-D stack of even size every point
    between the two middle values is optimal, and the two solvers may
    stop at different ones.  The bound is ten times the snap margin.
    """

    @given(tier_stacks())
    @settings(max_examples=120, deadline=None)
    def test_objectives_agree(self, rows):
        front = geometric_median_cost(rows, geometric_median(rows))
        reference = geometric_median_cost(rows, weiszfeld_reference(rows))
        assert abs(front - reference) <= 10 * SNAP_MARGIN * max(reference, 1.0)


class TestOneLoop:
    """Every geometric median reaches ``KernelBackend.weiszfeld_loop``."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda x: make_rule("md-geom", n=7, t=1).aggregate(x),
            lambda x: make_rule("md-geom", n=7, t=1, tie_break="adversarial").aggregate(x),
            lambda x: make_rule("geomedian", n=7, t=1).aggregate(x),
            true_geometric_median,
        ],
        ids=["md-geom-first", "md-geom-adversarial", "geomedian", "true-geometric-median"],
    )
    def test_reaches_the_loop(self, solve, monkeypatch):
        calls = []
        loop = KernelBackend.weiszfeld_loop

        def spy(self, pts, *args, **kwargs):
            calls.append(pts.shape)
            return loop(self, pts, *args, **kwargs)

        monkeypatch.setattr(KernelBackend, "weiszfeld_loop", spy)
        solve(np.random.default_rng(0).normal(size=(7, 5)))
        assert calls
