"""Tests for repro.linalg.distances."""

import numpy as np
import pytest

from repro.linalg.distances import (
    diameter,
    max_coordinate_spread,
    pairwise_distances,
    pairwise_sq_distances,
    resolve_pairwise_matrix,
)


class TestPairwiseDistances:
    def test_matches_bruteforce(self, gaussian_cloud):
        fast = pairwise_distances(gaussian_cloud)
        m = gaussian_cloud.shape[0]
        slow = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                slow[i, j] = np.linalg.norm(gaussian_cloud[i] - gaussian_cloud[j])
        np.testing.assert_allclose(fast, slow, atol=1e-9)

    def test_symmetry(self, gaussian_cloud):
        dist = pairwise_distances(gaussian_cloud)
        np.testing.assert_allclose(dist, dist.T)

    def test_zero_diagonal(self, gaussian_cloud):
        dist = pairwise_distances(gaussian_cloud)
        np.testing.assert_allclose(np.diag(dist), 0.0)

    def test_nonnegative(self, gaussian_cloud):
        assert np.all(pairwise_sq_distances(gaussian_cloud) >= 0.0)

    def test_identical_points(self):
        points = np.ones((4, 3))
        np.testing.assert_allclose(pairwise_distances(points), 0.0)

    def test_single_point(self):
        dist = pairwise_distances(np.array([[1.0, 2.0]]))
        assert dist.shape == (1, 1)
        assert dist[0, 0] == 0.0


class TestResolvePairwiseMatrix:
    def _cloud(self, m=5, d=3, seed=0):
        return np.random.default_rng(seed).normal(size=(m, d))

    def test_computes_when_absent(self):
        mat = self._cloud()
        assert np.array_equal(
            resolve_pairwise_matrix(mat, None), pairwise_distances(mat)
        )
        assert np.array_equal(
            resolve_pairwise_matrix(mat, None, squared=True),
            pairwise_sq_distances(mat),
        )

    def test_passes_valid_matrix_through(self):
        mat = self._cloud()
        dist = pairwise_distances(mat)
        assert resolve_pairwise_matrix(mat, dist) is dist

    def test_rejects_wrong_shape(self):
        mat = self._cloud(m=5)
        with pytest.raises(ValueError, match=r"shape \(5, 5\)"):
            resolve_pairwise_matrix(mat, np.zeros((4, 4)))

    def test_rejects_non_floating_dtype_naming_kind(self):
        mat = self._cloud(m=3)
        bad = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="floating-point Euclidean"):
            resolve_pairwise_matrix(mat, bad)
        with pytest.raises(ValueError, match="floating-point squared Euclidean"):
            resolve_pairwise_matrix(mat, bad, squared=True)


class TestDiameter:
    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert diameter(pts) == pytest.approx(5.0)

    def test_single_point_zero(self):
        assert diameter(np.array([[1.0, 1.0]])) == 0.0

    def test_invariant_under_translation(self, gaussian_cloud):
        shifted = gaussian_cloud + 100.0
        assert diameter(shifted) == pytest.approx(diameter(gaussian_cloud))

    def test_scales_linearly(self, gaussian_cloud):
        assert diameter(3.0 * gaussian_cloud) == pytest.approx(3.0 * diameter(gaussian_cloud))


class TestMaxCoordinateSpread:
    def test_axis_aligned(self):
        pts = np.array([[0.0, 0.0], [1.0, 5.0], [0.5, 2.0]])
        assert max_coordinate_spread(pts) == pytest.approx(5.0)

    def test_at_most_diameter(self, gaussian_cloud):
        assert max_coordinate_spread(gaussian_cloud) <= diameter(gaussian_cloud) + 1e-12

    def test_at_least_diameter_over_sqrt_d(self, gaussian_cloud):
        d = gaussian_cloud.shape[1]
        assert max_coordinate_spread(gaussian_cloud) >= diameter(gaussian_cloud) / np.sqrt(d) - 1e-12
