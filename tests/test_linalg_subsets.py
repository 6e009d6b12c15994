"""Tests for repro.linalg.subsets."""

from math import comb

import numpy as np
import pytest

from repro.linalg.subset_kernels import subset_means
from repro.linalg.subsets import (
    enumerate_subsets,
    minimum_diameter_subset,
    minimum_diameter_subsets,
    sample_subsets,
    subset_count,
    subset_family,
)


class TestSubsetCount:
    def test_matches_comb(self):
        assert subset_count(10, 8) == comb(10, 8)

    def test_out_of_range(self):
        assert subset_count(5, 6) == 0
        assert subset_count(5, -1) == 0

    def test_edge_cases(self):
        assert subset_count(5, 0) == 1
        assert subset_count(5, 5) == 1


class TestEnumerateSubsets:
    def test_count_and_uniqueness(self):
        subsets = list(enumerate_subsets(6, 4))
        assert len(subsets) == comb(6, 4)
        assert len(set(subsets)) == len(subsets)

    def test_sorted_tuples(self):
        for subset in enumerate_subsets(5, 3):
            assert tuple(sorted(subset)) == subset

    def test_k_greater_than_m(self):
        assert list(enumerate_subsets(3, 5)) == []

    def test_negative_k(self):
        with pytest.raises(ValueError):
            list(enumerate_subsets(3, -1))


class TestSampleSubsets:
    def test_requested_count(self, rng):
        picks = sample_subsets(10, 8, 7, rng=rng)
        assert len(picks) == 7
        assert all(len(p) == 8 for p in picks)

    def test_unique_by_default(self, rng):
        picks = sample_subsets(10, 8, 20, rng=rng)
        assert len(set(picks)) == len(picks)

    def test_falls_back_to_enumeration(self, rng):
        picks = sample_subsets(5, 3, 100, rng=rng)
        assert len(picks) == comb(5, 3)

    def test_empty_when_impossible(self, rng):
        assert sample_subsets(3, 5, 4, rng=rng) == []

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_subsets(5, 3, -1, rng=rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_count_at_high_count_total_ratio(self, seed):
        # Regression: the unique-rejection loop used to exhaust its
        # attempt budget near count == total and silently return fewer
        # subsets.  The deterministic enumeration top-up now guarantees
        # exactly `count` distinct subsets whenever count <= C(m, k).
        rng = np.random.default_rng(seed)
        total = comb(8, 4)
        picks = sample_subsets(8, 4, total - 1, rng=rng)
        assert len(picks) == total - 1
        assert len(set(picks)) == total - 1

    def test_top_up_fills_when_attempts_exhausted(self, rng):
        # Force the rejection loop to give up immediately: every subset
        # must come from the deterministic enumeration top-up.
        picks = sample_subsets(10, 8, 7, rng=rng, max_attempts=0)
        assert picks == list(enumerate_subsets(10, 8))[:7]

    def test_top_up_respects_already_sampled(self, rng):
        picks = sample_subsets(6, 3, 19, rng=rng, max_attempts=5)
        assert len(picks) == 19
        assert len(set(picks)) == 19


class TestSubsetAggregates:
    """Row-count contract of the families the subset aggregates run over."""

    def test_exhaustive_mean(self, gaussian_cloud):
        family = subset_family(gaussian_cloud, 8)
        assert family.shape == (comb(10, 8), 8)
        assert subset_means(gaussian_cloud, family).shape == (comb(10, 8), 5)

    def test_single_subset_when_size_equals_m(self, gaussian_cloud):
        family = subset_family(gaussian_cloud, 10)
        assert family.tolist() == [list(range(10))]

    def test_sampling_caps_count(self, gaussian_cloud, rng):
        family = subset_family(gaussian_cloud, 8, max_subsets=5, rng=rng)
        # Documented row-count contract: max_subsets sampled rows plus up
        # to 2 anchored extremes.
        assert 5 <= family.shape[0] <= 5 + 2

    def test_invalid_subset_size(self, gaussian_cloud):
        with pytest.raises(ValueError):
            subset_family(gaussian_cloud, 0)
        with pytest.raises(ValueError):
            subset_family(gaussian_cloud, 11)


class TestMinimumDiameterSubset:
    def test_excludes_outlier(self, cloud_with_outlier):
        idx, diam = minimum_diameter_subset(cloud_with_outlier, 9)
        assert 9 not in idx
        assert diam > 0

    def test_diameter_is_correct(self, gaussian_cloud):
        from repro.linalg.distances import diameter

        idx, diam = minimum_diameter_subset(gaussian_cloud, 8)
        assert diam == pytest.approx(diameter(gaussian_cloud[list(idx)]))

    def test_is_minimum_over_exhaustive_search(self, rng):
        from repro.linalg.distances import diameter

        pts = rng.normal(size=(7, 3))
        idx, diam = minimum_diameter_subset(pts, 5)
        for subset in enumerate_subsets(7, 5):
            assert diam <= diameter(pts[list(subset)]) + 1e-12

    def test_full_set(self, gaussian_cloud):
        from repro.linalg.distances import diameter

        idx, diam = minimum_diameter_subset(gaussian_cloud, 10)
        assert idx == tuple(range(10))
        assert diam == pytest.approx(diameter(gaussian_cloud))

    def test_sampled_mode_covers_all_points(self, rng):
        pts = rng.normal(size=(12, 4))
        idx, diam = minimum_diameter_subset(pts, 9, max_subsets=10, rng=rng)
        assert len(idx) == 9

    def test_invalid_size(self, gaussian_cloud):
        with pytest.raises(ValueError):
            minimum_diameter_subset(gaussian_cloud, 0)
        with pytest.raises(ValueError):
            minimum_diameter_subset(gaussian_cloud, 11)


class TestMinimumDiameterSubsets:
    def test_all_tied_subsets_returned(self):
        # Two poles with equal sizes: every 3-subset of the 4 points has
        # the same diameter.
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        tied, diam = minimum_diameter_subsets(pts, 3)
        assert diam == pytest.approx(1.0)
        assert len(tied) == comb(4, 3)

    def test_unique_minimum(self, cloud_with_outlier):
        tied, _ = minimum_diameter_subsets(cloud_with_outlier, 9)
        assert tied == [tuple(range(9))]

    def test_contains_the_argmin(self, gaussian_cloud):
        best, _ = minimum_diameter_subset(gaussian_cloud, 8)
        tied, _ = minimum_diameter_subsets(gaussian_cloud, 8)
        assert best in tied
