"""Batched-vs-looped equivalence suite for the subset kernels.

The contract of :mod:`repro.linalg.subset_kernels`:

- subset **means** and **diameters** are *bitwise* identical to the
  per-tuple scalar loops,
- subset **geometric medians** match the per-subset reference solves
  (:func:`~repro.linalg.geometric_median.weiszfeld_reference`) within a
  tolerance of order ``tol``,
- chunking never changes values, only peak memory (the chunk size
  comes from the :data:`DEFAULT_CHUNK_ELEMENTS` budget, which the tests
  shrink to force small chunks).
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.aggregation.context import AggregationContext
from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian, HyperboxMean
from repro.aggregation.mda import MinimumDiameterGeometricMedian, MinimumDiameterMean
from repro.linalg import subset_kernels
from repro.linalg.backends import KernelBackend
from repro.linalg.distances import pairwise_distances
from repro.linalg.geometric_median import (
    batched_geometric_median,
    weiszfeld_reference,
)
from repro.linalg.subset_kernels import (
    DEFAULT_CHUNK_ELEMENTS,
    resolve_chunk_size,
    subset_diameters,
    subset_geometric_medians,
    subset_index_matrix,
    subset_means,
    subsets_as_matrix,
    validate_subset_indices,
)
from repro.linalg.subsets import subset_family


def set_chunk(monkeypatch, chunk, per_subset_elements, total):
    """Shrink the element budget so the kernels walk ``chunk`` subsets at a time."""
    monkeypatch.setattr(
        subset_kernels, "DEFAULT_CHUNK_ELEMENTS", chunk * per_subset_elements
    )
    assert resolve_chunk_size(per_subset_elements, total) == min(chunk, total)


def looped_means(mat, size):
    return np.stack(
        [mat[list(s)].mean(axis=0) for s in combinations(range(mat.shape[0]), size)]
    )


def looped_diameters(dist, size):
    m = dist.shape[0]
    return np.array(
        [dist[np.ix_(list(s), list(s))].max() for s in combinations(range(m), size)]
    )


def looped_medians(mat, size, *, tol=1e-8, max_iter=200):
    return np.stack(
        [
            weiszfeld_reference(mat[list(s)], tol=tol, max_iter=max_iter)
            for s in combinations(range(mat.shape[0]), size)
        ]
    )


#: Degenerate point stacks the batched solver must handle like the
#: reference: duplicates, medians colliding with input points, and
#: widely separated clusters.
DEGENERATE_STACKS = {
    "duplicates": np.array(
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.5, 1.0]]
    ),
    "median-on-input": np.array(
        # A star: the centre point IS the geometric median of the set,
        # which makes the Weiszfeld iterate collide with an input point.
        [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    ),
    "all-identical": np.tile([2.0, -3.0], (5, 1)),
    "two-clusters": np.vstack(
        [np.zeros((3, 2)), np.full((2, 2), 100.0)]
    ),
}


class TestSubsetIndexMatrix:
    def test_matches_enumeration(self):
        idx = subset_index_matrix(7, 4)
        assert idx.shape == (comb(7, 4), 4)
        assert [tuple(row) for row in idx] == list(combinations(range(7), 4))

    def test_edge_sizes(self):
        assert subset_index_matrix(5, 5).shape == (1, 5)
        assert subset_index_matrix(5, 0).shape == (1, 0)
        assert subset_index_matrix(3, 5).shape == (0, 5)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            subset_index_matrix(3, -1)

    def test_subsets_as_matrix_round_trip(self):
        tuples = [(0, 2), (1, 3)]
        mat = subsets_as_matrix(tuples, 2)
        assert mat.dtype == np.int64
        assert [tuple(r) for r in mat] == tuples

    def test_subsets_as_matrix_validates(self):
        with pytest.raises(ValueError):
            subsets_as_matrix([], None)
        with pytest.raises(ValueError):
            subsets_as_matrix([(0, 1)], 3)

    def test_subsets_as_matrix_names_ragged_sizes(self):
        with pytest.raises(ValueError, match=r"same size, got sizes \[1, 2\]"):
            subsets_as_matrix([(0, 1), (2,)])

    def test_subsets_as_matrix_names_expected_shape_for_flat_input(self):
        with pytest.raises(ValueError, match=r"shape \(S, k\)"):
            subsets_as_matrix([0, 1, 2])

    def test_validate_subset_indices_bounds(self):
        with pytest.raises(ValueError):
            validate_subset_indices(np.array([[0, 5]]), 5)
        with pytest.raises(ValueError):
            validate_subset_indices(np.array([[0.5, 1.0]]), 5)
        with pytest.raises(ValueError):
            validate_subset_indices(np.array([0, 1]), 5)


class TestResolveChunkSize:
    def test_auto_respects_budget(self):
        assert resolve_chunk_size(DEFAULT_CHUNK_ELEMENTS // 2, 100) == 2
        assert resolve_chunk_size(10 * DEFAULT_CHUNK_ELEMENTS, 100) == 1
        assert resolve_chunk_size(1, 7) == 7  # clamped to the family size


class TestBatchedMeans:
    @pytest.mark.parametrize("size", [1, 4, 8, 10])
    def test_bitwise_equal_to_loop(self, gaussian_cloud, size):
        idx = subset_index_matrix(10, size)
        batched = subset_means(gaussian_cloud, idx)
        assert np.array_equal(batched, looped_means(gaussian_cloud, size))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_STACKS))
    def test_bitwise_on_degenerate_stacks(self, name):
        mat = DEGENERATE_STACKS[name]
        for size in (1, 3, mat.shape[0]):
            idx = subset_index_matrix(mat.shape[0], size)
            assert np.array_equal(
                subset_means(mat, idx), looped_means(mat, size)
            )

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_chunking_never_changes_values(self, gaussian_cloud, chunk, monkeypatch):
        idx = subset_index_matrix(10, 6)
        reference = subset_means(gaussian_cloud, idx)
        set_chunk(monkeypatch, chunk, 6 * 5, idx.shape[0])
        assert np.array_equal(subset_means(gaussian_cloud, idx), reference)


class TestBatchedDiameters:
    @pytest.mark.parametrize("size", [1, 2, 7, 10])
    def test_bitwise_equal_to_loop(self, gaussian_cloud, size):
        dist = pairwise_distances(gaussian_cloud)
        idx = subset_index_matrix(10, size)
        batched = subset_diameters(dist, idx)
        if size == 1:
            assert np.array_equal(batched, np.zeros(10))
        else:
            assert np.array_equal(batched, looped_diameters(dist, size))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunking_never_changes_values(self, gaussian_cloud, chunk, monkeypatch):
        dist = pairwise_distances(gaussian_cloud)
        idx = subset_index_matrix(10, 7)
        reference = subset_diameters(dist, idx)
        set_chunk(monkeypatch, chunk, 7 * 7, idx.shape[0])
        assert np.array_equal(subset_diameters(dist, idx), reference)

    def test_rejects_non_square_dist(self, gaussian_cloud):
        with pytest.raises(ValueError):
            subset_diameters(gaussian_cloud, subset_index_matrix(10, 3))

    def test_diameter_gather_matches_naive(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(9, 6))
        dist = pairwise_distances(mat)
        indices = subset_index_matrix(9, 4)
        got = subset_diameters(dist, indices)
        naive = np.array([dist[np.ix_(rows, rows)].max() for rows in indices])
        assert np.array_equal(got, naive)


class TestBatchedGeometricMedians:
    @pytest.mark.parametrize("size", [1, 2, 6, 10])
    def test_matches_scalar_within_tol(self, gaussian_cloud, size):
        idx = subset_index_matrix(10, size)
        batched = subset_geometric_medians(
            gaussian_cloud, idx, tol=1e-10, max_iter=500
        )
        looped = looped_medians(gaussian_cloud, size, tol=1e-10, max_iter=500)
        np.testing.assert_allclose(batched, looped, atol=1e-7)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_STACKS))
    def test_degenerate_stacks_match_scalar(self, name):
        mat = DEGENERATE_STACKS[name]
        for size in (1, 2, 3, mat.shape[0]):
            idx = subset_index_matrix(mat.shape[0], size)
            batched = subset_geometric_medians(mat, idx, tol=1e-10, max_iter=500)
            looped = looped_medians(mat, size, tol=1e-10, max_iter=500)
            np.testing.assert_allclose(batched, looped, atol=1e-7)

    def test_precomputed_dist_gather_matches_gemm_path(self, gaussian_cloud):
        idx = subset_index_matrix(10, 6)
        dist = pairwise_distances(gaussian_cloud)
        with_dist = subset_geometric_medians(gaussian_cloud, idx, dist=dist)
        without = subset_geometric_medians(gaussian_cloud, idx)
        np.testing.assert_allclose(with_dist, without, atol=1e-9)

    @pytest.mark.parametrize("chunk", [1, 4, 17, 1000])
    def test_chunking_never_changes_values(self, gaussian_cloud, chunk, monkeypatch):
        idx = subset_index_matrix(10, 6)
        reference = subset_geometric_medians(gaussian_cloud, idx)
        set_chunk(monkeypatch, chunk, 6 * 6, idx.shape[0])
        assert np.array_equal(subset_geometric_medians(gaussian_cloud, idx), reference)

    def test_rejects_bad_dist_shape(self, gaussian_cloud):
        idx = subset_index_matrix(10, 3)
        with pytest.raises(ValueError):
            subset_geometric_medians(gaussian_cloud, idx, dist=np.eye(3))


class TestBatchedWeiszfeldSolver:
    def test_return_info_fields(self, rng):
        pts = rng.normal(size=(8, 5, 3))
        info = batched_geometric_median(
            pts, tol=1e-10, max_iter=500, return_info=True
        )
        assert info.points.shape == (8, 3)
        assert info.iterations.shape == (8,)
        assert info.converged.all()
        assert np.all(info.iterations <= 500)
        # Costs match the objective evaluated at the returned points.
        for k in range(8):
            expected = np.linalg.norm(pts[k] - info.points[k], axis=1).sum()
            assert info.costs[k] == pytest.approx(expected, abs=1e-8)

    def test_convergence_mask_freezes_each_set(self, rng):
        # One trivially converging set (identical points) batched with a
        # hard one: the easy set must record far fewer iterations.
        easy = np.tile([1.0, 1.0], (6, 1))
        hard = rng.normal(size=(6, 2)) * np.array([1e3, 1e-3])
        info = batched_geometric_median(
            np.stack([easy, hard]), tol=1e-12, max_iter=300, return_info=True
        )
        assert info.iterations[0] < info.iterations[1]

    def test_matches_scalar_iteration_counts_roughly(self, rng):
        pts = rng.normal(size=(5, 7, 4))
        info = batched_geometric_median(
            pts, tol=1e-10, max_iter=400, return_info=True
        )
        assert info.converged.all()
        for k in range(5):
            reference = weiszfeld_reference(pts[k], tol=1e-10, max_iter=400)
            np.testing.assert_allclose(info.points[k], reference, atol=1e-7)

    def test_validation_errors(self, rng):
        pts = rng.normal(size=(3, 4, 2))
        with pytest.raises(ValueError):
            batched_geometric_median(pts[0])  # not 3-D
        with pytest.raises(ValueError):
            batched_geometric_median(pts, tol=0.0)
        with pytest.raises(ValueError):
            batched_geometric_median(pts, max_iter=0)
        with pytest.raises(ValueError):
            batched_geometric_median(pts, pairwise=np.zeros((3, 2, 2)))

    def test_empty_point_sets_rejected(self):
        with pytest.raises(ValueError, match=r"\(3, 0, 2\)"):
            batched_geometric_median(np.zeros((3, 0, 2)))

    def test_single_point_sets(self, rng):
        pts = rng.normal(size=(5, 1, 3))
        info = batched_geometric_median(pts, return_info=True)
        assert np.array_equal(info.points, pts[:, 0, :])
        assert info.converged.all()
        assert np.array_equal(info.iterations, np.zeros(5, dtype=np.int64))

    def test_weiszfeld_loop_matches_scalar_solver(self):
        # The raw loop has no vertex-snap, so a set whose median sits
        # near a vertex may oscillate below tol without "converging";
        # batched_geometric_median snaps it afterwards.  The loop must
        # agree with the reference solver run under the same settings.
        pts = np.random.default_rng(3).normal(size=(12, 5, 7))
        points, iterations, converged = KernelBackend().weiszfeld_loop(
            pts, pts.mean(axis=1), tol=1e-8, max_iter=500
        )
        assert converged.sum() >= pts.shape[0] - 1
        assert (iterations >= 1).all()
        for a in range(pts.shape[0]):
            reference = weiszfeld_reference(pts[a], tol=1e-8, max_iter=500)
            assert np.allclose(points[a], reference, atol=1e-6)


class TestRuleLevelEquivalence:
    """BOX/MD rules through the batched path match the scalar references."""

    def _received(self, rng):
        honest = rng.normal(0.0, 1.0, size=(8, 4))
        byz = rng.normal(0.0, 1.0, size=(2, 4)) + 20.0
        return np.vstack([honest, byz])

    def test_box_mean_exact_vs_looped_reference(self, rng):
        from repro.linalg.hyperbox import bounding_hyperbox

        received = self._received(rng)
        rule = HyperboxMean(n=10, t=2)
        out = rule.aggregate(received)
        # Pre-batching reference: per-tuple loop over subset means.
        aggs = looped_means(received, 8)
        reference = rule.trusted_hyperbox(received).intersect(
            bounding_hyperbox(aggs)
        )
        assert np.array_equal(out, reference.midpoint())

    def test_box_geom_matches_looped_reference_within_tol(self, rng):
        from repro.linalg.hyperbox import bounding_hyperbox

        received = self._received(rng)
        rule = HyperboxGeometricMedian(n=10, t=2, tol=1e-10, max_iter=500)
        out = rule.aggregate(received)
        aggs = looped_medians(received, 8, tol=1e-10, max_iter=500)
        reference = rule.trusted_hyperbox(received).intersect(
            bounding_hyperbox(aggs)
        )
        np.testing.assert_allclose(out, reference.midpoint(), atol=1e-7)

    def test_md_rules_select_brute_force_subset(self, rng):
        from repro.linalg.distances import diameter

        received = self._received(rng)
        brute = min(
            combinations(range(10), 8),
            key=lambda s: (diameter(received[list(s)]), s),
        )
        for rule in (
            MinimumDiameterMean(n=10, t=2),
            MinimumDiameterGeometricMedian(n=10, t=2),
        ):
            idx, diam = rule.minimum_diameter_set(
                received, context=AggregationContext(received)
            )
            assert idx == brute
            assert diam == pytest.approx(diameter(received[list(brute)]))

    def test_md_mean_output_exact(self, rng):
        received = self._received(rng)
        rule = MinimumDiameterMean(n=10, t=2)
        out = rule.aggregate(received)
        idx, _ = rule.minimum_diameter_set(received)
        assert np.array_equal(out, received[list(idx)].mean(axis=0))

    def test_chunked_rules_match_unchunked(self, rng, monkeypatch):
        received = self._received(rng)
        box, md = HyperboxGeometricMedian(n=10, t=2), MinimumDiameterMean(n=10, t=2)
        box_reference, md_reference = box.aggregate(received), md.aggregate(received)
        set_chunk(monkeypatch, 3, 8 * 8, comb(10, 8))  # medians: s * max(s, d)
        assert np.array_equal(box.aggregate(received), box_reference)
        set_chunk(monkeypatch, 5, 8 * 8, comb(10, 8))  # diameters: s * s
        assert np.array_equal(md.aggregate(received), md_reference)

    @pytest.mark.parametrize(
        "rule, methods",
        [
            pytest.param(
                HyperboxMean(n=10, t=2),
                ("aggregate_hyperbox", "decision_hyperbox"),
                id="box-mean",
            ),
            *[
                pytest.param(
                    cls(n=10, t=2, tie_break=tie_break),
                    ("minimum_diameter_set",),
                    id=f"{cls.name}-{tie_break}",
                )
                for cls in (MinimumDiameterMean, MinimumDiameterGeometricMedian)
                for tie_break in ("first", "adversarial")
            ],
        ],
    )
    def test_aggregate_hyperbox_rejects_mismatched_context(self, rng, rule, methods):
        # A context is a cache over one stack; handing a rule another
        # stack's context must fail instead of reading indices past the end.
        received = self._received(rng)
        other = rng.normal(size=(6, 4))
        for method in ("aggregate",) + methods:
            with pytest.raises(ValueError, match="context wraps a"):
                getattr(rule, method)(other, context=AggregationContext(received))

    def test_sampled_family_respects_row_contract(self, rng):
        received = self._received(rng)
        family = subset_family(received, 8, max_subsets=5, rng=rng)
        assert 5 <= family.shape[0] <= 7
