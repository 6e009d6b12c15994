"""Property-based tests (hypothesis) for the core geometric invariants.

These cover the invariants the paper's correctness arguments rest on:

- the Weiszfeld output never leaves the bounding box of its inputs and
  (approximately) minimises the sum of distances,
- hyperbox algebra (intersection, midpoint, E_max) behaves like interval
  arithmetic in every coordinate,
- the trimmed (locally trusted) hyperbox is contained in the honest
  bounding box whenever at most ``trim`` Byzantine values are present
  per coordinate,
- the minimum covering ball covers its points,
- the BOX-GEOM output always lies in the trusted hyperbox,
- trimmed mean stays within the trimmed per-coordinate range.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian
from repro.aggregation.mean import TrimmedMean
from repro.linalg.covering_ball import minimum_covering_ball
from repro.linalg.distances import diameter
from repro.linalg.geometric_median import geometric_median, geometric_median_cost
from repro.linalg.hyperbox import bounding_hyperbox, trimmed_hyperbox

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def matrices(min_rows=2, max_rows=12, min_cols=1, max_cols=6):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


class TestGeometricMedianProperties:
    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_output_in_bounding_box(self, mat):
        med = geometric_median(mat)
        assert np.all(med >= mat.min(axis=0) - 1e-6)
        assert np.all(med <= mat.max(axis=0) + 1e-6)

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_cost_not_worse_than_mean_or_inputs(self, mat):
        med = geometric_median(mat, tol=1e-10, max_iter=500)
        cost = geometric_median_cost(mat, med)
        assert cost <= geometric_median_cost(mat, mat.mean(axis=0)) + 1e-6
        for row in mat:
            assert cost <= geometric_median_cost(mat, row) + 1e-6

    @given(matrices(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, mat, scale):
        a = geometric_median(mat, tol=1e-10, max_iter=500)
        b = geometric_median(scale * mat, tol=1e-10, max_iter=500)
        tol = 1e-4 * max(1.0, float(np.abs(mat).max())) * scale
        assert np.linalg.norm(b - scale * a) <= tol + 1e-6


class TestHyperboxProperties:
    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_bounding_box_contains_points_and_midpoint(self, mat):
        box = bounding_hyperbox(mat)
        assert all(box.contains(row) for row in mat)
        assert box.contains(box.midpoint())

    @given(matrices(min_rows=5))
    @settings(max_examples=40, deadline=None)
    def test_trimmed_box_contained_in_bounding_box(self, mat):
        trim = (mat.shape[0] - 1) // 2
        box = trimmed_hyperbox(mat, trim)
        assert bounding_hyperbox(mat).contains_box(box)

    @given(matrices(), matrices())
    @settings(max_examples=40, deadline=None)
    def test_intersection_contained_in_both(self, a, b):
        if a.shape[1] != b.shape[1]:
            a = a[:, : min(a.shape[1], b.shape[1])]
            b = b[:, : min(a.shape[1], b.shape[1])]
        box_a, box_b = bounding_hyperbox(a), bounding_hyperbox(b)
        inter = box_a.intersect(box_b)
        if not inter.is_empty:
            assert box_a.contains_box(inter)
            assert box_b.contains_box(inter)
            assert box_a.contains(inter.midpoint()) and box_b.contains(inter.midpoint())

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_emax_at_most_diameter(self, mat):
        box = bounding_hyperbox(mat)
        assert box.max_edge_length() <= diameter(mat) + 1e-9


class TestCoveringBallProperties:
    @given(matrices(max_rows=20, max_cols=4))
    @settings(max_examples=30, deadline=None)
    def test_ball_covers_and_radius_reasonable(self, mat):
        ball = minimum_covering_ball(mat)
        assert ball.contains_all(mat)
        diam = diameter(mat)
        assert ball.radius <= diam + 1e-7
        assert ball.radius >= diam / 2.0 - 1e-7


class TestAggregationProperties:
    @given(matrices(min_rows=4, max_rows=10, max_cols=4))
    @settings(max_examples=25, deadline=None)
    def test_box_geom_output_in_trusted_hyperbox(self, mat):
        n = mat.shape[0]
        t = max(1, (n - 1) // 3)
        if t * 3 >= n:
            return
        rule = HyperboxGeometricMedian(n=n, t=t)
        out = rule.aggregate(mat)
        assert rule.trusted_hyperbox(mat).contains(out, atol=1e-7)

    @given(matrices(min_rows=5, max_rows=12, max_cols=4))
    @settings(max_examples=25, deadline=None)
    def test_trimmed_mean_within_trimmed_range(self, mat):
        m = mat.shape[0]
        trim = (m - 1) // 3
        rule = TrimmedMean(trim=trim)
        out = rule.aggregate(mat)
        ordered = np.sort(mat, axis=0)
        assert np.all(out >= ordered[trim] - 1e-9)
        assert np.all(out <= ordered[m - trim - 1] + 1e-9)

    @given(matrices(min_rows=4, max_rows=9, max_cols=3))
    @settings(max_examples=25, deadline=None)
    def test_aggregation_permutation_invariance(self, mat):
        rng = np.random.default_rng(0)
        perm = rng.permutation(mat.shape[0])
        n, t = mat.shape[0], max(1, (mat.shape[0] - 1) // 3)
        if t * 3 >= n:
            return
        rule = HyperboxGeometricMedian(n=n, t=t)
        np.testing.assert_allclose(rule.aggregate(mat), rule.aggregate(mat[perm]), atol=1e-7)


class TestCellIdProperties:
    """ScenarioGrid.cells() never yields duplicate or ambiguous ids."""

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs",), min_codepoint=32
                ),
                min_size=0,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_values_yield_distinct_parseable_ids(self, notes):
        from repro.learning.experiment import ExperimentConfig
        from repro.sweep import ScenarioGrid
        from repro.sweep.grid import parse_cell_id

        base = ExperimentConfig(
            attack=None, num_byzantine=0, num_clients=4, rounds=1,
            num_samples=40, batch_size=8, mlp_hidden=(8, 4), seed=5,
        )
        # attack_kwargs accepts arbitrary payloads, so any unicode text
        # can ride into the cell id through its rendering.
        grid = ScenarioGrid(
            base, {"attack_kwargs": [{"note": note} for note in notes]}
        )
        cells = grid.cells()
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids) == len(notes)
        for cell in cells:
            parsed = parse_cell_id(cell.cell_id)
            assert list(parsed) == ["attack_kwargs"]
            assert parsed["attack_kwargs"] == str(cell.axes["attack_kwargs"])
