"""Exact row dedup in the subset kernels.

A subset kernel given a :class:`~repro.linalg.sparsity.SparsityProfile`
computes each pattern of byte-identical rows once and scatters the
result back; with no profile it runs dense.  The two must be bitwise
equal, because the representative subset gathers the very same bytes.
:class:`~repro.aggregation.context.AggregationContext` always dedups.

Checked here directly on the kernels and across every registry rule, on
seeded structured stacks shaped like attack rounds (a byte-identical
Byzantine clique, inactive all-zero coordinates) and as a hypothesis
property.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.context import AggregationContext
from repro.aggregation.hyperbox_rules import HyperboxGeometricMedian
from repro.aggregation.registry import available_rules, make_rule
from repro.linalg.backends import KernelBackend
from repro.linalg.distances import pairwise_distances
from repro.linalg.sparsity import SparsityProfile, dedup_subsets, detect_structure
from repro.linalg.subset_kernels import (
    subset_diameters,
    subset_geometric_medians,
    subset_index_matrix,
    subset_means,
)
from repro.linalg.subsets import subset_family

N, T = 10, 2
# Safe-area needs t < n / max(3, d + 1), so it raises at these d > n
# (Theorem 4.1); it reads no subset kernel, so it has nothing to dedup.
RULES = [name for name in available_rules() if name != "safe-area"]


def structured_stack(seed: int, *, n: int = N, t: int = T, d: int = 24,
                     zero_fraction: float = 0.5) -> np.ndarray:
    """Honest cluster + byte-identical sign-flip clique + zero columns."""
    rng = np.random.default_rng(seed)
    active = max(1, int(round(d * (1.0 - zero_fraction))))
    mat = np.zeros((n, d), dtype=np.float64)
    mat[: n - t, :active] = rng.normal(0.0, 1.0, size=(n - t, active))
    mat[n - t:, :active] = np.tile(-4.0 * mat[:1, :active], (t, 1))
    return mat


def assert_kernels_dedup_exactly(mat: np.ndarray, n: int, t: int) -> None:
    """Every subset kernel: profile-driven dedup ≡ dense, bitwise."""
    prof = detect_structure(mat)
    indices = subset_index_matrix(n, n - t)
    dist = pairwise_distances(mat)
    kernels = {
        "diameters": lambda p: subset_diameters(dist, indices, profile=p),
        "means": lambda p: subset_means(mat, indices, profile=p),
        "medians": lambda p: subset_geometric_medians(mat, indices, dist=dist, profile=p),
    }
    for name, kernel in kernels.items():
        assert np.array_equal(kernel(None), kernel(prof)), name


def count_weiszfeld_sets(monkeypatch) -> list:
    """Record the number of point sets of every ``weiszfeld_loop`` call."""
    sets = []
    loop = KernelBackend.weiszfeld_loop

    def counting_loop(self, pts, *args, **kwargs):
        sets.append(pts.shape[0])
        return loop(self, pts, *args, **kwargs)

    monkeypatch.setattr(KernelBackend, "weiszfeld_loop", counting_loop)
    return sets


def dense_aggregate(rule_factory, stack, monkeypatch) -> np.ndarray:
    """A fresh rule's output with every subset kernel run dense."""
    with monkeypatch.context() as patch:
        # Test seam: a context without a profile runs every kernel dense.
        patch.setattr(AggregationContext, "profile", None)
        return rule_factory().aggregate(context=AggregationContext(stack))


# -- sparsity module ----------------------------------------------------------
class TestSparsityModule:
    @pytest.mark.parametrize("seed", range(5))
    def test_detect_structure_properties(self, seed):
        mat = structured_stack(seed)
        prof = detect_structure(mat)
        assert isinstance(prof, SparsityProfile)
        # t byzantine duplicates of each other (not of row 0: scaled).
        assert prof.num_unique_rows == N - T + 1
        assert prof.has_duplicate_rows
        # row_group_ids maps each row to the first byte-identical row.
        for i, g in enumerate(prof.row_group_ids):
            assert mat[i].tobytes() == mat[g].tobytes()
            assert g <= i

    def test_minus_zero_rows_stay_apart(self):
        mat = np.zeros((4, 8))
        mat[:, :2] = 1.0
        mat[1, 5] = -0.0  # sign bit set: row 1 is not row 0's duplicate
        prof = detect_structure(mat)
        assert prof.row_group_ids.tolist() == [0, 1, 0, 0]
        assert prof.num_unique_rows == 2

    def test_dense_matrix_has_no_structure(self):
        rng = np.random.default_rng(0)
        prof = detect_structure(rng.normal(size=(6, 9)))
        assert not prof.has_duplicate_rows
        indices = subset_index_matrix(6, 4)
        assert dedup_subsets(indices, prof) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_dedup_subsets_cover_and_scatter(self, seed):
        mat = structured_stack(seed)
        prof = detect_structure(mat)
        indices = subset_index_matrix(N, N - T)
        plan = dedup_subsets(indices, prof)
        assert plan is not None
        reps, inverse = plan
        assert reps.shape[1] == indices.shape[1]
        assert inverse.shape == (indices.shape[0],)
        assert reps.shape[0] < indices.shape[0]
        # Scattering representative rows reproduces each subset's
        # pattern: gathered matrices are byte-identical.
        for i in range(indices.shape[0]):
            a = mat[indices[i]]
            b = mat[reps[inverse[i]]]
            assert a.tobytes() == b.tobytes()


# -- kernel-level equivalence -------------------------------------------------
class TestKernelDedupEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_subset_kernels_bitwise(self, seed):
        assert_kernels_dedup_exactly(structured_stack(seed), N, T)


# -- rule-level equivalence across the whole registry -------------------------
@pytest.mark.parametrize("rule_name", RULES)
def test_rule_with_and_without_profile_bitwise(rule_name, monkeypatch):
    stacks = [structured_stack(seed) for seed in range(3)] + [
        np.random.default_rng(9).normal(size=(N, 16))  # dense, unstructured
    ]
    for stack in stacks:
        deduped = make_rule(rule_name, n=N, t=T).aggregate(
            context=AggregationContext(stack)
        )
        dense = dense_aggregate(lambda: make_rule(rule_name, n=N, t=T), stack, monkeypatch)
        assert np.array_equal(dense, deduped), rule_name


# -- the default context ------------------------------------------------------
class TestDefaultContext:
    def test_dedup_sends_fewer_sets_to_weiszfeld(self, monkeypatch):
        mat = structured_stack(0)
        dense = dense_aggregate(lambda: HyperboxGeometricMedian(n=N, t=T), mat, monkeypatch)
        sets = count_weiszfeld_sets(monkeypatch)
        deduped = HyperboxGeometricMedian(n=N, t=T).aggregate(
            context=AggregationContext(mat)
        )
        assert 0 < sum(sets) < comb(N, N - T)
        assert np.array_equal(deduped, dense)

    def test_capped_box_family_dedups(self, monkeypatch):
        mat = structured_stack(0)
        cap = 20
        assert cap < comb(N, N - T)

        def rule():
            return HyperboxGeometricMedian(
                n=N, t=T, max_subsets=cap, rng=np.random.default_rng(4)
            )

        family = subset_family(mat, N - T, max_subsets=cap, rng=np.random.default_rng(4))
        dense = dense_aggregate(rule, mat, monkeypatch)
        sets = count_weiszfeld_sets(monkeypatch)
        deduped = rule().aggregate(context=AggregationContext(mat))
        assert 0 < sum(sets) < family.shape[0]
        assert np.array_equal(deduped, dense)

    @pytest.mark.parametrize("rule_name", ("krum", "multi-krum"))
    def test_distance_rules_build_no_profile(self, rule_name):
        context = AggregationContext(structured_stack(1))
        make_rule(rule_name, n=N, t=T).aggregate(context=context)
        assert context._profile is None


# -- hypothesis properties ----------------------------------------------------
@st.composite
def attack_stacks(draw):
    """Random structured stacks shaped like real attack rounds.

    Byzantine rows are byte-identical duplicates (coordinated clique) of
    a scaled honest row; a random suffix of columns is exactly +0.0
    (inactive coordinates shared by every client).
    """
    n = draw(st.integers(min_value=6, max_value=10))
    t = draw(st.integers(min_value=1, max_value=(n - 1) // 3))
    d = draw(st.integers(min_value=4, max_value=24))
    active = draw(st.integers(min_value=1, max_value=d))
    scale = draw(st.floats(min_value=-8.0, max_value=8.0,
                           allow_nan=False, allow_infinity=False))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = np.zeros((n, d), dtype=np.float64)
    mat[: n - t, :active] = rng.normal(0.0, 1.0, size=(n - t, active))
    mat[n - t:, :active] = np.tile(scale * mat[:1, :active], (t, 1))
    return mat, n, t


@given(attack_stacks())
@settings(max_examples=40, deadline=None)
def test_property_dedup_is_exact(case):
    """Profile-driven dedup ≡ dense, bitwise, for every subset kernel."""
    mat, n, t = case
    assert_kernels_dedup_exactly(mat, n, t)
