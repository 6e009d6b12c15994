"""Property-based tests for the aggregation rules.

Hypothesis-style properties checked over many seeded random instances
(deterministic generation, so failures are reproducible by seed):

- **permutation invariance** — shuffling the received vectors must not
  change any rule's aggregate,
- **translation equivariance** — shifting every input by a constant
  vector shifts the mean / geometric-median / hyperbox aggregates by
  exactly that vector,
- **shared-context equality** — aggregating through a shared
  :class:`~repro.aggregation.context.AggregationContext` is bitwise
  identical to the uncached per-rule path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation import aggregate_all, make_rule
from repro.aggregation.context import (
    AggregationContext,
    cache_stats,
    reset_cache_stats,
)

#: Rules whose aggregate is a unique function of the input *set* on
#: generic-position inputs (no tie-breaking involved).  The MD rules are
#: excluded: their minimum-diameter subset is frequently tied, the tie
#: is broken by index order, and index order is exactly what a
#: permutation changes — they get the tie-aware property below instead.
PERMUTATION_INVARIANT_RULES = (
    "mean",
    "cw-median",
    "trimmed-mean",
    "geomedian",
    "medoid",
    "krum",
    "multi-krum",
    "box-mean",
    "box-geom",
)

#: Rules whose aggregate must shift exactly with a constant translation.
TRANSLATION_EQUIVARIANT_RULES = (
    "mean",
    "geomedian",
    "md-mean",
    "md-geom",
    "box-mean",
    "box-geom",
)

#: Rules that consume the shared pairwise-distance matrix.
DISTANCE_RULES = ("krum", "multi-krum", "medoid", "md-mean", "md-geom")

N, T = 8, 2
TRIALS = 10


def random_stack(seed: int, *, m: int = N, d: int = 5) -> np.ndarray:
    """A generic-position random stack (no ties, so argmin picks are stable)."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 2.0, size=(m, d))


@pytest.mark.parametrize("rule_name", PERMUTATION_INVARIANT_RULES)
def test_permutation_invariance(rule_name):
    for trial in range(TRIALS):
        vectors = random_stack(100 + trial)
        rng = np.random.default_rng(500 + trial)
        perm = rng.permutation(vectors.shape[0])
        rule = make_rule(rule_name, n=N, t=T)
        base = rule.aggregate(vectors)
        permuted = rule.aggregate(vectors[perm])
        np.testing.assert_allclose(
            permuted, base, rtol=1e-9, atol=1e-9,
            err_msg=f"{rule_name} is not permutation invariant (trial {trial})",
        )


@pytest.mark.parametrize("rule_name", ("md-mean", "md-geom"))
def test_md_rules_permutation_invariant_up_to_tie_break(rule_name):
    """A permuted MD aggregate is the aggregate of *some* tied subset.

    The minimum diameter itself is permutation invariant; only the
    choice among equal-diameter subsets may follow the new index order.
    """
    from repro.linalg.subset_kernels import subsets_as_matrix
    from repro.linalg.subsets import minimum_diameter_subsets

    for trial in range(TRIALS):
        vectors = random_stack(100 + trial)
        perm = np.random.default_rng(500 + trial).permutation(vectors.shape[0])
        rule = make_rule(rule_name, n=N, t=T)
        _, base_diam = rule.minimum_diameter_set(vectors)
        _, perm_diam = rule.minimum_diameter_set(vectors[perm])
        assert perm_diam == pytest.approx(base_diam, rel=1e-12)

        tied, _ = minimum_diameter_subsets(vectors, N - T)
        candidates = rule._subset_aggregates(vectors, subsets_as_matrix(tied))
        permuted = rule.aggregate(vectors[perm])
        assert any(
            np.allclose(permuted, candidate, rtol=1e-9, atol=1e-9)
            for candidate in candidates
        ), f"{rule_name} aggregate left the tied minimum-diameter set (trial {trial})"


@pytest.mark.parametrize("rule_name", TRANSLATION_EQUIVARIANT_RULES)
def test_translation_equivariance(rule_name):
    for trial in range(TRIALS):
        vectors = random_stack(200 + trial)
        shift = np.random.default_rng(700 + trial).normal(0.0, 10.0, size=vectors.shape[1])
        rule = make_rule(rule_name, n=N, t=T)
        base = rule.aggregate(vectors)
        shifted = rule.aggregate(vectors + shift[None, :])
        np.testing.assert_allclose(
            shifted, base + shift, rtol=1e-6, atol=1e-7,
            err_msg=f"{rule_name} is not translation equivariant (trial {trial})",
        )


@pytest.mark.parametrize("rule_name", DISTANCE_RULES)
def test_shared_context_matches_uncached_bitwise(rule_name):
    for trial in range(TRIALS):
        vectors = random_stack(300 + trial)
        rule = make_rule(rule_name, n=N, t=T)
        uncached = rule.aggregate(vectors)
        cached = rule.aggregate(context=AggregationContext(vectors))
        assert np.array_equal(uncached, cached), (
            f"{rule_name} differs under a shared context (trial {trial})"
        )


def test_one_context_shared_across_rules_is_bitwise_equal():
    """One context serving Krum, Multi-Krum, medoid and the MD rules."""
    for trial in range(TRIALS):
        vectors = random_stack(400 + trial)
        rules = {name: make_rule(name, n=N, t=T) for name in DISTANCE_RULES}
        expected = {name: rule.aggregate(vectors) for name, rule in rules.items()}
        shared = aggregate_all(rules, vectors)
        assert set(shared) == set(expected)
        for name in rules:
            assert np.array_equal(shared[name], expected[name]), (
                f"{name} differs when the context is shared across rules (trial {trial})"
            )


def test_shared_context_computes_distances_once():
    vectors = random_stack(42)
    rules = {name: make_rule(name, n=N, t=T) for name in DISTANCE_RULES}
    reset_cache_stats()
    try:
        aggregate_all(rules, vectors)
        stats = cache_stats()
        assert stats["misses"] == 1  # one GEMM for the whole round
        # Every other rule reads the shared distance matrices, the MD
        # rules through their subset search.
        assert stats["hits"] >= len(rules) - 1
    finally:
        reset_cache_stats()


def test_context_distance_matrices_match_linalg_bitwise():
    from repro.linalg.distances import pairwise_distances, pairwise_sq_distances

    vectors = random_stack(7)
    context = AggregationContext(vectors)
    assert np.array_equal(context.sq_distances, pairwise_sq_distances(vectors))
    assert np.array_equal(context.distances, pairwise_distances(vectors))
    # Memoised: the same array objects are returned on re-access.
    assert context.sq_distances is context.sq_distances
    assert context.distances is context.distances
