"""Tests for the executable Section 4 constructions (theory package)."""

import pytest

from repro.theory.bounds import (
    hyperbox_approximation_ratio_experiment,
    hyperbox_contraction_experiment,
)
from repro.theory.counterexamples import (
    krum_unbounded_instance,
    md_geom_non_convergence_instance,
    safe_area_unbounded_instance,
)


class TestSafeAreaCounterexample:
    def test_ratio_is_huge(self):
        report = safe_area_unbounded_instance()
        assert report.measured_ratio > 100.0

    def test_ratio_grows_as_epsilon_shrinks(self):
        loose = safe_area_unbounded_instance(epsilon=1e-2)
        tight = safe_area_unbounded_instance(epsilon=1e-4)
        assert tight.measured_ratio > loose.measured_ratio

    def test_distance_to_true_median_is_x(self):
        report = safe_area_unbounded_instance(x=7.0)
        assert report.details["distance_to_true_median"] == pytest.approx(7.0, rel=0.05)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            safe_area_unbounded_instance(d=2)


class TestKrumCounterexample:
    def test_ratio_infinite(self):
        report = krum_unbounded_instance()
        assert report.measured_ratio == float("inf")

    def test_krum_output_differs_from_median(self):
        report = krum_unbounded_instance()
        assert report.details["distance_to_true_median"] > 0.0

    def test_different_seeds_still_unbounded(self):
        for seed in (1, 2, 3):
            assert krum_unbounded_instance(seed=seed).measured_ratio == float("inf")


class TestMdGeomNonConvergence:
    def test_adversarial_execution_does_not_converge(self):
        report = md_geom_non_convergence_instance(rounds=5)
        assert report["converged"] is False
        diameters = report["diameters"]
        # The Weiszfeld tolerance introduces a tiny per-round drift; the
        # diameter must stay at the initial separation up to that drift.
        assert diameters[-1] == pytest.approx(diameters[0], rel=1e-4)

    def test_diameter_constant_every_round(self):
        report = md_geom_non_convergence_instance(rounds=4)
        diameters = report["diameters"]
        assert max(diameters) - min(diameters) < 1e-4 * max(diameters)

    def test_benign_scheduler_converges(self):
        report = md_geom_non_convergence_instance(rounds=4, tie_break="first")
        assert report["converged"] is True

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            md_geom_non_convergence_instance(n=9, t=2)  # odd honest count
        with pytest.raises(ValueError):
            md_geom_non_convergence_instance(n=6, t=2)  # violates t < n/3


class TestHyperboxBounds:
    def test_ratio_within_2_sqrt_d(self):
        result = hyperbox_approximation_ratio_experiment(trials=10, d=5)
        assert result.within_bound
        assert result.max_ratio <= result.bound

    def test_bound_value(self):
        result = hyperbox_approximation_ratio_experiment(trials=2, d=9)
        assert result.bound == pytest.approx(6.0)

    def test_contraction_converges_under_sign_flip(self):
        report = hyperbox_contraction_experiment(rounds=6)
        assert report["converged"]
        assert report["diameters"][-1] < report["diameters"][0]

    def test_contraction_converges_under_partition_attack(self):
        from repro.byzantine.partition import PartitionAttack

        attack = PartitionAttack(group_a=[0, 1, 2, 3], group_b=[4, 5, 6, 7, 8])
        report = hyperbox_contraction_experiment(rounds=8, attack=attack)
        assert report["converged"]
        # Per-round contraction should eventually be at most ~1/2 + slack.
        late_factors = report["contraction_factors"][1:]
        assert all(f <= 0.75 + 1e-9 for f in late_factors if f > 0)
