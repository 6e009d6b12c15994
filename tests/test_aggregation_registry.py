"""Tests for the aggregation rule registry."""

import numpy as np
import pytest

from repro.aggregation.registry import available_rules, make_rule


EXPECTED_RULES = {
    "mean",
    "cw-median",
    "trimmed-mean",
    "geomedian",
    "medoid",
    "krum",
    "multi-krum",
    "md-mean",
    "md-geom",
    "box-mean",
    "box-geom",
    "safe-area",
}


class TestRegistry:
    def test_all_paper_rules_registered(self):
        assert EXPECTED_RULES.issubset(set(available_rules()))

    def test_make_rule_instances(self, gaussian_cloud):
        for name in EXPECTED_RULES:
            rule = make_rule(name, n=10, t=1)
            out = rule.aggregate(gaussian_cloud)
            assert out.shape == (gaussian_cloud.shape[1],)
            assert np.all(np.isfinite(out))

    def test_unknown_rule(self):
        with pytest.raises(KeyError):
            make_rule("does-not-exist", n=10, t=1)

    def test_kwargs_forwarded(self, gaussian_cloud):
        rule = make_rule("multi-krum", n=10, t=1, q=5)
        assert rule.q == 5

    def test_case_insensitive(self):
        rule = make_rule("Box-Geom", n=10, t=1)
        assert rule.name == "box-geom"

    @pytest.mark.parametrize("name", ["geomedian", "md-geom", "box-geom"])
    @pytest.mark.parametrize("key, value", [("tol", 0), ("tol", -1), ("max_iter", 0)])
    def test_bad_solver_settings_fail_at_construction(self, name, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            make_rule(name, n=7, t=1, **{key: value})
