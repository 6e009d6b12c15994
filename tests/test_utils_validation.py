"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ensure_matrix,
    require,
    validate_byzantine_bound,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")


class TestEnsureMatrix:
    def test_list_of_vectors(self):
        out = ensure_matrix([[1, 2], [3, 4], [5, 6]])
        assert out.shape == (3, 2)

    def test_single_vector_becomes_row(self):
        assert ensure_matrix(np.array([1.0, 2.0, 3.0])).shape == (1, 3)

    def test_min_rows_enforced(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.zeros((2, 3)), min_rows=3)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            ensure_matrix([])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.zeros((2, 2, 2)))

    def test_nan_rejected_by_default(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.array([[np.nan, 1.0]]))

    def test_nan_allowed_when_requested(self):
        out = ensure_matrix(np.array([[np.nan, 1.0]]), allow_non_finite=True)
        assert np.isnan(out[0, 0])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.zeros((3, 0)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(Exception):
            ensure_matrix([[1.0, 2.0], [1.0]])


class TestValidateByzantineBound:
    def test_valid(self):
        validate_byzantine_bound(10, 3)

    def test_boundary_rejected(self):
        # t = n/3 exactly violates the strict inequality.
        with pytest.raises(ValueError):
            validate_byzantine_bound(9, 3)

    def test_zero_t_always_valid(self):
        validate_byzantine_bound(1, 0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            validate_byzantine_bound(10, -1)

    def test_non_positive_n_rejected(self):
        with pytest.raises(ValueError):
            validate_byzantine_bound(0, 0)
