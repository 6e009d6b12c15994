"""Tests for the agreement protocol runner and result bookkeeping."""

import numpy as np
import pytest

from repro.agreement.base import (
    AgreementAlgorithm,
    AgreementProtocol,
    AgreementResult,
    make_algorithm,
)
from repro.aggregation.hyperbox_rules import HyperboxMean
from repro.aggregation.mean import Mean
from repro.byzantine.base import GradientAttack
from repro.byzantine.crash import CrashAttack
from repro.byzantine.sign_flip import SignFlipAttack


class RewriteHonestAttack(GradientAttack):
    """Tries to overwrite the first honest broadcast, then sends zeros."""

    name = "rewrite-honest"

    def corrupt(self, context):
        try:
            context.honest_vectors[min(context.honest_vectors)][:] = 1e6
        except ValueError:
            pass  # the honest vectors are read-only
        return np.zeros(context.dimension)


class TestAgreementResult:
    def test_final_vectors_without_rounds(self):
        initial = {0: np.zeros(2), 1: np.ones(2)}
        result = AgreementResult(initial=initial, honest_ids=(0, 1))
        assert result.rounds == 0
        np.testing.assert_allclose(result.final_matrix(), [[0.0, 0.0], [1.0, 1.0]])

    def test_diameter_trace_starts_at_inputs(self):
        initial = {0: np.zeros(2), 1: np.array([3.0, 4.0])}
        result = AgreementResult(initial=initial, honest_ids=(0, 1))
        assert result.diameter_trace() == [pytest.approx(5.0)]

    def test_converged_epsilon(self):
        initial = {0: np.zeros(1), 1: np.array([0.5])}
        result = AgreementResult(initial=initial, honest_ids=(0, 1))
        assert result.converged(1.0)
        assert not result.converged(0.1)


class TestAggregationAgreement:
    """An agreement algorithm built from one aggregation rule."""

    def test_wraps_rule(self, gaussian_cloud):
        rule = Mean()
        agreement = AgreementAlgorithm(10, 1, rule)
        assert (rule.n, rule.t, agreement.name) == (10, 1, "mean")
        out = agreement.update(gaussian_cloud)
        np.testing.assert_allclose(out, gaussian_cloud.mean(axis=0))

    def test_quorum_enforced(self):
        agreement = AgreementAlgorithm(10, 2, Mean())
        with pytest.raises(ValueError):
            agreement.update(np.zeros((5, 3)))

    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError):
            make_algorithm("box-geom", 9, 3)

    def test_minimum_messages(self):
        assert make_algorithm("box-geom", 10, 3).minimum_messages() == 7

    def test_rule_for_a_different_n_rejected(self):
        with pytest.raises(ValueError, match="n=7"):
            AgreementAlgorithm(10, 1, HyperboxMean(n=7, t=1))


class TestAgreementProtocol:
    def test_attack_cannot_rewrite_honest_broadcasts(self):
        protocol = AgreementProtocol(
            make_algorithm("mean", 4, 1), byzantine=[3], attack=RewriteHonestAttack()
        )
        inputs = {0: np.array([0.0]), 1: np.array([1.0]), 2: np.array([2.0])}
        result = protocol.run(inputs, rounds=1)
        # mean of the honest 0, 1, 2 and the Byzantine 0
        for node in (0, 1, 2):
            np.testing.assert_array_equal(result.per_round[0][node], [0.75])

    def test_no_byzantine_converges_immediately(self, rng):
        algorithm = make_algorithm("box-mean", 6, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(), attack=None)
        inputs = rng.normal(size=(6, 3))
        result = protocol.run(inputs, rounds=2)
        # All nodes see the same messages, so they agree exactly after one round.
        assert result.diameter_trace()[1] == pytest.approx(0.0, abs=1e-12)

    def test_crash_attack_tolerated(self, rng):
        n, t = 7, 2
        algorithm = make_algorithm("box-geom", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(5, 6), attack=CrashAttack())
        inputs = rng.normal(size=(n - 2, 4))
        result = protocol.run(inputs, rounds=3)
        assert result.converged(1e-6)

    def test_sign_flip_attack_converges_and_stays_in_honest_box(self, rng):
        n, t = 10, 1
        algorithm = make_algorithm("box-geom", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(9,), attack=SignFlipAttack())
        inputs = rng.normal(size=(n - 1, 5))
        result = protocol.run(inputs, rounds=4)
        assert result.converged(1e-6)
        final = result.final_matrix()
        assert np.all(final >= inputs.min(axis=0) - 1e-9)
        assert np.all(final <= inputs.max(axis=0) + 1e-9)

    def test_too_many_byzantine_rejected(self):
        algorithm = make_algorithm("box-mean", 10, 1)
        with pytest.raises(ValueError):
            AgreementProtocol(algorithm, byzantine=(8, 9), attack=SignFlipAttack())

    def test_byzantine_id_out_of_range(self):
        algorithm = make_algorithm("box-mean", 10, 2)
        with pytest.raises(ValueError):
            AgreementProtocol(algorithm, byzantine=(10,), attack=None)

    def test_dict_inputs(self, rng):
        algorithm = make_algorithm("trimmed-mean", 5, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(4,), attack=CrashAttack())
        inputs = {i: rng.normal(size=3) for i in range(4)}
        result = protocol.run(inputs, rounds=2)
        assert set(result.final_vectors()) == {0, 1, 2, 3}

    def test_missing_dict_input_rejected(self, rng):
        algorithm = make_algorithm("trimmed-mean", 5, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(4,), attack=None)
        with pytest.raises(ValueError):
            protocol.run({0: np.zeros(2)}, rounds=1)

    def test_matrix_input_row_count_mismatch(self, rng):
        algorithm = make_algorithm("trimmed-mean", 5, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(4,), attack=None)
        with pytest.raises(ValueError):
            protocol.run(rng.normal(size=(5, 2)), rounds=1)

    def test_zero_rounds_returns_inputs(self, rng):
        algorithm = make_algorithm("trimmed-mean", 4, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(), attack=None)
        inputs = rng.normal(size=(4, 2))
        result = protocol.run(inputs, rounds=0)
        np.testing.assert_allclose(result.final_matrix(), inputs)

    def test_negative_rounds_rejected(self, rng):
        algorithm = make_algorithm("trimmed-mean", 4, 1)
        protocol = AgreementProtocol(algorithm, byzantine=(), attack=None)
        with pytest.raises(ValueError):
            protocol.run(rng.normal(size=(4, 2)), rounds=-1)
