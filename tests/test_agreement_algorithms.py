"""Behavioural tests of the concrete agreement algorithms.

These tests check the paper's qualitative claims:

- BOX-GEOM / BOX-MEAN converge (honest diameter contracts) even under
  split-brain adversaries (Theorem 4.4).
- MD-GEOM admits non-convergent executions under the adversarial
  tie-break (Lemma 4.2) but behaves well with a benign scheduler.
- Outputs of the BOX algorithms stay inside the honest bounding box.
- The safe-area algorithm works for small d and enforces its resilience
  condition.
"""

import numpy as np
import pytest

from repro.aggregation.registry import available_rules
from repro.agreement.base import AgreementAlgorithm, AgreementProtocol, make_algorithm
from repro.byzantine.partition import PartitionAttack
from repro.byzantine.sign_flip import SignFlipAttack


def two_pole_inputs(n_honest, d, separation, rng):
    half = n_honest // 2
    direction = np.zeros(d)
    direction[0] = 1.0
    inputs = np.vstack(
        [np.zeros((half, d)), np.tile(separation * direction, (n_honest - half, 1))]
    )
    noise = rng.normal(0.0, 1e-3, size=inputs.shape)
    return inputs + noise


class TestHyperboxAgreementConvergence:
    @pytest.mark.parametrize("name", ["box-geom", "box-mean"])
    def test_contracts_under_partition_attack(self, name, rng):
        n, t, d = 10, 2, 4
        honest_count = n - t
        algorithm = make_algorithm(name, n, t)
        group_a = list(range(honest_count // 2))
        group_b = list(range(honest_count // 2, honest_count))
        attack = PartitionAttack(group_a=group_a, group_b=group_b)
        protocol = AgreementProtocol(algorithm, byzantine=(8, 9), attack=attack, seed=1)
        inputs = two_pole_inputs(honest_count, d, separation=8.0, rng=rng)
        result = protocol.run(inputs, rounds=10)
        diameters = result.diameter_trace()
        # Theorem 4.4: E_max at least halves per round, so after 10 rounds
        # the diameter must have contracted by orders of magnitude.
        assert diameters[-1] < diameters[0] * 1e-2
        assert result.converged(epsilon=diameters[0] * 0.05)

    def test_outputs_stay_in_honest_box(self, rng):
        n, t, d = 10, 1, 5
        algorithm = make_algorithm("box-geom", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(9,), attack=SignFlipAttack(scale=50.0), seed=0)
        inputs = rng.normal(size=(n - 1, d))
        result = protocol.run(inputs, rounds=5)
        for round_idx in range(result.rounds):
            mat = result.honest_matrix(round_idx)
            assert np.all(mat >= inputs.min(axis=0) - 1e-9)
            assert np.all(mat <= inputs.max(axis=0) + 1e-9)

    def test_validity_identical_inputs_unchanged(self):
        n, t = 6, 1
        algorithm = make_algorithm("box-geom", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(5,), attack=SignFlipAttack(), seed=0)
        inputs = np.tile([2.0, -1.0, 0.5], (n - 1, 1))
        result = protocol.run(inputs, rounds=3)
        np.testing.assert_allclose(result.final_matrix(), inputs, atol=1e-9)


class TestMinimumDiameterAgreement:
    def test_adversarial_tie_break_non_convergence(self):
        from repro.theory.counterexamples import md_geom_non_convergence_instance

        report = md_geom_non_convergence_instance(rounds=6)
        assert report["converged"] is False
        assert report["final_diameter"] == pytest.approx(report["initial_diameter"], rel=1e-4)

    def test_benign_tie_break_converges_on_same_instance(self):
        from repro.theory.counterexamples import md_geom_non_convergence_instance

        report = md_geom_non_convergence_instance(rounds=6, tie_break="first")
        assert report["converged"] is True

    def test_md_mean_converges_under_sign_flip(self, rng):
        n, t, d = 10, 1, 4
        algorithm = make_algorithm("md-mean", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(9,), attack=SignFlipAttack(), seed=0)
        inputs = rng.normal(size=(n - 1, d))
        result = protocol.run(inputs, rounds=4)
        assert result.converged(1e-6)


class TestOtherAgreements:
    def test_trimmed_mean_converges(self, rng):
        n, t, d = 7, 2, 3
        algorithm = make_algorithm("trimmed-mean", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(5, 6), attack=SignFlipAttack(), seed=0)
        inputs = rng.normal(size=(n - 2, d))
        result = protocol.run(inputs, rounds=4)
        assert result.converged(1e-9)

    def test_simple_mean_and_geomedian_names(self):
        assert make_algorithm("mean", 6, 1).name == "mean"
        assert make_algorithm("geomedian", 6, 1).name == "geomedian"

    def test_safe_area_low_dimension(self, rng):
        n, t, d = 8, 1, 2
        algorithm = make_algorithm("safe-area", n, t)
        received = rng.normal(size=(n, d))
        out = algorithm.update(received)
        assert out.shape == (d,)

    def test_safe_area_rejects_high_dimension(self, rng):
        n, t, d = 8, 1, 10
        received = rng.normal(size=(n, d))
        algorithm = make_algorithm("safe-area", n, t)
        with pytest.raises(ValueError, match="t < n/max"):
            algorithm.update(received)
        # The centralized one-shot rule fails the same way.
        with pytest.raises(ValueError, match="t < n/max"):
            algorithm.rule.aggregate(received)

    def test_safe_area_quorum(self, rng):
        algorithm = make_algorithm("safe-area", 9, 1)
        with pytest.raises(ValueError):
            algorithm.update(rng.normal(size=(3, 2)))


class TestAgreementRegistry:
    def test_paper_algorithms_available(self):
        expected = {"box-geom", "box-mean", "md-geom", "md-mean", "trimmed-mean",
                    "safe-area", "mean", "geomedian"}
        assert expected.issubset(set(available_rules()))

    def test_make_algorithm(self):
        algo = make_algorithm("box-geom", 10, 1)
        assert isinstance(algo, AgreementAlgorithm)
        assert algo.name == "box-geom"
        assert algo.n == 10 and algo.t == 1
        assert algo.rule.n == 10 and algo.rule.t == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_algorithm("nope", 10, 1)

    def test_kwargs_forwarded(self):
        algo = make_algorithm("md-geom", 10, 1, tie_break="adversarial")
        assert algo.rule.tie_break == "adversarial"

    def test_all_registered_update_works(self, rng):
        received = rng.normal(size=(10, 3))
        for name in available_rules():
            algo = make_algorithm(name, 10, 1)
            out = algo.update(received)
            assert out.shape == (3,)
            assert np.all(np.isfinite(out))
