"""Agreement-protocol regression tests.

Two families of guarantees the multi-round algorithms must keep:

- **contraction** — honest disagreement never grows across sub-rounds:
  the Euclidean diameter for the safe-area algorithm (whose update
  stays inside the convex hull of honest values), and the per-coordinate
  spread for the hyperbox algorithms (whose update stays inside the
  locally trusted hyperbox, itself inside the honest coordinate range).
- **Krum neighbourhood clipping** — the configurable neighbourhood is
  clipped to ``m - 1`` when fewer than ``n - t`` vectors arrive, and a
  nonsensical ``t >= n`` fails loudly instead of silently clamping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.krum import Krum, krum_scores
from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.byzantine.registry import make_attack
from repro.linalg.distances import max_coordinate_spread


def honest_inputs(seed: int, count: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 3.0, size=(count, d))


class TestDiameterContraction:
    def test_safe_area_diameter_non_increasing_under_crash(self):
        n, t, d = 7, 2, 2
        algorithm = make_algorithm("safe-area", n, t, grid_resolution=2)
        protocol = AgreementProtocol(algorithm, byzantine=(5, 6), attack=None)
        result = protocol.run(honest_inputs(0, n - t, d), rounds=4)
        trace = result.diameter_trace()
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9, f"diameter grew: {trace}"
        assert trace[-1] < trace[0]  # it actually contracts, too

    def test_safe_area_diameter_non_increasing_one_dimension(self):
        n, t, d = 7, 2, 1
        algorithm = make_algorithm("safe-area", n, t)
        protocol = AgreementProtocol(algorithm, byzantine=(6,), attack=None)
        result = protocol.run(honest_inputs(1, n - 1, d), rounds=5)
        trace = result.diameter_trace()
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9, f"diameter grew: {trace}"

    @pytest.mark.parametrize("name", ("box-mean", "box-geom"))
    def test_hyperbox_spread_non_increasing_under_sign_flip(self, name):
        """Every hyperbox update lands inside the locally trusted box,
        which lies inside the honest per-coordinate range — so the
        honest coordinate spread (``E_max``) cannot grow, even against
        the paper's sign-flip adversary."""
        n, t, d = 7, 2, 3
        algorithm = make_algorithm(name, n, t)
        protocol = AgreementProtocol(
            algorithm, byzantine=(5, 6), attack=make_attack("sign-flip"), seed=3
        )
        result = protocol.run(honest_inputs(2, n - t, d), rounds=4)
        spreads = [max_coordinate_spread(result.honest_matrix(None))]
        spreads += [
            max_coordinate_spread(result.honest_matrix(r)) for r in range(result.rounds)
        ]
        for before, after in zip(spreads, spreads[1:]):
            assert after <= before + 1e-9, f"coordinate spread grew: {spreads}"
        assert spreads[-1] < spreads[0]


class TestKrumNeighbourhoodBoundary:
    def test_invalid_tolerance_raises_like_rule_constructor(self):
        vectors = honest_inputs(3, 4, 3)
        with pytest.raises(ValueError, match="t must be smaller than n, got n=4, t=4"):
            krum_scores(vectors, n=4, t=4)
        with pytest.raises(ValueError, match="t must be smaller than n"):
            krum_scores(vectors, n=3, t=5)
        with pytest.raises(ValueError, match="n must be positive"):
            krum_scores(vectors, n=0, t=0)
        with pytest.raises(ValueError, match="t must be non-negative"):
            krum_scores(vectors, n=4, t=-1)

    def test_inferred_n_with_excessive_t_raises(self):
        # With n inferred from the received stack, t >= m is nonsensical
        # and must fail instead of clamping the neighbourhood to 1.
        vectors = honest_inputs(4, 3, 2)
        rule = Krum(n=None, t=3)
        with pytest.raises(ValueError, match="t must be smaller than n"):
            rule.aggregate(vectors)

    def test_neighbourhood_clipped_below_quorum(self):
        """m < n - t: the requested neighbourhood saturates at m - 1."""
        n, t = 10, 2
        vectors = honest_inputs(5, 6, 4)  # m = 6 < n - t = 8
        clipped = krum_scores(vectors, n, t, neighbourhood=n - t - 1)
        explicit = krum_scores(vectors, n, t, neighbourhood=vectors.shape[0] - 1)
        np.testing.assert_array_equal(clipped, explicit)
        # The default neighbourhood (n - t - 1 = 7) clips identically.
        np.testing.assert_array_equal(krum_scores(vectors, n, t), explicit)

    def test_boundary_exactly_quorum_not_clipped(self):
        """m = n - t: the default neighbourhood m - 1 fits exactly."""
        n, t = 8, 2
        vectors = honest_inputs(6, n - t, 4)  # m = 6, default k = 5 = m - 1
        default = krum_scores(vectors, n, t)
        explicit = krum_scores(vectors, n, t, neighbourhood=vectors.shape[0] - 1)
        np.testing.assert_array_equal(default, explicit)
        # One more neighbour than exists is the first clipped value.
        np.testing.assert_array_equal(
            krum_scores(vectors, n, t, neighbourhood=vectors.shape[0]), explicit
        )
        # One fewer genuinely changes the scores on generic inputs.
        tighter = krum_scores(vectors, n, t, neighbourhood=vectors.shape[0] - 2)
        assert not np.array_equal(tighter, explicit)

    def test_selection_consistent_across_boundary(self):
        n, t = 9, 2
        vectors = honest_inputs(7, 5, 3)  # m = 5 < n - t = 7
        wide = Krum(n=n, t=t, neighbourhood=n - t - 1)
        exact = Krum(n=n, t=t, neighbourhood=vectors.shape[0] - 1)
        assert wide.selected_index(vectors) == exact.selected_index(vectors)
        np.testing.assert_array_equal(wide.aggregate(vectors), exact.aggregate(vectors))
