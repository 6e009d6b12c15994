#!/usr/bin/env python
"""Quickstart: robust aggregation and approximate agreement in 60 seconds.

This example walks through the library bottom-up:

1. aggregate a batch of gradient-like vectors (one of which is
   Byzantine) with the paper's BOX-GEOM rule and with the baselines, and
   compare how far each aggregate lands from the honest geometric median;
2. run the multi-round BOX-GEOM agreement protocol against a sign-flip
   attacker and watch the honest nodes' disagreement shrink every round;
3. measure the approximation ratio of Definition 3.3 and check it
   against the paper's 2*sqrt(d) bound (Theorem 4.4).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.aggregation import make_rule
from repro.agreement import AgreementProtocol, make_algorithm
from repro.agreement.metrics import approximation_ratio, true_geometric_median
from repro.byzantine import SignFlipAttack


def main() -> None:
    rng = np.random.default_rng(0)
    n, t, d = 10, 1, 8

    # --- 1. one-shot robust aggregation --------------------------------------
    honest = rng.normal(loc=1.0, scale=0.5, size=(n - t, d))      # honest gradients
    byzantine = -10.0 * honest.mean(axis=0, keepdims=True)        # a sign-flip-style outlier
    received = np.vstack([honest, byzantine])
    mu_star = true_geometric_median(honest)

    print("One-shot aggregation of 9 honest + 1 Byzantine gradient")
    print(f"{'rule':<12s} {'dist to honest geo-median':>26s}")
    for name in ("mean", "geomedian", "krum", "multi-krum", "md-geom", "box-mean", "box-geom"):
        rule = make_rule(name, n=n, t=t)
        aggregate = rule.aggregate(received)
        print(f"{name:<12s} {np.linalg.norm(aggregate - mu_star):26.4f}")

    # --- 2. multi-round approximate agreement --------------------------------
    print("\nMulti-round BOX-GEOM agreement under a sign-flip attacker")
    algorithm = make_algorithm("box-geom", n, t)
    protocol = AgreementProtocol(algorithm, byzantine=(n - 1,), attack=SignFlipAttack(), seed=0)
    inputs = rng.normal(size=(n - t, d))
    result = protocol.run(inputs, rounds=6)
    for round_index, diameter in enumerate(result.diameter_trace()):
        print(f"  after round {round_index}: honest disagreement = {diameter:.3e}")

    # --- 3. approximation ratio vs the theoretical bound ---------------------
    rule = make_rule("box-geom", n=n, t=t)
    ratio = approximation_ratio(rule.aggregate(received), honest, received, n, t)
    print(f"\nBOX-GEOM approximation ratio: {ratio:.3f}  (Theorem 4.4 bound: {2 * np.sqrt(d):.3f})")


if __name__ == "__main__":
    main()
