"""SUBSET-KERNELS — batched vs. looped subset aggregation throughput.

Not a figure of the paper; the acceptance benchmark for the batched
subset-kernel layer (:mod:`repro.linalg.subset_kernels`).  For each
``(n, t, d)`` case it times the per-tuple path (one
``weiszfeld_reference`` solve, mean or diameter gather per subset)
against the batched kernels, over the exhaustive ``C(n, n - t)``
family, and checks the numerical equivalence contract along the way
(bitwise for means/diameters, Weiszfeld-tolerance for medians).
``weiszfeld_reference`` is the unbatched form of the one Weiszfeld
loop; the tests hold ``geometric_median`` to it.

The headline case — ``n=16, t=4, d=64``, 1820 subsets — must show at
least a **5x** speedup for the geometric-median aggregation; the module
asserts it.  A second case times exact row dedup on a large-d attack
stack: the batched kernels with a duplicate-row profile must be at
least **1.5x** faster than without one, and bitwise equal to them.

Running it writes a ``BENCH_subset_kernels.json`` trajectory artifact
(one row per case, so successive CI runs can be compared) either next
to the current working directory or wherever ``--output`` points:

    PYTHONPATH=src python benchmarks/bench_subset_kernels.py --smoke

or through pytest:

    pytest benchmarks/bench_subset_kernels.py -s
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from math import comb
from typing import Dict, List, Optional

import numpy as np

try:
    from _harness import build_info, print_report, scaled
except ImportError:  # pragma: no cover - direct script execution
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from _harness import build_info, print_report, scaled

from repro.linalg.distances import pairwise_distances
from repro.linalg.geometric_median import weiszfeld_reference
from repro.linalg.sparsity import dedup_subsets, detect_structure
from repro.linalg.subset_kernels import (
    subset_diameters,
    subset_geometric_medians,
    subset_index_matrix,
    subset_means,
)

#: The acceptance configuration and its required speedup.
HEADLINE = {"n": 16, "t": 4, "d": 64}
HEADLINE_MIN_SPEEDUP = 5.0

#: The row-dedup acceptance configuration: a large-d stack with a
#: coordinated sign-flip clique (byte-identical rows), where the kernels
#: given a duplicate-row profile must beat the dense kernels by 1.5x.
DEDUP = {"n": 16, "t": 4, "d": 10_000}
DEDUP_MIN_SPEEDUP = 1.5

#: Weiszfeld settings matching the BOX-GEOM rule defaults.
TOL = 1e-8
MAX_ITER = 100


def _received_stack(n: int, t: int, d: int, seed: int = 0) -> np.ndarray:
    """Honest cluster plus a shifted Byzantine cluster."""
    rng = np.random.default_rng(seed)
    honest = rng.normal(0.0, 1.0, size=(n - t, d))
    byz = rng.normal(0.0, 1.0, size=(t, d)) + 10.0
    return np.vstack([honest, byz])


def measure_case(n: int, t: int, d: int, *, seed: int = 0) -> Dict[str, object]:
    """Time looped vs. batched kernels on one exhaustive subset family."""
    size = n - t
    mat = _received_stack(n, t, d, seed)
    dist = pairwise_distances(mat)
    indices = subset_index_matrix(n, size)
    tuples = [list(row) for row in indices]

    # -- geometric medians (the expensive aggregation) -----------------------
    start = time.perf_counter()
    looped_gm = np.stack(
        [weiszfeld_reference(mat[rows], tol=TOL, max_iter=MAX_ITER) for rows in tuples]
    )
    looped_gm_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_gm = subset_geometric_medians(
        mat, indices, tol=TOL, max_iter=MAX_ITER, dist=dist
    )
    batched_gm_s = time.perf_counter() - start

    # -- means ---------------------------------------------------------------
    start = time.perf_counter()
    looped_mean = np.stack([mat[rows].mean(axis=0) for rows in tuples])
    looped_mean_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_mean = subset_means(mat, indices)
    batched_mean_s = time.perf_counter() - start

    # -- diameters -------------------------------------------------------------
    start = time.perf_counter()
    looped_diam = np.array([dist[np.ix_(rows, rows)].max() for rows in tuples])
    looped_diam_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_diam = subset_diameters(dist, indices)
    batched_diam_s = time.perf_counter() - start

    # Equivalence contract, checked on every benchmarked case.
    assert np.array_equal(batched_mean, looped_mean), "means must be bitwise equal"
    assert np.array_equal(batched_diam, looped_diam), "diameters must be bitwise equal"
    gm_max_diff = float(np.abs(batched_gm - looped_gm).max())
    assert gm_max_diff < 1e-6, f"medians diverged: {gm_max_diff}"

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else float("inf")

    return {
        "n": n,
        "t": t,
        "d": d,
        "subset_size": size,
        "subsets": comb(n, size),
        "geomedian_looped_s": looped_gm_s,
        "geomedian_batched_s": batched_gm_s,
        "geomedian_speedup": ratio(looped_gm_s, batched_gm_s),
        "geomedian_max_abs_diff": gm_max_diff,
        "means_looped_s": looped_mean_s,
        "means_batched_s": batched_mean_s,
        "means_speedup": ratio(looped_mean_s, batched_mean_s),
        "diameters_looped_s": looped_diam_s,
        "diameters_batched_s": batched_diam_s,
        "diameters_speedup": ratio(looped_diam_s, batched_diam_s),
    }


def _structured_stack(n: int, t: int, d: int, seed: int = 0) -> np.ndarray:
    """Large-d stack with the structure real attack rounds produce.

    Honest rows share an exact-zero column block (~90% of coordinates:
    gradients of a mostly-inactive layer are exactly 0.0 for every
    client computing the same architecture) and the Byzantine clique
    sends byte-identical sign-flipped copies of one honest gradient.
    """
    rng = np.random.default_rng(seed)
    active = max(1, d // 10)
    mat = np.zeros((n, d), dtype=np.float64)
    mat[: n - t, :active] = rng.normal(0.0, 1.0, size=(n - t, active))
    mat[n - t:, :active] = np.tile(-5.0 * mat[:1, :active], (t, 1))
    return mat


def measure_dedup(n: int, t: int, d: int, *, seed: int = 0) -> Dict[str, object]:
    """Batched kernels without a profile (dense) vs. with one (row dedup).

    Both sides run the *batched* kernels — this measures what exact row
    dedup saves on top of batching.  Dedup must be bitwise equal to the
    dense kernels.
    """
    size = n - t
    mat = _structured_stack(n, t, d, seed)
    indices = subset_index_matrix(n, size)

    def run(dedup: bool):
        gc.collect()
        start = time.perf_counter()
        profile = detect_structure(mat) if dedup else None
        dist = pairwise_distances(mat)
        diam = subset_diameters(dist, indices, profile=profile)
        means = subset_means(mat, indices, profile=profile)
        medians = subset_geometric_medians(
            mat, indices, tol=TOL, max_iter=MAX_ITER, dist=dist, profile=profile
        )
        return time.perf_counter() - start, (diam, means, medians)

    # Best of two alternating runs per side: on a shared machine one run
    # of either side can be slowed by tens of percent.
    dense_s, dense = run(dedup=False)
    dedup_s, deduped = run(dedup=True)
    dense_s = min(dense_s, run(dedup=False)[0])
    dedup_s = min(dedup_s, run(dedup=True)[0])
    for ref, got, what in zip(dense, deduped, ("diameters", "means", "medians")):
        assert np.array_equal(ref, got), f"row dedup broke {what} bitwise"
    profile = detect_structure(mat)

    return {
        "n": n,
        "t": t,
        "d": d,
        "subset_size": size,
        "subsets": comb(n, size),
        "unique_rows": int(profile.num_unique_rows),
        "deduped_subsets": int(dedup_subsets(indices, profile)[0].shape[0]),
        "dense_s": dense_s,
        "dedup_s": dedup_s,
        "dedup_speedup": dense_s / dedup_s if dedup_s > 0 else float("inf"),
    }


def run_trajectory(smoke: bool = False) -> Dict[str, object]:
    """Measure the scaling trajectory plus the headline acceptance case."""
    if smoke:
        cases = [(12, 3, 32)]
    else:
        cases = [(10, 2, 64), (12, 3, 64), (14, 4, 64), (16, 4, scaled(64, 256))]
    # Warm up BLAS / allocator before timing anything.
    measure_case(8, 2, 8)
    trajectory: List[Dict[str, object]] = [
        measure_case(n, t, d) for (n, t, d) in cases
    ]
    headline = measure_case(HEADLINE["n"], HEADLINE["t"], HEADLINE["d"])
    # The dedup acceptance case runs in smoke mode too: its bitwise
    # assertion is the contract row dedup exists to honour.
    dedup = measure_dedup(DEDUP["n"], DEDUP["t"], DEDUP["d"])
    return {
        "benchmark": "subset_kernels",
        "created_unix": time.time(),
        "build": build_info(),
        "smoke": smoke,
        "weiszfeld": {"tol": TOL, "max_iter": MAX_ITER},
        "headline_min_speedup": HEADLINE_MIN_SPEEDUP,
        "headline": headline,
        "dedup_min_speedup": DEDUP_MIN_SPEEDUP,
        "dedup": dedup,
        "trajectory": trajectory,
    }


def render_report(payload: Dict[str, object]) -> str:
    rows = list(payload["trajectory"]) + [payload["headline"]]
    lines = [
        f"{'n':>3} {'t':>2} {'d':>4} {'subsets':>8} "
        f"{'geomed loop':>11} {'geomed batch':>12} {'speedup':>8} "
        f"{'means x':>8} {'diam x':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>3} {row['t']:>2} {row['d']:>4} {row['subsets']:>8} "
            f"{row['geomedian_looped_s']:>10.3f}s {row['geomedian_batched_s']:>11.3f}s "
            f"{row['geomedian_speedup']:>7.1f}x "
            f"{row['means_speedup']:>7.1f}x {row['diameters_speedup']:>7.1f}x"
        )
    head = payload["headline"]
    lines.append(
        f"headline (n={head['n']}, t={head['t']}, d={head['d']}): "
        f"{head['geomedian_speedup']:.1f}x geomedian speedup "
        f"(required: >={payload['headline_min_speedup']:.0f}x)"
    )
    dedup = payload["dedup"]
    lines.append(
        f"row dedup (n={dedup['n']}, t={dedup['t']}, d={dedup['d']}, "
        f"{dedup['unique_rows']} unique rows, "
        f"{dedup['deduped_subsets']}/{dedup['subsets']} subsets computed): "
        f"dense {dedup['dense_s']:.2f}s vs dedup {dedup['dedup_s']:.2f}s = "
        f"{dedup['dedup_speedup']:.1f}x "
        f"(required: >={payload['dedup_min_speedup']:.1f}x)"
    )
    return "\n".join(lines)


def check_headline(payload: Dict[str, object]) -> None:
    speedup = payload["headline"]["geomedian_speedup"]
    assert speedup >= HEADLINE_MIN_SPEEDUP, (
        f"batched subset aggregation speedup {speedup:.2f}x is below the "
        f"required {HEADLINE_MIN_SPEEDUP:.0f}x at the headline configuration"
    )
    dedup = payload["dedup"]["dedup_speedup"]
    assert dedup >= DEDUP_MIN_SPEEDUP, (
        f"row dedup speedup {dedup:.2f}x is below the required "
        f"{DEDUP_MIN_SPEEDUP:.1f}x at the large-d configuration"
    )


def write_artifact(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_subset_kernel_speedup():
    """Pytest entry: trajectory + headline acceptance + JSON artifact."""
    payload = run_trajectory(smoke=False)
    print_report(
        "SUBSET-KERNELS",
        "batched vs. looped subset aggregation (exhaustive families)",
        render_report(payload),
    )
    write_artifact(payload, "BENCH_subset_kernels.json")
    check_headline(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single small trajectory case before the headline (CI mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_subset_kernels.json",
        help="path of the JSON trajectory artifact",
    )
    args = parser.parse_args(argv)
    payload = run_trajectory(smoke=args.smoke)
    print_report(
        "SUBSET-KERNELS",
        "batched vs. looped subset aggregation (exhaustive families)",
        render_report(payload),
    )
    write_artifact(payload, args.output)
    print(f"wrote {args.output}")
    check_headline(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
