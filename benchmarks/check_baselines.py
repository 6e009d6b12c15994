"""Guard BENCH_* headline metrics against committed baselines.

CI runs the smoke benchmarks, then runs this script over the fresh
``BENCH_*.json`` artifacts: every artifact with a committed counterpart
in ``benchmarks/baselines/`` has its shared headline metrics (rounds/sec
per case, ``*_speedup`` headlines) compared, and a regression of more
than 30% against the baseline fails the build.  When the fresh
artifact's ``build`` fingerprint (numpy/BLAS/platform, see
``_harness.build_info``) differs from the baseline's, regressions are
demoted to warnings — cross-machine timings are not comparable enough
to gate on, but the drift is still printed for a human to read.

    PYTHONPATH=src python benchmarks/check_baselines.py BENCH_*.json

Refresh a baseline by re-running the full benchmark on a quiet machine
and committing the artifact:

    PYTHONPATH=src python benchmarks/bench_delivery.py \
        --output benchmarks/baselines/BENCH_delivery.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

try:
    from _harness import compare_to_baseline
except ImportError:  # pragma: no cover - direct script execution
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from _harness import compare_to_baseline

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")


def check_artifact(path: str, baseline_dir: str, *, max_regression: float) -> bool:
    """Compare one fresh artifact; return False on gating failures."""
    name = os.path.basename(path)
    baseline_path = os.path.join(baseline_dir, name)
    if not os.path.exists(baseline_path):
        print(f"[{name}] no committed baseline, skipped")
        return True
    with open(path, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    report = compare_to_baseline(fresh, baseline, max_regression=max_regression)
    for line in report["info"]:
        print(f"[{name}] {line}")
    for line in report["warnings"]:
        print(f"[{name}] WARNING: {line}")
    for line in report["failures"]:
        print(f"[{name}] FAIL: {line}")
    return not report["failures"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "artifacts", nargs="+",
        help="fresh BENCH_*.json files (matched to baselines by filename)",
    )
    parser.add_argument(
        "--baseline-dir", default=BASELINE_DIR,
        help="directory of committed baseline artifacts",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="fractional headline regression that fails the check",
    )
    args = parser.parse_args(argv)
    ok = True
    for path in args.artifacts:
        if not os.path.exists(path):
            print(f"[{os.path.basename(path)}] fresh artifact missing, skipped")
            continue
        ok = check_artifact(
            path, args.baseline_dir, max_regression=args.max_regression
        ) and ok
    if not ok:
        print("baseline drift check FAILED")
        return 1
    print("baseline drift check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
