"""DELIVERY — rounds/sec of every scheduler, topology and wait condition.

Not a figure of the paper; the delivery benchmark of :mod:`repro.engine`.
Every case drives :func:`repro.engine.run_exchange`: each node
broadcasts, the scheduler delivers, and each receiver materialises its
``(m, d)`` inbox matrix.  The update keeps one received row, so
aggregation cost — rule-dependent, and measured end to end by the cell
benchmark — stays out of the timed loop.

Cases (:func:`cases`):

- every scheduler at n=10, d=64, the asynchronous one under quorum and
  count=n waits;
- every scheduler at n in {64, 256, 1024}, d=256, lossy delivery under
  the complete, ring and random-regular (degree 4) topologies;
- synchronous and lossy at n=4096 (full run only).

Checks (:func:`check`): every case makes progress and delivers; the
exact conservation identities hold (lossy ``sent == delivered + dropped
+ crash_omitted``, partial/asynchronous ``sent == delivered +
expired_at_reset + pending``); the asynchronous scheduler writes one
trace row per round and stays within 25x of synchronous at n=10; sparse
topologies deliver fewer messages than complete, and their rounds are no
slower than complete at lossy n=1024; the full run reaches n=4096.

``--smoke`` (CI) runs the n=10 cases plus lossy n=1024 under the three
topologies.  Both modes write a ``BENCH_delivery.json`` artifact that
``check_baselines.py`` compares against the committed baseline:

    PYTHONPATH=src python benchmarks/bench_delivery.py --smoke
    PYTHONPATH=src python benchmarks/bench_delivery.py \\
        --output benchmarks/baselines/BENCH_delivery.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

try:
    from _harness import build_info, print_report
except ImportError:  # pragma: no cover - direct script execution
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from _harness import build_info, print_report

from repro.engine import make_scheduler, run_exchange
from repro.network.topology import make_topology

SYNC = ("synchronous", {})
PARTIAL = ("partial", {"delay": 2})
LOSSY = ("lossy", {"drop_rate": 0.1})
LOSSY_CRASH = ("lossy", {"drop_rate": 0.1, "crash_schedule": ((1, 5, 15),)})
ASYNC_CALM = ("asynchronous", {"wait_timeout": 2.0})
ASYNC_BURSTY = ("asynchronous", {"wait_timeout": 2.0, "burstiness": 0.3})

#: Topology generator kwargs by name.
TOPOLOGIES = {"complete": {}, "ring": {}, "random-regular": {"degree": 4}}

#: (n, d, rounds) of the small exchange family, the node-axis grid and
#: the full run's largest size.
SMALL = (10, 64, 200)
GRID = [(64, 256, 30), (256, 256, 10), (1024, 256, 3)]
LARGE = (4096, 256, 2)

#: Sparse lossy rounds must be no slower than complete at this n.
GATE_N = 1024
#: Asynchronous delivery may cost at most this multiple of synchronous at
#: n=10; at larger n the pinned per-link scalar delay transform dominates
#: by design.
MAX_ASYNC_SLOWDOWN = 25.0


def _label(scheduler: str, kwargs: Dict[str, object]) -> str:
    knobs = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return scheduler + (f"({knobs})" if knobs else "")


def cases(smoke: bool) -> List[Dict[str, object]]:
    """Every (scheduler, kwargs, topology, wait, n, d, rounds) case to time."""
    n, d, rounds = SMALL
    out = [
        dict(case=case, topology="complete", wait=wait, n=n, d=d, rounds=rounds)
        for case, wait in [
            (SYNC, None), (PARTIAL, None), (LOSSY, None), (LOSSY_CRASH, None),
            (ASYNC_CALM, "quorum"), (ASYNC_BURSTY, "quorum"), (ASYNC_BURSTY, "count"),
        ]
    ]
    for n, d, rounds in [(GATE_N, 256, 3)] if smoke else GRID:
        if not smoke:
            out += [
                dict(case=case, topology="complete", wait=wait, n=n, d=d, rounds=rounds)
                for case, wait in [(SYNC, None), (PARTIAL, None), (ASYNC_BURSTY, "count")]
            ]
        out += [
            dict(case=LOSSY, topology=topology, wait=None, n=n, d=d, rounds=rounds)
            for topology in TOPOLOGIES
        ]
    if not smoke:
        n, d, rounds = LARGE
        out += [
            dict(case=case, topology="complete", wait=None, n=n, d=d, rounds=rounds)
            for case in (SYNC, LOSSY)
        ]
    return out


def measure_case(
    scheduler: str,
    kwargs: Dict[str, object],
    topology: str,
    *,
    n: int,
    d: int,
    rounds: int,
    wait: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Time ``rounds`` exchange rounds of one case; one artifact row."""
    engine = make_scheduler(
        scheduler, n, seed=seed,
        topology=make_topology(topology, n, seed=seed, **TOPOLOGIES[topology]),
        **kwargs,
    )
    engine.require_quorum(1, policy="starve")
    if wait == "quorum":
        engine.wait_for(quorum=True)
    elif wait == "count":
        engine.wait_for(count=n)
    rng = np.random.default_rng(seed)
    initial = {i: rng.normal(size=d) for i in range(n)}

    start = time.perf_counter()
    # Copy the kept row: a view would pin every receiver's gathered stack.
    final = run_exchange(
        engine, initial, rounds, lambda _node, received: received[-1].copy()
    )
    seconds = time.perf_counter() - start

    assert len(final) == n, "every node must come out of the exchange"
    return {
        "label": _label(scheduler, kwargs),
        "scheduler": scheduler,
        "kwargs": kwargs,
        "topology": topology,
        "wait": wait,
        "n": n,
        "d": d,
        "rounds": rounds,
        "seconds": seconds,
        "rounds_per_sec": rounds / seconds if seconds > 0 else float("inf"),
        "trace_rows": len(engine.traces),
        "pending": int(engine.pending_count_per_node().sum()),
        "stats": engine.stats_snapshot(),
    }


def run_trajectory(smoke: bool = False) -> Dict[str, object]:
    """Measure every case of one run."""
    # Warm up BLAS / allocator before timing anything.
    measure_case("synchronous", {}, "complete", n=4, d=8, rounds=10)
    rows = [
        measure_case(
            *spec["case"], spec["topology"],
            n=spec["n"], d=spec["d"], rounds=spec["rounds"], wait=spec["wait"],
        )
        for spec in cases(smoke)
    ]
    return {
        "benchmark": "delivery",
        "created_unix": time.time(),
        "build": build_info(),
        "smoke": smoke,
        "cases": rows,
    }


def render_report(payload: Dict[str, object]) -> str:
    lines = [
        f"{'case':<52} {'topology':>14} {'wait':>6} {'n':>5} {'rounds':>6} "
        f"{'rounds/s':>9} {'delivered':>10} {'lost':>8} {'pending':>8}"
    ]
    for row in payload["cases"]:
        stats = row["stats"]
        lines.append(
            f"{row['label']:<52} {row['topology']:>14} {row['wait'] or '-':>6} "
            f"{row['n']:>5} {row['rounds']:>6} {row['rounds_per_sec']:>9.2f} "
            f"{stats['delivered']:>10} {stats['dropped'] + stats['crash_omitted']:>8} "
            f"{row['pending']:>8}"
        )
    return "\n".join(lines)


def check(payload: Dict[str, object]) -> None:
    """Progress, exact conservation, trace shape and relative-cost gates."""
    rows = payload["cases"]
    for row in rows:
        name = f"{row['label']} [{row['topology']}, n={row['n']}]"
        stats = row["stats"]
        assert row["rounds_per_sec"] > 0, f"{name} made no progress"
        assert stats["delivered"] > 0, f"{name} delivered nothing"
        if row["scheduler"] in ("partial", "asynchronous"):
            outcomes = stats["delivered"] + stats["expired_at_reset"] + row["pending"]
        else:
            outcomes = stats["delivered"] + stats["dropped"] + stats["crash_omitted"]
        assert stats["sent"] == outcomes, f"{name} counters do not add up: {stats}"
        if row["scheduler"] == "asynchronous":
            assert row["trace_rows"] == row["rounds"], (
                f"{name} trace rows {row['trace_rows']} != rounds {row['rounds']}"
            )

    def per_round(row) -> float:
        return row["seconds"] / row["rounds"]

    small = [row for row in rows if row["n"] == SMALL[0]]
    sync = next(row for row in small if row["scheduler"] == "synchronous")
    for row in small:
        if row["scheduler"] == "asynchronous":
            slowdown = per_round(row) / per_round(sync)
            assert slowdown < MAX_ASYNC_SLOWDOWN, (
                f"{row['label']} ({row['wait']}) is {slowdown:.1f}x slower than "
                f"synchronous at n={SMALL[0]}"
            )

    lossy = {
        (row["n"], row["topology"]): row
        for row in rows
        if row["label"] == _label(*LOSSY)
    }
    assert (GATE_N, "ring") in lossy and (GATE_N, "random-regular") in lossy, (
        f"the run needs lossy ring and random-regular rows at n={GATE_N}"
    )
    for (n, topology), row in lossy.items():
        complete = lossy.get((n, "complete"))
        if topology == "complete" or complete is None:
            continue
        assert row["stats"]["delivered"] < complete["stats"]["delivered"], (
            f"{topology} at n={n} delivered no fewer messages than complete: "
            "the topology mask is not restricting links"
        )
        if n == GATE_N:
            assert per_round(row) <= per_round(complete), (
                f"{topology} took {per_round(row):.4f}s per round vs complete's "
                f"{per_round(complete):.4f}s at n={n}: the topology mask costs "
                "more than the delivery work it removes"
            )
    if not payload["smoke"]:
        assert any(row["n"] == LARGE[0] for row in rows), (
            f"the full run must include n={LARGE[0]}"
        )


def write_artifact(payload: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: the n=10 cases plus lossy n=1024 under three topologies",
    )
    parser.add_argument(
        "--output", default="BENCH_delivery.json",
        help="path of the JSON trajectory artifact",
    )
    args = parser.parse_args(argv)
    payload = run_trajectory(smoke=args.smoke)
    print_report("DELIVERY", "rounds/sec per delivery case", render_report(payload))
    write_artifact(payload, args.output)
    print(f"wrote {args.output}")
    check(payload)
    return 0


def test_delivery_throughput():
    """Pytest entry: the smoke run, its checks and the JSON artifact."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
