"""Pin the object message plane's raw delivery outputs.

Every scheduler used to carry two delivery paths — the per-``Message``
object plane and the array-backed batch plane — kept bitwise-equivalent
by live cross-plane tests.  This script was executed with the engines
built on ``message_plane="object"`` at the commit recorded in the
fixture (the last one on which the object plane existed), so that
reference survives as data: ``tests/test_message_plane.py`` and
``tests/test_topology.py`` compare the batch plane against
``delivery_object_plane.json``.

Two families of raw full-broadcast exchanges are recorded, one case per
scheduler each (:data:`CASES`): ``complete/<scheduler>`` (n=7, no
topology) and ``ring/<scheduler>`` (n=8, ring topology), with the last
node Byzantine.  Per round and node a record holds the delivering
senders and the SHA-256 of the received matrix's bytes (``""`` for an
empty inbox); the engine's cumulative stats and per-round trace close
each case.

Re-running this script on a later tree only re-pins the current
behaviour; the authoritative provenance is the commit recorded below.

    PYTHONPATH=src python tests/fixtures/make_delivery_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

from repro.engine import make_scheduler
from repro.network.delivery import full_broadcast_plan
from repro.network.topology import make_topology

FIXTURE_PATH = Path(__file__).with_name("delivery_object_plane.json")

#: Scheduler knobs shared by every exchange family.
SCHEDULER_SETUPS = {
    "synchronous": {},
    "partial": {"delay": 2, "seed": 11},
    "lossy": {"drop_rate": 0.2, "crash_schedule": ((1, 1, 3),), "seed": 11},
    "asynchronous": {"wait_timeout": 2.0, "burstiness": 0.4, "seed": 11},
}

#: Exchange families: node count, topology name and the asynchronous
#: scheduler's wait count.
FAMILIES = {
    "complete": {"n": 7, "topology": None, "wait_count": 5},
    "ring": {"n": 8, "topology": "ring", "wait_count": 2},
}

CASES = tuple(
    f"{family}/{scheduler}" for family in FAMILIES for scheduler in SCHEDULER_SETUPS
)


def raw_exchange(
    scheduler: str,
    *,
    n: int,
    topology: Optional[str] = None,
    wait_count: int,
    rounds: int = 5,
) -> dict:
    """Drive ``rounds`` full-broadcast rounds; a JSON-safe delivery record."""
    engine = make_scheduler(
        scheduler, n, (n - 1,),
        topology=None if topology is None else make_topology(topology, n),
        **SCHEDULER_SETUPS[scheduler],
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=wait_count)
    rng = np.random.default_rng(3)
    payloads = {node: rng.normal(size=(rounds, 4)) for node in range(n)}
    inboxes = []
    for round_index in range(rounds):
        plans = [
            full_broadcast_plan(node, payloads[node][round_index])
            for node in range(n)
        ]
        result = engine.submit(plans, round_index)
        row = []
        for node in range(n):
            if len(result.inboxes.get(node, [])):
                digest = hashlib.sha256(result.received_matrix(node).tobytes())
                row.append({"senders": result.senders(node),
                            "sha256": digest.hexdigest()})
            else:
                row.append({"senders": [], "sha256": ""})
        inboxes.append(row)
    return {
        "inboxes": inboxes,
        "stats": engine.stats_snapshot(),
        "trace": engine.trace_snapshot(),
    }


def case_exchange(case: str) -> dict:
    """The raw exchange of one ``<family>/<scheduler>`` case."""
    family, scheduler = case.split("/")
    return raw_exchange(scheduler, **FAMILIES[family])


def main() -> None:
    payload = {
        "generated_at_commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[2],
        ).stdout.strip(),
        "exchanges": {case: case_exchange(case) for case in CASES},
    }
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
