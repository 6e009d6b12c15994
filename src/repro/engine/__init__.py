"""Scheduler-pluggable round engine.

The paper specifies lock-step rounds; this package makes that timing
model one pluggable axis instead of a hard-coded assumption.  A
:class:`RoundEngine` turns per-node broadcast plans into per-node
inboxes; the scheduler decides *when* (and whether) each link delivers:

========================================  =================================
Scheduler                                  Timing model
========================================  =================================
:class:`SynchronousScheduler`              lock-step (the paper)
:class:`PartiallySynchronousScheduler`     per-link random delays bounded
                                           by a delivery horizon
:class:`LossyScheduler`                    seeded per-link loss plus
                                           transient crash windows
:class:`AsynchronousScheduler`             event-driven, no horizon:
                                           heavy-tailed regime-modulated
                                           delays + explicit wait
                                           conditions
========================================  =================================

Agreement, centralized and decentralized learning all run on this one
engine (see :func:`repro.engine.rounds.run_exchange`); experiment
configurations select a scheduler by name through
:func:`make_scheduler`, which is what the ``scheduler`` / ``delay`` /
``drop_rate`` / ``crash_schedule`` / ``wait_count`` / ``wait_timeout`` /
``burstiness`` sweep axes feed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.engine.asynchronous import AsynchronousScheduler
from repro.engine.base import RoundEngine, WaitCondition
from repro.engine.lossy import LossyScheduler, normalise_crash_schedule
from repro.engine.partial import PartiallySynchronousScheduler
from repro.engine.rounds import attack_adversary_plan, run_exchange
from repro.engine.synchronous import SynchronousScheduler
from repro.network.topology import Topology
from repro.utils.rng import SeedLike

#: Scheduler names accepted by :func:`make_scheduler` (and the
#: ``ExperimentConfig.scheduler`` field / sweep axis).
SCHEDULER_NAMES = ("synchronous", "partial", "lossy", "asynchronous")


def make_scheduler(
    name: str,
    n: int,
    byzantine: Iterable[int] = (),
    *,
    delay: int = 0,
    delay_prob: float = 0.5,
    drop_rate: float = 0.0,
    crash_schedule: Iterable[Sequence[int]] = (),
    wait_count: int = 0,
    wait_timeout: float = 0.0,
    burstiness: float = 0.0,
    seed: SeedLike = 0,
    require_full_broadcast: bool = True,
    node_trace: bool = False,
    topology: Optional[Topology] = None,
) -> RoundEngine:
    """Instantiate a scheduler by name.

    ``delay`` is the delivery horizon of the partially synchronous
    scheduler (required >= 1 there, meaningless elsewhere);
    ``drop_rate`` and ``crash_schedule`` configure the lossy scheduler;
    ``wait_count`` / ``wait_timeout`` / ``burstiness`` configure the
    event-driven asynchronous scheduler (``wait_timeout`` required > 0
    there — it has no delivery horizon, so the wait window must be
    explicit).  Passing a knob to a scheduler that cannot honour it is
    an error — a sweep axis that silently did nothing would corrupt
    conclusions.  ``require_full_broadcast=False`` builds the engine in
    star mode (honest senders may address a single receiver — the
    centralized trainer's client -> server exchange).  ``node_trace``
    turns on per-node trace recording (see :class:`RoundEngine`);
    ``topology`` installs a sparse communication graph every scheduler
    intersects with its own delivery decisions (``None`` = all-to-all).
    """
    key = str(name).strip().lower()
    if key not in SCHEDULER_NAMES:
        raise ValueError(f"unknown scheduler {name!r}; available: {SCHEDULER_NAMES}")
    crash_schedule = tuple(crash_schedule)
    if delay and key != "partial":
        raise ValueError(f"delay is only meaningful for scheduler='partial' (got {key!r})")
    if (drop_rate or crash_schedule) and key != "lossy":
        raise ValueError(
            f"drop_rate/crash_schedule are only meaningful for scheduler='lossy' "
            f"(got {key!r})"
        )
    if (wait_count or wait_timeout or burstiness) and key != "asynchronous":
        raise ValueError(
            f"wait_count/wait_timeout/burstiness are only meaningful for "
            f"scheduler='asynchronous' (got {key!r})"
        )
    common = dict(
        require_full_broadcast=require_full_broadcast,
        node_trace=node_trace,
        topology=topology,
    )
    if key == "synchronous":
        return SynchronousScheduler(n, byzantine, **common)
    if key == "partial":
        if delay < 1:
            raise ValueError("scheduler='partial' needs delay >= 1 (its delivery horizon)")
        return PartiallySynchronousScheduler(
            n, byzantine, max_delay=delay, delay_prob=delay_prob, seed=seed,
            **common,
        )
    if key == "lossy":
        return LossyScheduler(
            n, byzantine, drop_rate=drop_rate, crash_schedule=crash_schedule,
            seed=seed, **common,
        )
    if wait_timeout <= 0.0:
        raise ValueError(
            "scheduler='asynchronous' needs wait_timeout > 0 (there is no "
            "delivery horizon; the wait window must be explicit)"
        )
    return AsynchronousScheduler(
        n, byzantine, wait_count=wait_count, timeout_rounds=wait_timeout,
        burstiness=burstiness, seed=seed, **common,
    )


__all__ = [
    "AsynchronousScheduler",
    "LossyScheduler",
    "PartiallySynchronousScheduler",
    "RoundEngine",
    "SCHEDULER_NAMES",
    "SynchronousScheduler",
    "WaitCondition",
    "attack_adversary_plan",
    "make_scheduler",
    "normalise_crash_schedule",
    "run_exchange",
]
