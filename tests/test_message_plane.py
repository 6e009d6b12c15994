"""Batch message plane acceptance tests.

Three contracts of the array-backed delivery refactor:

1. **Bitwise equivalence** — the batch plane must reproduce the
   per-message object plane's outputs exactly for every scheduler.  The
   reference numbers live in
   ``tests/fixtures/message_plane_pre_refactor.json`` /
   ``sweep_rows_pre_message_plane.jsonl`` (experiments, agreement,
   sweep rows) and ``delivery_object_plane.json`` (raw exchanges:
   senders and matrix digests per node and round, counters, traces),
   all generated on the object plane by the sibling generator scripts
   (floats survive the JSON round trip losslessly, so ``==`` is bitwise,
   and sweep rows compare as serialised byte strings).
2. **Per-node delivery resolution** — with ``node_trace`` the engines
   resolve every counter per receiver; the per-node arrays must sum
   exactly to the aggregate counters and the per-round trace, and obey
   per-node conservation (``sent == delivered + dropped/expired +
   pending``).
3. **Payload isolation** — a sender cannot change a delivered payload:
   each round batch holds a read-only copy of the plans' payloads, and
   the matrix a fully delivered round shares across nodes is read-only.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import make_scheduler
from repro.io.results import history_to_dict
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.network.batch import BatchInbox, build_round_batch
from repro.network.delivery import full_broadcast_plan
from repro.network.reliable_broadcast import BroadcastPlan

FIXTURES_DIR = Path(__file__).parent / "fixtures"
HISTORY_FIXTURE = FIXTURES_DIR / "message_plane_pre_refactor.json"
ROWS_FIXTURE = FIXTURES_DIR / "sweep_rows_pre_message_plane.jsonl"

DELIVERY_FIXTURE = FIXTURES_DIR / "delivery_object_plane.json"


def _load_generator(name: str):
    spec = importlib.util.spec_from_file_location(name, FIXTURES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixture_gen = _load_generator("make_message_plane_fixtures")
delivery_gen = _load_generator("make_delivery_fixtures")

SCHEDULER_SETUPS = delivery_gen.SCHEDULER_SETUPS


# ---------------------------------------------------------------------------
# 1. bitwise equivalence
# ---------------------------------------------------------------------------

class TestPinnedFixtures:
    """Batch-plane outputs against the pre-refactor object-plane pins."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(HISTORY_FIXTURE.read_text())

    @pytest.mark.parametrize("label", sorted(fixture_gen.experiment_cases()))
    def test_experiment_history_bitwise_identical(self, pinned, label):
        config = fixture_gen.experiment_cases()[label]
        history = history_to_dict(run_experiment(config))
        assert history == pinned["histories"][label]

    def test_agreement_traces_bitwise_identical(self, pinned):
        assert fixture_gen.agreement_traces() == pinned["agreement"]

    def test_sweep_rows_byte_identical(self):
        expected = ROWS_FIXTURE.read_text().splitlines()
        assert fixture_gen.sweep_row_lines() == expected


class TestCrossPlaneEquivalence:
    """The batch plane reproduces the object plane's pinned raw exchanges."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
    def test_raw_exchange_identical(self, scheduler):
        case = f"complete/{scheduler}"
        pinned = json.loads(DELIVERY_FIXTURE.read_text())["exchanges"][case]
        assert delivery_gen.case_exchange(case) == pinned


# ---------------------------------------------------------------------------
# 2. per-node delivery resolution
# ---------------------------------------------------------------------------

def _run_node_traced(scheduler: str, *, rounds: int = 6, n: int = 6):
    kwargs = dict(SCHEDULER_SETUPS[scheduler])
    engine = make_scheduler(scheduler, n, (), node_trace=True, **kwargs)
    if scheduler == "asynchronous":
        engine.wait_for(count=n - 1)
    rng = np.random.default_rng(9)
    for round_index in range(rounds):
        plans = [
            full_broadcast_plan(node, rng.normal(size=3)) for node in range(n)
        ]
        engine.submit(plans, round_index)
    return engine


@pytest.mark.parametrize("scheduler", ["lossy", "partial", "asynchronous"])
def test_node_stats_sum_to_aggregate_counters(scheduler):
    engine = _run_node_traced(scheduler)
    stats = engine.stats_snapshot()
    node_stats = engine.node_stats_snapshot()
    for key, values in node_stats.items():
        assert len(values) == engine.n
        assert sum(values) == stats[key], key


@pytest.mark.parametrize("scheduler", ["lossy", "partial", "asynchronous"])
def test_node_trace_rows_aggregate_to_round_trace(scheduler):
    engine = _run_node_traced(scheduler)
    trace = engine.trace_snapshot()
    node_trace = engine.node_trace_snapshot()
    assert [row["round"] for row in node_trace] == [row["round"] for row in trace]
    for agg_row, node_row in zip(trace, node_trace):
        agg_keys = {k for k in agg_row if k != "round"}
        node_keys = {k for k in node_row if k != "round"}
        assert node_keys == agg_keys
        for key in agg_keys:
            assert sum(node_row[key]) == agg_row[key], key


def test_lossy_per_node_conservation():
    engine = _run_node_traced("lossy")
    node = engine.node_stats_snapshot()
    sent = np.asarray(node["sent"])
    outcomes = (
        np.asarray(node["delivered"])
        + np.asarray(node.get("dropped", [0] * engine.n))
        + np.asarray(node.get("crash_omitted", [0] * engine.n))
    )
    assert np.array_equal(sent, outcomes)


@pytest.mark.parametrize("scheduler", ["partial", "asynchronous"])
def test_in_flight_per_node_conservation(scheduler):
    engine = _run_node_traced(scheduler)
    node = engine.node_stats_snapshot()
    pending = engine.pending_count_per_node()
    assert int(pending.sum()) == engine.pending_count()
    sent = np.asarray(node["sent"])
    accounted = np.asarray(node["delivered"]) + pending
    assert np.array_equal(sent, accounted)
    # After a reset the in-flight tail is booked as expired, per node.
    engine.reset()
    node = engine.node_stats_snapshot()
    expired = np.asarray(node.get("expired_at_reset", [0] * engine.n))
    assert np.array_equal(np.asarray(node["sent"]),
                          np.asarray(node["delivered"]) + expired)
    assert engine.pending_count() == 0


def test_experiment_config_node_trace_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(node_trace=True)  # synchronous default scheduler
    config = ExperimentConfig(scheduler="lossy", drop_rate=0.1, node_trace=True)
    assert config.node_trace


def test_experiment_node_trace_populates_history():
    config = fixture_gen.base_config(
        scheduler="lossy", drop_rate=0.15, crash_schedule=((1, 1, 3),),
        node_trace=True,
    )
    history = run_experiment(config)
    assert history.node_stats
    for key, values in history.node_stats.items():
        assert sum(values) == history.network_stats[key], key
    assert history.node_delivery_trace
    # The flag changes recording only, never delivery or training.
    baseline = run_experiment(config.with_overrides(node_trace=False))
    assert history.accuracies() == baseline.accuracies()
    assert history.network_stats == baseline.network_stats
    # Round trip through the JSON layer.
    from repro.io.results import history_from_dict

    restored = history_from_dict(history_to_dict(history))
    assert restored.node_stats == history.node_stats
    assert restored.node_delivery_trace == history.node_delivery_trace


def test_config_dict_elides_default_node_trace():
    from repro.sweep.grid import config_from_dict, config_to_dict

    default = config_to_dict(ExperimentConfig())
    assert "node_trace" not in default
    assert not config_from_dict(default).node_trace
    traced = config_to_dict(
        ExperimentConfig(scheduler="lossy", drop_rate=0.1, node_trace=True)
    )
    assert traced["node_trace"] is True
    assert config_from_dict(traced).node_trace


def test_node_stats_summary_reading():
    from repro.analysis.reporting import node_stats_summary

    summary = node_stats_summary(
        {"sent": [10, 10, 10], "delivered": [10, 4, 0]}
    )
    assert summary["nodes"] == 3
    assert summary["totals"] == {"sent": 30, "delivered": 14}
    assert summary["worst_node"] == 2
    assert summary["worst_node_deliv"] == 0.0


# ---------------------------------------------------------------------------
# 3. payload isolation
# ---------------------------------------------------------------------------

class TestPayloadIsolation:
    """A sender cannot change what the plane delivered."""

    @pytest.mark.parametrize("scheduler", ["synchronous", "lossy"])
    def test_sender_writes_after_submit_do_not_reach_inboxes(self, scheduler):
        n = 5
        engine = make_scheduler(scheduler, n, (), **SCHEDULER_SETUPS[scheduler])
        sent = {node: np.arange(3.0) + node for node in range(n)}
        result = engine.submit(
            [full_broadcast_plan(node, sent[node]) for node in range(n)], 0
        )
        before = {node: result.received_matrix(node).copy() for node in range(n)}
        for vector in sent.values():
            vector[:] = 1e6
        for node in range(n):
            assert np.array_equal(result.received_matrix(node), before[node])

    @pytest.mark.parametrize("scheduler", ["synchronous", "lossy"])
    def test_shared_full_round_matrix_is_read_only(self, scheduler):
        n = 4
        engine = make_scheduler(scheduler, n)
        result = engine.submit(
            [full_broadcast_plan(node, np.full(2, float(node))) for node in range(n)], 0
        )
        shared = result.received_matrix(0)
        assert all(result.received_matrix(node) is shared for node in range(n))
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 1e6


# ---------------------------------------------------------------------------
# batch container behaviour
# ---------------------------------------------------------------------------

class TestBatchInbox:
    @pytest.fixture
    def batch(self):
        plans = {
            i: full_broadcast_plan(i, np.arange(4.0) * (i + 1)) for i in range(5)
        }
        return build_round_batch(plans, 2, 5)

    def test_sequence_protocol(self, batch):
        # An inbox is the ordered sequence of its delivered rows: len,
        # senders() and matrix() agree on count and order.
        inbox = BatchInbox.single(batch, np.asarray([0, 2, 4], dtype=np.int64))
        assert len(inbox) == 3
        assert inbox.senders() == [0, 2, 4]
        assert inbox.matrix().tolist() == batch.payloads[[0, 2, 4]].tolist()

    def test_matrix_matches_message_stacking(self, batch):
        # A multi-batch inbox (a straggler ahead of fresh rows) gathers
        # the bytes of stacking each delivered payload in order.
        late = build_round_batch(
            {i: full_broadcast_plan(i, -np.arange(4.0) - i) for i in range(5)}, 1, 5
        )
        inbox = BatchInbox(
            (late, batch),
            np.asarray([3, 1, 3], dtype=np.int64),
            np.asarray([0, 1, 1], dtype=np.int64),
        )
        stacked = np.stack([late.payloads[3], batch.payloads[1], batch.payloads[3]])
        assert inbox.senders() == [3, 1, 3]
        assert inbox.matrix().tobytes() == stacked.tobytes()

    def test_full_inbox_matrix_is_zero_copy(self, batch):
        inbox = BatchInbox.single(batch, batch.full_rows())
        matrix = inbox.matrix()
        assert matrix is batch.payloads

    def test_empty_inbox(self):
        inbox = BatchInbox.empty()
        assert len(inbox) == 0
        assert inbox.senders() == []
        with pytest.raises(ValueError, match="empty inbox"):
            inbox.matrix()

    def test_unicast_batch_builds_delivery_mask(self):
        plans = {
            0: full_broadcast_plan(0, np.ones(2)),
            1: BroadcastPlan(sender=1, payload=np.ones(2) * 2,
                             recipients=frozenset({2})),
        }
        batch = build_round_batch(plans, 0, 3)
        mask = batch.delivers_mask()
        assert mask[0].all()  # earlier full broadcast backfilled
        assert mask[1].tolist() == [False, False, True]

    def test_dimension_mismatch_rejected(self):
        plans = {
            0: full_broadcast_plan(0, np.ones(2)),
            1: full_broadcast_plan(1, np.ones(3)),
        }
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_round_batch(plans, 0, 2)
