"""Tests for the scheduler-pluggable round engine (repro.engine)."""

import numpy as np
import pytest

from repro.byzantine.base import DELIVERY_TRACE_WINDOW, AttackContext
from repro.byzantine.timing import (
    AdaptiveDelayAttack,
    SelectiveDelayAttack,
    WithholdThenRushAttack,
)
from repro.engine import (
    AsynchronousScheduler,
    LossyScheduler,
    PartiallySynchronousScheduler,
    SynchronousScheduler,
    WaitCondition,
    make_scheduler,
    run_exchange,
)
from repro.network import EmptyInboxError
from repro.network.delivery import RoundResult, full_broadcast_plan
from repro.network.reliable_broadcast import BroadcastPlan, ReliableBroadcast
from repro.network.topology import make_topology


def _values(n, d=2):
    return {i: np.full(d, float(i)) for i in range(n)}


def _honest_plan(values):
    return lambda node, _r: full_broadcast_plan(node, values[node])


class TestSynchronousScheduler:
    def test_matches_reliable_broadcast(self):
        n = 4
        engine = SynchronousScheduler(n)
        values = _values(n)
        result = engine.run_round(0, _honest_plan(values))
        reference = ReliableBroadcast(n).deliver(
            [full_broadcast_plan(i, values[i]) for i in range(n)], 0
        )
        for node in range(n):
            assert result.senders(node) == [sender for sender, _ in reference[node]]
            np.testing.assert_array_equal(
                result.received_matrix(node),
                np.stack([payload for _, payload in reference[node]]),
            )

    def test_ignores_adversary_delays(self):
        engine = SynchronousScheduler(3, byzantine=[2])
        values = _values(2)
        result = engine.run_round(
            0,
            _honest_plan(values),
            adversary_plan=lambda node, r, honest: BroadcastPlan(
                sender=node, payload=np.ones(2), delays={0: 5}
            ),
        )
        # Synchrony: the delayed message still arrives in its own round.
        assert result.senders(0) == [0, 1, 2]

    def test_rounds_executed_counts_rounds(self):
        engine = SynchronousScheduler(3)
        values = _values(3)
        for r in range(4):
            engine.run_round(r, _honest_plan(values))
        assert engine.rounds_executed == 4

    def test_quorum_starve_policy_marks_nodes(self):
        engine = SynchronousScheduler(4, byzantine=[2, 3])
        engine.require_quorum(3, policy="starve")
        values = _values(2)
        result = engine.run_round(0, _honest_plan(values))
        assert result.starved == (0, 1)

    def test_quorum_raise_policy_unchanged(self):
        engine = SynchronousScheduler(4, byzantine=[2, 3])
        engine.require_quorum(3)
        values = _values(2)
        with pytest.raises(RuntimeError):
            engine.run_round(0, _honest_plan(values))

    def test_invalid_quorum_policy(self):
        engine = SynchronousScheduler(3)
        with pytest.raises(ValueError):
            engine.require_quorum(1, policy="ignore")


class TestEmptyInboxError:
    def test_distinct_type_exported(self):
        result = RoundResult(round_index=0, inboxes={0: []})
        with pytest.raises(EmptyInboxError):
            result.received_matrix(0)

    def test_is_a_value_error(self):
        assert issubclass(EmptyInboxError, ValueError)


class TestPartiallySynchronousScheduler:
    def test_no_messages_lost_across_horizon(self):
        n, rounds, delay = 4, 6, 2
        engine = PartiallySynchronousScheduler(n, max_delay=delay, delay_prob=0.7, seed=3)
        values = _values(n)
        delivered = 0
        for r in range(rounds):
            result = engine.run_round(r, _honest_plan(values))
            delivered += sum(len(msgs) for msgs in result.inboxes.values())
        # Everything sent is either delivered or still within the horizon.
        assert delivered + engine.pending_count() == n * n * rounds
        assert engine.stats["sent"] == n * n * rounds
        assert engine.stats["dropped"] == 0

    def test_self_delivery_immediate(self):
        engine = PartiallySynchronousScheduler(3, max_delay=3, delay_prob=1.0, seed=0)
        values = _values(3)
        result = engine.run_round(0, _honest_plan(values))
        for node in range(3):
            assert node in result.senders(node)

    def test_deterministic_given_seed(self):
        def trace(seed):
            engine = PartiallySynchronousScheduler(4, max_delay=2, delay_prob=0.5, seed=seed)
            values = _values(4)
            out = []
            for r in range(5):
                result = engine.run_round(r, _honest_plan(values))
                out.append([result.senders(node) for node in range(4)])
            return out

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)

    def test_late_messages_arrive_before_fresh_ones(self):
        engine = PartiallySynchronousScheduler(2, max_delay=1, delay_prob=1.0, seed=0)
        values = _values(2)
        engine.run_round(0, _honest_plan(values))
        result = engine.run_round(1, _honest_plan(values))
        # Node 0's inbox: the delayed round-0 message from node 1 first,
        # then its own round-1 self-delivery (node 1's round-1 message
        # lags again, so every sender appears once).
        assert result.senders(0) == [1, 0]

    def test_adversary_delay_honoured_and_capped(self):
        engine = PartiallySynchronousScheduler(
            3, byzantine=[2], max_delay=2, delay_prob=0.0, seed=0
        )
        values = _values(2)

        def adversary(node, r, honest):
            return BroadcastPlan(
                sender=node, payload=np.full(2, 9.0), delays={0: 9, 1: 0}
            )

        r0 = engine.run_round(0, _honest_plan(values), adversary)
        assert 2 in r0.senders(1) and 2 not in r0.senders(0)
        r1 = engine.run_round(1, _honest_plan(values), adversary)
        # The requested lag of 9 was capped at the horizon (2 rounds):
        # the round-0 message arrives in round 2, ahead of the fresh ones,
        # while each later one lags 2 rounds again.
        assert 2 not in r1.senders(0)
        r2 = engine.run_round(2, _honest_plan(values), adversary)
        assert r2.senders(0) == [2, 0, 1]

    def test_reset_expires_pending_not_dropped(self):
        # The model's contract is "messages are never lost": in-flight
        # messages flushed at an exchange boundary are expired, and must
        # never inflate the loss counter.
        engine = PartiallySynchronousScheduler(3, max_delay=3, delay_prob=1.0, seed=1)
        values = _values(3)
        engine.run_round(0, _honest_plan(values))
        pending = engine.pending_count()
        assert pending > 0
        engine.reset()
        assert engine.pending_count() == 0
        assert engine.stats["dropped"] == 0
        assert engine.stats["expired_at_reset"] == pending

    def test_accounting_identity_across_exchanges(self):
        # sent == delivered + expired_at_reset + pending at all times.
        engine = PartiallySynchronousScheduler(4, max_delay=2, delay_prob=0.6, seed=9)
        values = _values(4)
        for exchange in range(3):
            for r in range(4):
                engine.run_round(r, _honest_plan(values))
            stats = engine.stats
            assert stats["sent"] == (
                stats["delivered"] + stats["expired_at_reset"] + engine.pending_count()
            )
            engine.reset()
        assert engine.stats["dropped"] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartiallySynchronousScheduler(3, max_delay=-1)
        with pytest.raises(ValueError):
            PartiallySynchronousScheduler(3, delay_prob=1.5)


class TestLossyScheduler:
    def test_zero_drop_matches_synchronous(self):
        n = 4
        lossy = LossyScheduler(n, drop_rate=0.0, seed=0)
        sync = SynchronousScheduler(n)
        values = _values(n)
        a = lossy.run_round(0, _honest_plan(values))
        b = sync.run_round(0, _honest_plan(values))
        for node in range(n):
            assert a.senders(node) == b.senders(node)

    def test_drops_are_seeded(self):
        def senders(seed):
            engine = LossyScheduler(5, drop_rate=0.4, seed=seed)
            result = engine.run_round(0, _honest_plan(_values(5)))
            return [result.senders(node) for node in range(5)]

        assert senders(7) == senders(7)
        assert senders(7) != senders(8)

    def test_self_delivery_never_dropped(self):
        engine = LossyScheduler(4, drop_rate=0.95, seed=2)
        result = engine.run_round(0, _honest_plan(_values(4)))
        for node in range(4):
            assert node in result.senders(node)

    def test_crash_window_silences_node_both_ways(self):
        engine = LossyScheduler(4, crash_schedule=[(1, 0, 2)], seed=0)
        values = _values(4)
        r0 = engine.run_round(0, _honest_plan(values))
        for node in range(4):
            assert 1 not in r0.senders(node)
        assert r0.senders(1) == []
        engine.run_round(1, _honest_plan(values))
        r2 = engine.run_round(2, _honest_plan(values))
        # Recovery: the window [0, 2) is over on the third round.
        assert 1 in r2.senders(0)
        assert r2.senders(1) == [0, 1, 2, 3]
        assert engine.stats["crash_omitted"] > 0

    def test_crash_clock_is_monotone_across_resets(self):
        engine = LossyScheduler(3, crash_schedule=[(0, 2, 3)], seed=0)
        values = _values(3)
        engine.run_round(0, _honest_plan(values))
        engine.reset()  # exchange boundary must not rewind the clock
        engine.run_round(0, _honest_plan(values))
        result = engine.run_round(1, _honest_plan(values))  # global round 2
        assert 0 not in result.senders(1)

    def test_invalid_crash_windows(self):
        with pytest.raises(ValueError):
            LossyScheduler(3, crash_schedule=[(5, 0, 1)])
        with pytest.raises(ValueError):
            LossyScheduler(3, crash_schedule=[(0, 2, 2)])
        with pytest.raises(ValueError):
            LossyScheduler(3, crash_schedule=[(0, 1)])

    def test_invalid_drop_rate(self):
        with pytest.raises(ValueError):
            LossyScheduler(3, drop_rate=1.0)

    def test_crashed_sender_does_not_inflate_sent(self):
        # Regression: a crashed node "neither sends nor receives", so
        # its would-be sends are `suppressed` and must stay out of the
        # deliv% denominator.  Pinned counters: n=3, node 1 down for the
        # single round -> node 1's 3 sends suppressed; of the remaining
        # 6 sends the two addressed to node 1 are crash-omitted.
        engine = LossyScheduler(3, crash_schedule=[(1, 0, 1)], seed=0)
        engine.run_round(0, _honest_plan(_values(3)))
        assert engine.stats_snapshot() == {
            "sent": 6,
            "delivered": 4,
            "dropped": 0,
            "delayed": 0,
            "crash_omitted": 2,
            "suppressed": 3,
        }
        # The identity the counters are supposed to satisfy.
        assert engine.stats["sent"] == (
            engine.stats["delivered"] + engine.stats["dropped"]
            + engine.stats["crash_omitted"]
        )

    def test_drop_stream_independent_of_crash_schedule(self):
        # Regression: the per-link drop variate is drawn with common
        # random numbers, so adding a crash window must not reshuffle
        # which of the *surviving* links drop for the same seed.
        def survivor_senders(crash_schedule):
            engine = LossyScheduler(
                6, drop_rate=0.5, crash_schedule=crash_schedule, seed=13
            )
            result = engine.run_round(0, _honest_plan(_values(6)))
            # Links not touching the crashed node exist in both runs.
            return {
                node: [s for s in result.senders(node) if s != 2]
                for node in range(6)
                if node != 2
            }

        assert survivor_senders([]) == survivor_senders([(2, 0, 1)])


class TestAsynchronousScheduler:
    def _engine(self, n=5, **kwargs):
        kwargs.setdefault("timeout_rounds", 3.0)
        kwargs.setdefault("seed", 3)
        engine = AsynchronousScheduler(n, **kwargs)
        return engine

    def test_requires_explicit_wait_condition(self):
        engine = self._engine()
        with pytest.raises(RuntimeError, match="wait condition"):
            engine.run_round(0, _honest_plan(_values(5)))

    def test_wait_count_stops_at_target(self):
        # Waiting for exactly 2 messages: every node processes its round
        # with at least self-delivery plus whatever beat the deadline,
        # and no node delivers fewer than its target when enough arrive.
        engine = self._engine()
        engine.wait_for(count=2)
        values = _values(5)
        result = engine.run_round(0, _honest_plan(values))
        for node in range(5):
            assert node in result.senders(node)  # self-delivery immediate
            assert len(result.inboxes[node]) >= 2

    def test_quorum_wait_uses_require_quorum(self):
        engine = self._engine()
        engine.require_quorum(4, policy="starve")
        engine.wait_for(quorum=True)
        result = engine.run_round(0, _honest_plan(_values(5)))
        for node in range(5):
            assert len(result.inboxes[node]) >= 4

    def test_explicit_count_wins_over_quorum(self):
        engine = self._engine(wait_count=1)
        engine.require_quorum(4, policy="starve")
        engine.wait_for(quorum=True)
        assert engine.wait.count == 1  # the pinned count survived
        engine.run_round(0, _honest_plan(_values(5)))

    def test_no_message_ever_lost(self):
        engine = self._engine()
        engine.wait_for(quorum=True)  # target 0: wait the full window
        values = _values(5)
        for r in range(8):
            engine.run_round(r, _honest_plan(values))
        stats = engine.stats
        assert stats["sent"] == 5 * 5 * 8
        assert stats["dropped"] == 0
        assert stats["sent"] == stats["delivered"] + engine.pending_count()

    def test_deterministic_given_seed(self):
        def trace(seed):
            engine = self._engine(seed=seed)
            engine.wait_for(count=3)
            values = _values(5)
            out = []
            for r in range(6):
                result = engine.run_round(r, _honest_plan(values))
                out.append([result.senders(node) for node in range(5)])
            return out

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)

    def test_burstiness_changes_delay_profile(self):
        def delayed(burstiness):
            engine = self._engine(
                burstiness=burstiness, burst_factor=20.0, timeout_rounds=1.0, seed=5
            )
            engine.wait_for(count=5)  # full inbox, bounded by the timeout
            values = _values(5)
            for r in range(20):
                engine.run_round(r, _honest_plan(values))
            return engine.stats["delayed"]

        # A bursty regime holds strictly more messages past their round.
        assert delayed(0.8) > delayed(0.0)

    def test_adversary_delay_uncapped(self):
        # No horizon: a pinned lag of 7 rounds is honoured, not clamped.
        engine = self._engine(n=3, byzantine=[2], timeout_rounds=1.0)
        engine.wait_for(count=1)
        values = _values(2)

        def adversary(node, r, honest):
            return BroadcastPlan(
                sender=node, payload=np.full(2, 9.0), delays={0: 7, 1: 0}
            )

        r0 = engine.run_round(0, _honest_plan(values), adversary)
        assert 2 in r0.senders(1) and 2 not in r0.senders(0)
        # Every round's message to node 0 lags 7 rounds, so the only one
        # that can arrive by round 7 is the round-0 message.
        for r in range(1, 7):
            result = engine.run_round(r, _honest_plan(values), adversary)
            assert 2 not in result.senders(0)
        r7 = engine.run_round(7, _honest_plan(values), adversary)
        assert 2 in r7.senders(0)

    def test_reset_expires_in_flight(self):
        engine = self._engine(timeout_rounds=1.0)
        engine.wait_for(count=1)
        engine.run_round(0, _honest_plan(_values(5)))
        pending = engine.pending_count()
        assert pending > 0
        engine.reset()
        assert engine.pending_count() == 0
        assert engine.stats["expired_at_reset"] == pending
        assert engine.stats["dropped"] == 0

    def test_per_round_traces_recorded(self):
        engine = self._engine()
        engine.wait_for(count=2)
        values = _values(5)
        for r in range(3):
            engine.run_round(r, _honest_plan(values))
        traces = engine.trace_snapshot()
        assert [row["round"] for row in traces] == [0, 1, 2]
        assert all(row["sent"] == 25 for row in traces)
        assert sum(row.get("delivered", 0) for row in traces) == engine.stats["delivered"]
        # Traces survive exchange resets (they describe the whole run).
        engine.reset()
        assert len(engine.trace_snapshot()) == 3

    def test_exchange_runs_end_to_end(self):
        engine = self._engine()
        engine.require_quorum(3, policy="starve")
        engine.wait_for(quorum=True, timeout_rounds=2.0)
        initial = {i: np.full(2, float(i)) for i in range(5)}
        final = run_exchange(
            engine, initial, 4, lambda _n, received: received.mean(axis=0)
        )
        assert len(final) == 5
        spread = max(float(np.linalg.norm(final[i] - final[j]))
                     for i in final for j in final)
        assert spread < 4.0  # the exchange contracts despite the asynchrony

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, timeout_rounds=0.0)
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, tail_index=1.0)
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, burstiness=1.0)
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, burst_factor=0.5)
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, delay_scale=-0.1)
        with pytest.raises(ValueError):
            AsynchronousScheduler(3, wait_count=-1)


class TestWaitConditionApi:
    def test_merge_semantics(self):
        engine = SynchronousScheduler(4)
        engine.wait_for(count=3)
        engine.wait_for(quorum=True, timeout_rounds=2.5)
        assert engine.wait == WaitCondition(count=3, quorum=True, timeout_rounds=2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaitCondition(count=-1)
        with pytest.raises(ValueError):
            WaitCondition(timeout_rounds=0.0)

    def test_horizon_schedulers_ignore_wait(self):
        engine = SynchronousScheduler(3)
        engine.wait_for(count=1, timeout_rounds=1.0)
        result = engine.run_round(0, _honest_plan(_values(3)))
        # Lock-step delivery is unchanged: full inboxes regardless.
        assert all(len(result.inboxes[n]) == 3 for n in range(3))


class TestMakeScheduler:
    def test_names(self):
        assert isinstance(make_scheduler("synchronous", 4), SynchronousScheduler)
        assert isinstance(make_scheduler("partial", 4, delay=1), PartiallySynchronousScheduler)
        assert isinstance(make_scheduler("lossy", 4, drop_rate=0.1), LossyScheduler)
        assert isinstance(
            make_scheduler("asynchronous", 4, wait_timeout=2.0), AsynchronousScheduler
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("quantum", 4)

    def test_async_knobs_threaded(self):
        engine = make_scheduler(
            "asynchronous", 4, wait_count=2, wait_timeout=1.5, burstiness=0.3
        )
        assert engine.wait.count == 2
        assert engine.timeout_rounds == 1.5
        assert engine.burstiness == 0.3

    def test_mismatched_knobs_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("synchronous", 4, drop_rate=0.1)
        with pytest.raises(ValueError):
            make_scheduler("partial", 4)  # delay missing
        with pytest.raises(ValueError):
            make_scheduler("partial", 4, delay=1, drop_rate=0.2)
        with pytest.raises(ValueError):
            make_scheduler("lossy", 4, delay=2)
        with pytest.raises(ValueError):
            make_scheduler("asynchronous", 4)  # wait_timeout missing
        with pytest.raises(ValueError):
            make_scheduler("asynchronous", 4, wait_timeout=2.0, drop_rate=0.1)
        with pytest.raises(ValueError):
            make_scheduler("lossy", 4, drop_rate=0.1, wait_timeout=2.0)


class TestRunExchange:
    def test_mean_exchange_converges(self):
        engine = SynchronousScheduler(3)
        initial = {i: np.full(2, float(i)) for i in range(3)}
        final = run_exchange(
            engine, initial, 1, lambda _n, received: received.mean(axis=0)
        )
        for vec in final.values():
            np.testing.assert_allclose(vec, [1.0, 1.0])

    def test_starved_node_keeps_vector(self):
        # Node 1 is crashed for the round: it receives nothing and must
        # simply carry its current vector instead of failing.
        engine = LossyScheduler(3, crash_schedule=[(1, 0, 1)], seed=0)
        # Quorum 2: the crashed node (0 messages) starves; the others
        # still clear the bar with the two surviving senders.
        engine.require_quorum(2, policy="starve")
        initial = {i: np.full(2, float(i)) for i in range(3)}
        final = run_exchange(
            engine, initial, 1, lambda _n, received: received.mean(axis=0)
        )
        np.testing.assert_array_equal(final[1], initial[1])
        np.testing.assert_allclose(final[0], [1.0, 1.0])

    def test_empty_inbox_stalls_instead_of_raising(self):
        # No quorum configured: the starved branch is off, so the node
        # hits its empty inbox and must treat it as a stall.
        engine = LossyScheduler(3, crash_schedule=[(1, 0, 1)], seed=0)
        initial = {i: np.full(2, float(i)) for i in range(3)}
        final = run_exchange(
            engine, initial, 1, lambda _n, received: received.mean(axis=0)
        )
        np.testing.assert_array_equal(final[1], initial[1])

    def test_negative_rounds_rejected(self):
        engine = SynchronousScheduler(2)
        with pytest.raises(ValueError):
            run_exchange(engine, {0: np.zeros(1), 1: np.zeros(1)}, -1, lambda n, r: r)


class TestTimingAttacks:
    def _context(self, round_index=0, horizon=0):
        return AttackContext(
            node=3,
            round_index=round_index,
            own_vector=np.ones(2),
            honest_vectors={0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])},
            rng=np.random.default_rng(0),
            horizon=horizon,
        )

    def test_withhold_then_rush(self):
        attack = WithholdThenRushAttack(withhold_rounds=2, scale=4.0)
        assert attack.corrupt(self._context(round_index=0)) is None
        assert attack.corrupt(self._context(round_index=1)) is None
        late = attack.corrupt(self._context(round_index=2))
        np.testing.assert_allclose(late, [-2.0, -2.0])

    def test_selective_delay_targets_upper_half(self):
        attack = SelectiveDelayAttack(delay=3)
        delays = attack.send_delays(self._context(horizon=2))
        # Late half capped at the horizon, early half pinned immediate.
        assert delays == {0: 0, 1: 2}

    def test_selective_delay_degrades_under_synchrony(self):
        attack = SelectiveDelayAttack(delay=2)
        assert attack.send_delays(self._context(horizon=0)) is None
        payload = attack.corrupt(self._context(horizon=0))
        np.testing.assert_allclose(payload, [-0.5, -0.5])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WithholdThenRushAttack(withhold_rounds=-1)
        with pytest.raises(ValueError):
            SelectiveDelayAttack(delay=0)
        with pytest.raises(ValueError):
            AdaptiveDelayAttack(max_lag=0)
        with pytest.raises(ValueError):
            AdaptiveDelayAttack(window=0)
        with pytest.raises(ValueError, match="trace rounds"):
            # Larger than the engine ever exposes: reject rather than
            # silently behaving like the bound.
            AdaptiveDelayAttack(window=DELIVERY_TRACE_WINDOW + 1)

    def _adaptive_context(self, trace, horizon=3):
        return AttackContext(
            node=3,
            round_index=1,
            own_vector=np.ones(2),
            honest_vectors={0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])},
            rng=np.random.default_rng(0),
            horizon=horizon,
            delivery_trace=trace,
        )

    def test_adaptive_delay_scales_with_observed_fill(self):
        attack = AdaptiveDelayAttack(max_lag=3)
        healthy = ({"round": 0, "sent": 20, "delivered": 20},)
        starving = ({"round": 0, "sent": 20, "delivered": 2},)
        # Healthy network: hold the corrupted value back maximally.
        assert attack.send_delays(self._adaptive_context(healthy)) == {0: 3, 1: 3}
        # Starving network: strike immediately (no delay request).
        assert attack.send_delays(self._adaptive_context(starving)) is None

    def test_adaptive_delay_without_trace_uses_max_lag(self):
        attack = AdaptiveDelayAttack(max_lag=2)
        assert attack.send_delays(self._adaptive_context(())) == {0: 2, 1: 2}

    def test_adaptive_delay_degrades_under_synchrony(self):
        attack = AdaptiveDelayAttack()
        assert attack.send_delays(self._adaptive_context((), horizon=0)) is None
        payload = attack.corrupt(self._adaptive_context(()))
        np.testing.assert_allclose(payload, [-0.5, -0.5])

    def test_adaptive_delay_drives_exchange(self):
        # End to end on the asynchronous engine: the attack must observe
        # a non-empty delivery trace after the first round and still let
        # the exchange complete.
        engine = AsynchronousScheduler(
            5, byzantine=[4], timeout_rounds=2.0, seed=2
        )
        engine.require_quorum(3, policy="starve")
        engine.wait_for(quorum=True)
        attack = AdaptiveDelayAttack(max_lag=2)
        seen = []
        original = attack.send_delays

        def spying_send_delays(context):
            seen.append(len(context.delivery_trace))
            return original(context)

        attack.send_delays = spying_send_delays
        initial = {i: np.full(2, float(i)) for i in range(4)}
        run_exchange(
            engine, initial, 3, lambda _n, r: r.mean(axis=0),
            attack_for=lambda _n: attack, byzantine_vectors={4: np.zeros(2)},
            rng=np.random.default_rng(0),
        )
        assert seen[0] == 0 and seen[-1] > 0


class TestPlanDelayValidation:
    def test_honest_sender_cannot_delay(self):
        rb = ReliableBroadcast(3, byzantine=[2])
        plan = BroadcastPlan(sender=0, payload=np.ones(1), delays={1: 1})
        with pytest.raises(ValueError):
            rb.validate_plan(plan)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            BroadcastPlan(sender=0, payload=np.ones(1), delays={1: -1})


def _drive(engine, n, rounds, *, start=0):
    """Submit ``rounds`` full-broadcast rounds of seeded random payloads."""
    rng = np.random.default_rng(3)
    for round_index in range(start, start + rounds):
        plans = [full_broadcast_plan(node, rng.random(4)) for node in range(n)]
        engine.submit(plans, round_index)


@pytest.mark.parametrize("scheduler", ["partial", "asynchronous"])
class TestConservation:
    """``sent == delivered + expired_at_reset + pending``, across a reset."""

    SETUPS = {
        "partial": dict(delay=3, delay_prob=0.4, seed=11),
        "asynchronous": dict(wait_timeout=2.0, burstiness=0.3, seed=11),
    }

    def _engine(self, scheduler, n, **extra):
        engine = make_scheduler(scheduler, n, **self.SETUPS[scheduler], **extra)
        if scheduler == "asynchronous":
            engine.wait_for(count=n - 2)
        return engine

    def test_aggregate_identity_across_reset(self, scheduler):
        n = 10
        engine = self._engine(scheduler, n)
        _drive(engine, n, rounds=6)
        engine.reset()  # expires the in-flight tail
        _drive(engine, n, rounds=6, start=6)
        stats = engine.stats_snapshot()
        assert stats["sent"] == (
            stats["delivered"] + stats["expired_at_reset"] + engine.pending_count()
        )
        assert stats["dropped"] == 0  # these models never lose a message

    def test_per_node_identity(self, scheduler):
        n = 10
        engine = self._engine(scheduler, n, node_trace=True)
        _drive(engine, n, rounds=5)
        engine.reset()
        _drive(engine, n, rounds=5, start=5)
        node = engine.node_stats
        zeros = np.zeros(n, dtype=np.int64)
        sent = node.get("sent", zeros)
        delivered = node.get("delivered", zeros)
        expired = node.get("expired_at_reset", zeros)
        pending = engine.pending_count_per_node()
        np.testing.assert_array_equal(sent, delivered + expired + pending)
        # Per-node columns sum to the aggregate counters.
        assert int(sent.sum()) == engine.stats["sent"]
        assert int(delivered.sum()) == engine.stats["delivered"]


ISOLATION_SETUPS = {
    "synchronous": {},
    "partial": {"delay": 2, "seed": 11},
    "lossy": {"drop_rate": 0.2, "crash_schedule": ((1, 1, 3),), "seed": 11},
    "asynchronous": {"wait_timeout": 2.0, "burstiness": 0.4, "seed": 11},
}


def _isolation_run(scheduler, *, n=7, rounds=5, **extra):
    engine = make_scheduler(
        scheduler, n, (n - 1,), **ISOLATION_SETUPS[scheduler], **extra
    )
    if scheduler == "asynchronous":
        engine.wait_for(count=n - 2)
    rng = np.random.default_rng(3)
    state = []
    for round_index in range(rounds):
        plans = [full_broadcast_plan(node, rng.random(4)) for node in range(n)]
        result = engine.submit(plans, round_index)
        for node in range(n):
            matrix = (
                result.received_matrix(node).tobytes()
                if len(result.inboxes[node]) else b""
            )
            state.append((node, matrix, tuple(result.senders(node))))
    return state, engine.stats_snapshot(), engine.trace_snapshot()


@pytest.mark.parametrize("scheduler", sorted(ISOLATION_SETUPS))
def test_rng_stream_isolation(scheduler):
    """node_trace and an explicit complete topology never shift the stream.

    The scheduler RNG streams are a bitwise contract: observability knobs
    must be invisible to them, or paired-seed comparisons (and the pinned
    fixtures) silently break.
    """
    baseline = _isolation_run(scheduler)
    variants = {"complete_topology": {"topology": make_topology("complete", 7)}}
    if scheduler != "synchronous":
        # The synchronous scheduler records no stats, so config-level
        # validation rejects per-node tracing there.
        variants["node_trace"] = {"node_trace": True}
    for name, extra in variants.items():
        assert _isolation_run(scheduler, **extra) == baseline, (
            f"{name} shifted the {scheduler} RNG stream"
        )
