"""Round-engine acceptance tests.

Three contracts of the scheduler-pluggable refactor:

1. **Bitwise equivalence** — the ``SynchronousScheduler`` path must
   reproduce the pre-refactor trainers and agreement protocol exactly
   for fixed seeds.  The reference numbers live in
   ``tests/fixtures/equivalence_pre_refactor.json``, generated at the
   last pre-refactor commit (see the sibling generator script); floats
   survive the JSON round trip losslessly, so ``==`` is bitwise.
2. **Crash × quorum interaction** — ``require_quorum`` must fire under
   ``LossyScheduler`` crash windows with the strict policy, and stall
   (not fail) with the ``"starve"`` policy.
3. **Lossy scenarios end to end** — a sweep spec with
   ``scheduler=lossy`` and nonzero ``drop_rate`` runs through
   ``python -m repro.cli sweep``, and the dataset/shard cache keeps the
   streamed JSONL byte-identical.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.agreement.base import AgreementProtocol, make_algorithm
from repro.byzantine.sign_flip import SignFlipAttack
from repro.cli import main as cli_main
from repro.engine import LossyScheduler
from repro.io.results import history_to_dict
from repro.network.delivery import full_broadcast_plan
from repro.learning.experiment import (
    ExperimentConfig,
    clear_data_cache,
    data_cache_stats,
    run_experiment,
)

FIXTURES = Path(__file__).parent / "fixtures" / "equivalence_pre_refactor.json"


def small_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        setting="centralized",
        dataset="mnist",
        heterogeneity="uniform",
        aggregation="box-geom",
        attack="sign-flip",
        num_clients=6,
        num_byzantine=1,
        rounds=3,
        num_samples=240,
        batch_size=8,
        learning_rate=0.1,
        mlp_hidden=(16, 8),
        seed=0,
    )
    return base.with_overrides(**overrides)


def json_round_trip(data):
    return json.loads(json.dumps(data))


class TestPinnedFixtures:
    """The synchronous path is bitwise-identical to the pre-refactor code."""

    @pytest.fixture(scope="class")
    def fixture_payload(self):
        return json.loads(FIXTURES.read_text())

    @pytest.mark.parametrize(
        "label, overrides",
        [
            ("centralized/box-geom/sign-flip", {}),
            ("centralized/krum/crash", {"aggregation": "krum", "attack": "crash"}),
            ("decentralized/box-geom/sign-flip", {"setting": "decentralized", "rounds": 2}),
            (
                "decentralized/md-mean/none",
                {
                    "setting": "decentralized", "rounds": 2, "aggregation": "md-mean",
                    "attack": None, "num_byzantine": 0,
                },
            ),
        ],
    )
    def test_trainer_history_bitwise(self, fixture_payload, label, overrides):
        history = run_experiment(small_config(**overrides))
        assert json_round_trip(history_to_dict(history)) == fixture_payload["histories"][label]

    def test_agreement_trace_bitwise(self, fixture_payload):
        reference = fixture_payload["agreement"]
        rng = np.random.default_rng(reference["inputs_seed"])
        algorithm = make_algorithm("box-geom", 7, 1)
        protocol = AgreementProtocol(
            algorithm, byzantine=(6,), attack=SignFlipAttack(), seed=7
        )
        result = protocol.run(rng.normal(size=(6, 4)), rounds=3)
        assert json_round_trip(result.final_matrix().tolist()) == reference["final_matrix"]
        assert json_round_trip(result.diameter_trace()) == reference["diameter_trace"]

    def test_synchronous_history_dict_layout_unchanged(self):
        # The wait-condition / delivery-trace machinery must leave the
        # synchronous serialisation untouched: no network_stats, no
        # delivery_trace key, same field set as the pinned fixtures.
        history = run_experiment(small_config())
        data = history_to_dict(history)
        assert "network_stats" not in data
        assert "delivery_trace" not in data


class TestAsynchronousEndToEnd:
    """The event-driven scheduler runs every consumer with explicit waits."""

    def _async_config(self, **overrides):
        overrides = {
            "scheduler": "asynchronous", "wait_timeout": 2.0, "burstiness": 0.2,
            "rounds": 2, **overrides,
        }
        return small_config(**overrides)

    def test_agreement_protocol_contracts(self):
        from repro.engine import AsynchronousScheduler

        n, t = 7, 2
        algorithm = make_algorithm("box-mean", n, t)
        engine = AsynchronousScheduler(
            n, byzantine=[6], timeout_rounds=2.0, burstiness=0.3, seed=4
        )
        protocol = AgreementProtocol(
            algorithm, byzantine=(6,), attack=SignFlipAttack(), engine=engine
        )
        # The protocol installed its quorum wait condition on the engine.
        assert engine.wait.quorum and engine.wait.count is None
        inputs = np.random.default_rng(5).normal(size=(n - 1, 3))
        result = protocol.run(inputs, rounds=5)
        trace = result.diameter_trace()
        assert trace[-1] < trace[0]
        assert engine.stats["delivered"] > 0

    def test_both_trainers_run(self):
        for setting, rounds in (("centralized", 2), ("decentralized", 2)):
            history = run_experiment(self._async_config(setting=setting, rounds=rounds))
            assert history.rounds == rounds
            assert history.network_stats["sent"] > 0
            assert history.network_stats["dropped"] == 0  # asynchrony loses nothing
            assert history.delivery_trace  # per-round rows recorded
            assert all("round" in row for row in history.delivery_trace)
            # Cumulative counters equal the trace totals (per counter).
            for key in ("sent", "delivered", "delayed"):
                assert history.network_stats[key] == sum(
                    row.get(key, 0) for row in history.delivery_trace
                )

    def test_wait_count_override_reaches_engine(self):
        from repro.learning.experiment import _make_engine

        config = self._async_config(setting="decentralized", wait_count=3)
        engine = _make_engine(config, (5,))
        assert engine.wait.count == 3  # the config-pinned count arrived
        # A consumer's quorum default must not clobber the pinned count.
        algorithm = make_algorithm("box-mean", config.num_clients, 1)
        AgreementProtocol(algorithm, byzantine=(5,), engine=engine)
        assert engine.wait.count == 3 and engine.wait.quorum
        history = run_experiment(config)
        assert history.rounds == 2  # and the pinned count still trains

    def test_adaptive_delay_attack_end_to_end(self):
        for setting in ("decentralized", "centralized"):
            history = run_experiment(
                self._async_config(setting=setting, attack="adaptive-delay")
            )
            assert history.attack == "adaptive-delay"
            assert history.rounds == 2

    def test_star_exchange_honours_attack_delays(self):
        # Regression: attacks state lags per honest receiver, but the
        # centralized exchange has a single client -> server link — the
        # strongest requested lag must reach the server delivery instead
        # of being silently voided by the topology mismatch.
        from repro.aggregation.registry import make_rule
        from repro.engine import PartiallySynchronousScheduler
        from repro.learning.centralized import CentralizedTrainer
        from repro.learning.experiment import build_experiment
        from repro.nn.optimizers import SGD

        config = small_config(attack="selective-delay",
                              attack_kwargs={"delay": 2}, rounds=3)
        built = build_experiment(config)
        byz = tuple(c.client_id for c in built.clients if c.is_byzantine)
        # delay_prob=0: honest links deliver immediately, so any lag in
        # the server inbox is the adversary's pinned request.
        engine = PartiallySynchronousScheduler(
            config.num_clients + 1, byz, max_delay=2, delay_prob=0.0, seed=0,
            require_full_broadcast=False,
        )
        results = []
        submit = engine.submit

        def recording_submit(plans, round_index):
            results.append(submit(plans, round_index))
            return results[-1]

        engine.submit = recording_submit
        trainer = CentralizedTrainer(
            built.global_model, built.clients, make_rule("box-geom", n=6, t=1),
            built.test_data, optimizer=SGD(0.1, total_rounds=3), engine=engine,
        )
        trainer.train(3)
        senders = [result.senders(trainer.server_node) for result in results]
        byz_id = byz[0]
        # Every round the Byzantine gradient is held back by the pinned
        # lag, so it is missing from rounds 0 and 1...
        assert byz_id not in senders[0] and byz_id not in senders[1]
        # ...and the round-0 one arrives exactly 2 rounds later.
        assert byz_id in senders[2]

    def test_history_round_trips_with_trace(self):
        from repro.io.results import history_from_dict

        history = run_experiment(self._async_config())
        restored = history_from_dict(json_round_trip(history_to_dict(history)))
        assert restored.delivery_trace == history.delivery_trace
        assert restored.network_stats == history.network_stats

    def test_cli_sweep_over_burstiness(self, tmp_path, capsys):
        spec = {
            "base": {
                "setting": "centralized",
                "heterogeneity": "uniform",
                "aggregation": "box-geom",
                "attack": "sign-flip",
                "num_clients": 6,
                "num_byzantine": 1,
                "rounds": 2,
                "num_samples": 240,
                "batch_size": 8,
                "mlp_hidden": [16, 8],
                "seed": 0,
                "scheduler": "asynchronous",
                "wait_timeout": 2.0,
            },
            "axes": {"burstiness": [0.0, 0.4]},
        }
        spec_path = tmp_path / "async_spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.jsonl"
        code = cli_main(["sweep", str(spec_path), "--output", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert row["config"]["scheduler"] == "asynchronous"
            assert row["summary"]["network"]["sent"] > 0
            assert row["summary"]["trace"]["rounds"] > 0
            assert row["history"]["delivery_trace"]
        # The summary table surfaces the per-round trace columns.
        table = capsys.readouterr().out
        assert "wrst%" in table and "late" in table


class TestCrashQuorumInteraction:
    def test_require_quorum_fires_inside_crash_window(self):
        n = 5
        engine = LossyScheduler(n, crash_schedule=[(1, 1, 3)], seed=0)
        engine.require_quorum(n - 1)  # strict policy
        values = {i: np.full(2, float(i)) for i in range(n)}
        plan = lambda node, _r: full_broadcast_plan(node, values[node])
        engine.run_round(0, plan)  # before the window: fine
        with pytest.raises(RuntimeError, match="quorum"):
            engine.run_round(1, plan)

    def test_protocol_survives_crash_window_with_starve_policy(self):
        n, t = 7, 2
        algorithm = make_algorithm("box-mean", n, t)
        engine = LossyScheduler(n, byzantine=[6], crash_schedule=[(0, 0, 2)], seed=3)
        protocol = AgreementProtocol(algorithm, byzantine=(6,), engine=engine)
        inputs = np.random.default_rng(5).normal(size=(n - 1, 3))
        result = protocol.run(inputs, rounds=4)
        # Node 0 was down for the first two sub-rounds: it stalls on its
        # input vector there instead of aborting the run...
        np.testing.assert_array_equal(result.per_round[0][0], inputs[0])
        np.testing.assert_array_equal(result.per_round[1][0], inputs[0])
        # ...and after recovery the exchange still contracts.
        trace = result.diameter_trace()
        assert trace[-1] < trace[0]

    def test_trainer_survives_crash_window(self):
        history = run_experiment(
            small_config(
                scheduler="lossy", drop_rate=0.1, crash_schedule=((2, 0, 2),), rounds=2
            )
        )
        assert history.rounds == 2
        # The crashed client is a *sender* in the star exchange: its
        # would-be sends are suppressed (never sent), not crash-omitted.
        assert history.network_stats["suppressed"] > 0
        assert history.network_stats["sent"] == (
            history.network_stats["delivered"]
            + history.network_stats["dropped"]
            + history.network_stats["crash_omitted"]
        )


class TestLossyScenarioEndToEnd:
    def _spec(self, tmp_path: Path) -> Path:
        spec = {
            "base": {
                "setting": "centralized",
                "heterogeneity": "uniform",
                "aggregation": "box-geom",
                "attack": "sign-flip",
                "num_clients": 6,
                "num_byzantine": 1,
                "rounds": 2,
                "num_samples": 240,
                "batch_size": 8,
                "mlp_hidden": [16, 8],
                "seed": 0,
            },
            "axes": {
                "scheduler": ["synchronous", "lossy"],
                "drop_rate": [0.0, 0.2],
            },
        }
        path = tmp_path / "lossy_spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_cli_sweep_with_lossy_scheduler(self, tmp_path, capsys):
        # scheduler x drop_rate contains two invalid combinations
        # (synchronous with loss, lossy without); prune them up front so
        # the spec mirrors how a real mixed-scheduler sweep is written.
        spec_path = self._spec(tmp_path)
        spec = json.loads(spec_path.read_text())
        spec["axes"] = {"scheduler": ["lossy"], "drop_rate": [0.2, 0.4]}
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.jsonl"
        code = cli_main(["sweep", str(spec_path), "--output", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert row["config"]["scheduler"] == "lossy"
            assert row["summary"]["network"]["dropped"] > 0
            assert row["history"]["network_stats"]["sent"] > 0
        # The summary table surfaces the delivery rate column.
        assert "deliv%" in capsys.readouterr().out

    def test_invalid_scheduler_combination_fails_fast(self, tmp_path):
        code = cli_main(["sweep", str(self._spec(tmp_path)), "--dry-run"])
        assert code == 2  # synchronous cells with drop_rate 0.2 are invalid

    def test_crash_schedule_axis_round_trips(self):
        from repro.sweep.grid import ScenarioGrid, config_from_dict, config_to_dict

        grid = ScenarioGrid(
            small_config(scheduler="lossy", drop_rate=0.1),
            {"crash_schedule": [[], [[2, 0, 2]], [[1, 0, 1], [3, 2, 4]]]},
        )
        cells = grid.cells()
        assert [cell.cell_id for cell in cells] == [
            "crash_schedule=",
            "crash_schedule=2-0-2",
            "crash_schedule=1-0-1x3-2-4",
        ]
        for cell in cells:
            round_tripped = config_from_dict(json_round_trip(config_to_dict(cell.config)))
            assert round_tripped == cell.config


class TestDatasetCacheReuse:
    def test_cells_sharing_data_axes_hit_the_cache(self):
        clear_data_cache()
        run_experiment(small_config(rounds=1))
        first = data_cache_stats()
        assert first["hits"] == 0 and first["misses"] == 2
        # Same data axes, different aggregation rule: both builds reuse.
        run_experiment(small_config(rounds=1, aggregation="krum"))
        second = data_cache_stats()
        assert second["hits"] == 2 and second["misses"] == 2

    def test_different_seed_misses(self):
        clear_data_cache()
        run_experiment(small_config(rounds=1))
        run_experiment(small_config(rounds=1, seed=1))
        assert data_cache_stats()["hits"] == 0

    def test_jsonl_output_identical_hot_and_cold(self, tmp_path):
        from repro.sweep import ScenarioGrid, SweepRunner

        grid = ScenarioGrid(
            small_config(rounds=1),
            {"aggregation": ["mean", "krum"]},
            derive_seeds=False,  # shared seed => shared shards across cells
        )
        clear_data_cache()
        cold = tmp_path / "cold.jsonl"
        SweepRunner(grid, output_path=cold, resume=False).run()
        assert data_cache_stats()["hits"] > 0  # second cell reused the shards
        hot = tmp_path / "hot.jsonl"
        SweepRunner(grid, output_path=hot, resume=False).run()
        assert cold.read_bytes() == hot.read_bytes()
