"""Tests for result persistence (repro.io) and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io.results import (
    history_from_dict,
    history_to_dict,
    load_histories,
    save_histories,
)
from repro.learning.history import RoundRecord, TrainingHistory


def make_history():
    history = TrainingHistory(
        setting="decentralized", aggregation="box-geom", attack="sign-flip",
        heterogeneity="mild", num_clients=7, num_byzantine=1,
    )
    history.append(
        RoundRecord(round_index=0, accuracy=0.2, loss=2.0,
                    per_client_accuracy={0: 0.2, 1: 0.3}, gradient_disagreement=1e-3)
    )
    history.append(RoundRecord(round_index=1, accuracy=0.4, loss=1.5))
    return history


class TestHistorySerialization:
    def test_round_trip(self):
        history = make_history()
        restored = history_from_dict(history_to_dict(history))
        assert restored.setting == history.setting
        assert restored.aggregation == history.aggregation
        assert restored.rounds == history.rounds
        assert restored.accuracies() == history.accuracies()
        assert restored.records[0].per_client_accuracy == {0: 0.2, 1: 0.3}
        assert restored.records[0].gradient_disagreement == pytest.approx(1e-3)
        assert restored.records[1].gradient_disagreement is None

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            history_from_dict({"setting": "centralized"})

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "results" / "run.json"
        histories = {"box-geom": make_history()}
        written = save_histories(histories, path)
        assert written.exists()
        payload = json.loads(written.read_text())
        assert "box-geom" in payload
        loaded = load_histories(written)
        assert loaded["box-geom"].accuracies() == histories["box-geom"].accuracies()

    def test_load_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_histories(path)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--rounds", "2"])
        assert args.command == "run"
        args = parser.parse_args(["compare", "--rules", "mean", "box-geom"])
        assert args.rules == ["mean", "box-geom"]
        args = parser.parse_args(["theory", "--rounds", "3"])
        assert args.rounds == 3

    def test_run_command(self, capsys, tmp_path):
        save_path = tmp_path / "history.json"
        code = main([
            "run", "--aggregation", "box-geom", "--rounds", "2", "--clients", "6",
            "--samples", "240", "--batch-size", "8", "--save", str(save_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert save_path.exists()
        loaded = load_histories(save_path)
        assert "box-geom" in loaded and loaded["box-geom"].rounds == 2

    def test_run_command_no_attack(self, capsys):
        code = main([
            "run", "--aggregation", "mean", "--attack", "none", "--rounds", "1",
            "--clients", "6", "--samples", "240", "--batch-size", "8",
        ])
        assert code == 0
        assert "accuracy per round" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--rules", "mean", "box-geom", "--rounds", "1",
            "--clients", "6", "--samples", "240", "--batch-size", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out and "box-geom" in out and "verdict" in out

    def test_run_prints_delivery_lines_from_run_summary(self, capsys):
        from repro.analysis.reporting import format_percent, run_summary
        from repro.cli import _build_config
        from repro.learning.experiment import experiment_topology, run_experiment

        argv = [
            "run", "--rounds", "2", "--clients", "8", "--samples", "240",
            "--batch-size", "8", "--setting", "decentralized",
            "--scheduler", "lossy", "--drop-rate", "0.1", "--topology", "ring",
            "--exchange", "gossip", "--node-trace",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        args = build_parser().parse_args(argv)
        config = _build_config(args, args.aggregation)
        summary = run_summary(run_experiment(config), experiment_topology(config))
        shape, trace, node = summary["topology"], summary["trace"], summary["node"]
        assert shape["name"] == "ring" and node["nodes"] == 8
        assert summary["network"]["dropped"] > 0
        counters = "  ".join(
            f"{name}={value}" for name, value in sorted(summary["network"].items())
        )
        assert lines[0] == (
            f"topology: ring with {shape['edges']} edges, "
            f"degree {shape['min_degree']}..{shape['max_degree']}, exchange=gossip"
        )
        assert lines[1].startswith("accuracy per round: ")
        assert lines[2:] == [
            f"final accuracy: {summary['final_accuracy']:.3f}  "
            f"best: {summary['best_accuracy']:.3f}",
            f"network delivery: {counters}",
            f"delivery trace: {trace['rounds']} rounds, worst round deliv "
            f"{format_percent(trace['worst_deliv']).strip()}, "
            f"{trace['late']} late messages",
            f"per-node delivery: 8 nodes, worst node {node['worst_node']} at "
            f"{format_percent(node['worst_node_deliv']).strip()}",
        ]

    @pytest.mark.parametrize("argv, fragment", [
        (["run", "--node-trace"], "synchronous scheduler"),
        (["run", "--scheduler", "partial"], "needs delay >= 1"),
        (["run", "--scheduler", "lossy", "--delay", "2"],
         "delay is only meaningful"),
        (["run", "--aggregation", "bogus"], "unknown aggregation 'bogus'"),
        (["run", "--attack", "bogus"], "unknown attack 'bogus'"),
        (["compare", "--rules", "mean", "bogus"], "unknown aggregation 'bogus'"),
        (["compare", "--scheduler", "partial"], "needs delay >= 1"),
        (["run", "--setting", "decentralized", "--topology", "random-regular",
          "--topology-kwargs", '{"degree": 100}'], "needs 1 <= degree < n"),
        (["run", "--aggregation", "safe-area"], "t < n/max(3, d+1)"),
    ])
    def test_invalid_config_exits_2_before_training(self, capsys, argv, fragment):
        code = main(argv + ["--rounds", "1", "--clients", "4", "--samples", "40",
                            "--batch-size", "8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing was trained
        assert captured.err.startswith("invalid experiment config: ")
        assert captured.err.count("\n") == 1 and fragment in captured.err

    def test_rule_and_attack_names_resolve_like_the_registries(self, capsys):
        code = main([
            "run", "--aggregation", "BOX-GEOM", "--attack", " Sign-Flip ",
            "--rounds", "1", "--clients", "4", "--samples", "40",
            "--batch-size", "8",
        ])
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_theory_command(self, capsys):
        code = main(["theory", "--rounds", "3", "--trials", "3", "--dimension", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "safe-area" in out and "box-geom" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_rng_mode_fails_loudly(self):
        from repro.sweep.grid import config_from_dict

        with pytest.raises(ValueError, match="unknown ExperimentConfig fields"):
            config_from_dict({"scheduler": "partial", "delay": 2, "rng_mode": "scalar"})
        with pytest.raises(SystemExit) as exited:
            main(["run", "--rng-mode", "scalar"])
        assert exited.value.code != 0

    def test_removed_dtype_fails_loudly(self):
        from repro.sweep.grid import ScenarioGrid, config_from_dict

        with pytest.raises(ValueError, match="unknown ExperimentConfig fields"):
            config_from_dict({"dtype": "float64"})
        with pytest.raises(ValueError, match="unknown ExperimentConfig fields"):
            ScenarioGrid.from_spec({"base": {"dtype": "float32"},
                                    "axes": {"aggregation": ["mean"]}})
        with pytest.raises(SystemExit) as exited:
            main(["run", "--dtype", "float32"])
        assert exited.value.code != 0


class TestCliSweep:
    SPEC = {
        "base": {
            "num_clients": 4, "num_byzantine": 1, "rounds": 1, "num_samples": 40,
            "batch_size": 8, "mlp_hidden": [8, 4], "seed": 5,
        },
        "axes": {"aggregation": ["mean", "krum"]},
    }

    def _write_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        return spec_path

    def test_dry_run_lists_cells(self, capsys, tmp_path):
        code = main(["sweep", str(self._write_spec(tmp_path)), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "aggregation=mean" in out and "aggregation=krum" in out

    def test_sweep_runs_and_streams_rows(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code = main(["sweep", str(self._write_spec(tmp_path)),
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final" in out and "aggregation" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [row["cell_id"] for row in rows] == [
            "aggregation=mean", "aggregation=krum",
        ]
        # Re-running resumes: every cell is reported as cached.
        code = main(["sweep", str(self._write_spec(tmp_path)),
                     "--output", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out.count("cached") == 2

    def test_missing_spec_errors(self, capsys, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_spec_content_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad_axis.json"
        bad.write_text(json.dumps({"axes": {"bogus_axis": [1]}}))
        assert main(["sweep", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid sweep spec" in err and "bogus_axis" in err
