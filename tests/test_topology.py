"""Topology-aware communication plane acceptance tests.

Five contracts of the sparse-topology refactor:

1. **Generators** — every named topology is seeded and deterministic,
   with actionable errors for infeasible parameterisations.
2. **Structure** — :class:`Topology` exposes a frozen symmetric mask
   with a ``True`` diagonal, sorted closed neighbourhoods, and edge
   removal (:meth:`Topology.without_edges`) as the partition primitive.
3. **Validation** — disconnected graphs and quorum-infeasible degrees
   fail fast with diagnostics that name the fix.
4. **Delivery** — the engines intersect the topology mask with their
   own drop/crash/delay masks: delivery under a ring reproduces the
   object plane's pinned outputs bitwise, and an explicit complete
   topology is bitwise-identical to no topology at all (the ``None``
   default the pinned pre-refactor fixtures exercise).
5. **Learning / sweep integration** — gossip exchange runs on sparse
   graphs, full agreement refuses infeasible ones, partitions
   apply/heal, and the ``topology`` axis round-trips through configs,
   grids and lease bookkeeping.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.byzantine import TopologyPartition, partition_cut
from repro.engine import make_scheduler
from repro.learning.experiment import ExperimentConfig, run_experiment
from repro.network.topology import (
    TOPOLOGY_NAMES,
    Topology,
    make_topology,
    resolve_topology_name,
    validate_topology,
)
from repro.sweep.grid import ScenarioGrid, config_from_dict, config_to_dict

FIXTURES_DIR = Path(__file__).parent / "fixtures"
DELIVERY_FIXTURE = FIXTURES_DIR / "delivery_object_plane.json"
_spec = importlib.util.spec_from_file_location(
    "make_delivery_fixtures", FIXTURES_DIR / "make_delivery_fixtures.py"
)
delivery_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(delivery_gen)


# ---------------------------------------------------------------------------
# 1. generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_registry_names(self):
        assert TOPOLOGY_NAMES == (
            "complete", "ring", "torus", "random-regular", "clusters"
        )

    @pytest.mark.parametrize("alias", ["expander", "random_regular", "EXPANDER"])
    def test_aliases_resolve(self, alias):
        assert resolve_topology_name(alias) == "random-regular"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology_name("star")

    @pytest.mark.parametrize("name,kwargs", [
        ("complete", {}),
        ("ring", {}),
        ("torus", {}),
        ("random-regular", {"degree": 4}),
        ("clusters", {"clusters": 3, "bridges": 2}),
    ])
    def test_deterministic_per_seed(self, name, kwargs):
        a = make_topology(name, 12, seed=7, **kwargs)
        b = make_topology(name, 12, seed=7, **kwargs)
        assert np.array_equal(a.mask, b.mask)
        assert a.name == name

    def test_random_regular_varies_with_seed(self):
        masks = {
            make_topology("random-regular", 16, seed=s).mask.tobytes()
            for s in range(6)
        }
        assert len(masks) > 1

    def test_torus_dimensions(self):
        topo = make_topology("torus", 12, rows=3, cols=4)
        # Interior torus nodes have exactly 4 neighbours.
        assert topo.min_degree == topo.max_degree == 4
        with pytest.raises(ValueError, match="rows\\*cols == n"):
            make_topology("torus", 12, rows=5)

    def test_ring_needs_three_nodes(self):
        with pytest.raises(ValueError, match="n >= 3"):
            make_topology("ring", 2)

    def test_random_regular_parity(self):
        with pytest.raises(ValueError, match="n\\*degree even"):
            make_topology("random-regular", 7, degree=3)

    def test_bad_kwargs_rejected(self):
        with pytest.raises(ValueError, match="bad topology kwargs"):
            make_topology("ring", 8, degree=3)

    def test_disconnected_clusters_fail_fast(self):
        with pytest.raises(ValueError, match="disconnected"):
            make_topology("clusters", 10, clusters=2, bridges=0)


# ---------------------------------------------------------------------------
# 2. structure
# ---------------------------------------------------------------------------

class TestTopologyStructure:
    def test_mask_frozen_symmetric_true_diagonal(self):
        topo = make_topology("ring", 6)
        assert topo.mask.shape == (6, 6)
        assert np.array_equal(topo.mask, topo.mask.T)
        assert topo.mask.diagonal().all()
        with pytest.raises(ValueError):
            topo.mask[0, 3] = True

    def test_neighbours_sorted_and_closed(self):
        topo = make_topology("ring", 6)
        assert topo.neighbours(0).tolist() == [0, 1, 5]
        assert topo.neighbours(3).tolist() == [2, 3, 4]
        assert topo.degrees.tolist() == [2] * 6
        assert topo.num_edges == 6

    def test_complete_detection(self):
        assert make_topology("complete", 5).is_complete
        assert not make_topology("ring", 5).is_complete

    def test_without_edges(self):
        topo = make_topology("ring", 5)
        cut = topo.without_edges([(0, 1)])
        assert cut.name == "ring+cut"
        assert not cut.mask[0, 1] and not cut.mask[1, 0]
        assert cut.is_connected  # a ring survives one cut as a path
        assert topo.mask[0, 1]  # the original is untouched
        with pytest.raises(ValueError, match="self-delivery"):
            topo.without_edges([(2, 2)])

    def test_connected_components(self):
        mask = np.eye(5, dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        mask[2, 3] = mask[3, 2] = True
        topo = Topology("synthetic", mask)
        assert topo.connected_components() == [[0, 1], [2, 3], [4]]
        assert not topo.is_connected

    def test_asymmetric_mask_rejected(self):
        mask = np.eye(3, dtype=bool)
        mask[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Topology("bad", mask)

    def test_summary_is_json_safe(self):
        summary = make_topology("clusters", 9, clusters=3, bridges=1).summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["n"] == 9 and summary["complete"] is False


# ---------------------------------------------------------------------------
# 3. validation diagnostics
# ---------------------------------------------------------------------------

class TestValidation:
    def test_quorum_infeasible_names_the_fix(self):
        topo = make_topology("ring", 8)
        with pytest.raises(ValueError) as err:
            validate_topology(topo, 8, t=1)
        message = str(err.value)
        assert "closed degree" in message
        assert "gossip" in message

    def test_quorum_feasible_passes(self):
        topo = make_topology("random-regular", 8, degree=6)
        validate_topology(topo, 8, t=1)

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError, match="n=4 was expected"):
            validate_topology(make_topology("ring", 6), 4)


# ---------------------------------------------------------------------------
# 4. delivery: engines under sparse topologies
# ---------------------------------------------------------------------------

SCHEDULER_SETUPS = delivery_gen.SCHEDULER_SETUPS


def _run_exchange(scheduler, topology):
    """Full-broadcast rounds at n=8 under the named topology (or None)."""
    return delivery_gen.raw_exchange(scheduler, n=8, topology=topology, wait_count=2)


class TestEngineTopology:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
    def test_cross_plane_identical_under_ring(self, scheduler):
        # The object plane's outputs under a ring, pinned as data.
        case = f"ring/{scheduler}"
        pinned = json.loads(DELIVERY_FIXTURE.read_text())["exchanges"][case]
        assert delivery_gen.case_exchange(case) == pinned

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_SETUPS))
    def test_complete_topology_bitwise_matches_none(self, scheduler):
        assert _run_exchange(scheduler, "complete") == _run_exchange(scheduler, None)

    def test_sparse_topology_restricts_receivers(self):
        ring = make_topology("ring", 8)
        record = _run_exchange("synchronous", "ring")
        for row in record["inboxes"]:
            for node, inbox in enumerate(row):
                assert set(inbox["senders"]) <= set(ring.neighbours(node).tolist())
        # 8 senders x 3 closed-neighbourhood receivers x 5 rounds.
        assert record["stats"]["delivered"] == 8 * 3 * 5

    def test_set_topology_rejects_mismatched_n(self):
        engine = make_scheduler("synchronous", 6)
        with pytest.raises(ValueError):
            engine.set_topology(make_topology("ring", 8))
        with pytest.raises(TypeError):
            engine.set_topology("ring")

    def test_make_scheduler_threads_topology(self):
        ring = make_topology("ring", 6)
        engine = make_scheduler("synchronous", 6, topology=ring)
        assert engine.topology is ring


# ---------------------------------------------------------------------------
# 5a. learning integration
# ---------------------------------------------------------------------------

def tiny_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        setting="decentralized",
        aggregation="box-geom",
        num_clients=6,
        num_byzantine=1,
        rounds=2,
        num_samples=60,
        batch_size=8,
        mlp_hidden=(8, 4),
        seed=5,
    )
    return base.with_overrides(**overrides)


class TestLearningIntegration:
    def test_gossip_on_ring_runs(self):
        history = run_experiment(tiny_config(topology="ring", exchange="gossip"))
        assert len(history.records) == 2
        assert np.isfinite(history.final_accuracy())

    def test_agreement_refuses_infeasible_topology(self):
        with pytest.raises(ValueError, match="quorum"):
            run_experiment(tiny_config(topology="ring"))

    def test_agreement_runs_on_dense_topology(self):
        history = run_experiment(
            tiny_config(topology="random-regular", topology_kwargs={"degree": 5})
        )
        assert len(history.records) == 2

    def test_alias_resolved_in_config(self):
        assert tiny_config(topology="expander").topology == "random-regular"

    def test_sparse_topology_needs_decentralized(self):
        with pytest.raises(ValueError, match="decentralized"):
            tiny_config(setting="centralized", topology="ring", exchange="gossip")

    def test_complete_default_bitwise_stable(self):
        # topology="complete" must not perturb the pre-topology RNG
        # streams: the explicit default and an untouched config agree.
        from repro.io.results import history_to_dict

        base = history_to_dict(run_experiment(tiny_config()))
        explicit = history_to_dict(run_experiment(tiny_config(topology="complete")))
        assert base == explicit


class TestTopologyPartition:
    def test_partition_cut_lists_crossing_edges(self):
        topo = make_topology("clusters", 10, clusters=2, bridges=2, seed=3)
        cut = partition_cut(topo, range(5), range(5, 10))
        assert cut  # the bridges
        for u, v in cut:
            assert (u < 5) != (v < 5)

    def test_apply_and_heal(self):
        topo = make_topology("clusters", 10, clusters=2, bridges=2, seed=3)
        engine = make_scheduler("synchronous", 10, topology=topo)
        partition = TopologyPartition(range(5), range(5, 10))
        cut = partition.apply(engine)
        assert partition.active
        assert not cut.mask[:5, 5:].any()
        assert engine.topology is cut
        partition.heal(engine)
        assert engine.topology is topo
        assert not partition.active
        # The cycle is reusable.
        partition.apply(engine)
        partition.heal(engine)

    def test_apply_twice_rejected(self):
        engine = make_scheduler("synchronous", 6)
        partition = TopologyPartition(range(3), range(3, 6))
        partition.apply(engine)
        with pytest.raises(RuntimeError):
            partition.apply(engine)

    def test_heal_without_apply_rejected(self):
        engine = make_scheduler("synchronous", 6)
        with pytest.raises(RuntimeError):
            TopologyPartition(range(3), range(3, 6)).heal(engine)

    def test_partition_on_complete_default(self):
        # An engine without an explicit topology partitions against the
        # implied complete graph.
        engine = make_scheduler("synchronous", 6)
        partition = TopologyPartition(range(3), range(3, 6))
        cut = partition.apply(engine)
        assert not cut.mask[:3, 3:].any()
        partition.heal(engine)
        assert engine.topology is None or engine.topology.is_complete


# ---------------------------------------------------------------------------
# 5b. config / sweep integration
# ---------------------------------------------------------------------------

class TestConfigAndSweep:
    def test_config_dict_elides_defaults(self):
        data = config_to_dict(tiny_config())
        assert "topology" not in data
        assert "topology_kwargs" not in data
        assert "exchange" not in data

    def test_config_dict_keeps_non_defaults(self):
        config = tiny_config(
            topology="random-regular",
            topology_kwargs={"degree": 5},
            exchange="gossip",
        )
        data = json.loads(json.dumps(config_to_dict(config)))
        assert data["topology"] == "random-regular"
        assert data["topology_kwargs"] == {"degree": 5}
        assert data["exchange"] == "gossip"
        assert config_from_dict(data) == config

    def test_empty_kwargs_elided_with_sparse_topology(self):
        data = config_to_dict(tiny_config(topology="ring", exchange="gossip"))
        assert data["topology"] == "ring"
        assert "topology_kwargs" not in data
        assert config_from_dict(data) == tiny_config(topology="ring",
                                                     exchange="gossip")

    def test_topology_axis_round_trips_through_grid(self):
        grid = ScenarioGrid(
            base=tiny_config(exchange="gossip"),
            axes={"topology": ["complete", "ring", "torus"]},
        )
        cells = grid.cells()
        assert [c.cell_id for c in cells] == [
            "topology=complete", "topology=ring", "topology=torus"
        ]
        for cell in cells:
            restored = config_from_dict(
                json.loads(json.dumps(config_to_dict(cell.config)))
            )
            assert restored == cell.config

    def test_grid_spec_with_topology_axis(self):
        spec = {
            "base": {
                "setting": "decentralized", "aggregation": "box-geom",
                "rounds": 2, "num_clients": 6, "num_samples": 60,
                "exchange": "gossip",
            },
            "axes": {"topology": ["ring", "clusters"], "seed": [0, 1]},
        }
        grid = ScenarioGrid.from_spec(spec)
        assert len(grid) == 4
        assert grid.axis_names() == ["topology", "seed"]
        assert grid.cells()[0].cell_id == "topology=ring/seed=0"


class TestSweepByteIdentity:
    """The topology axis must ride resume and shard-merge untouched."""

    def _grid(self) -> ScenarioGrid:
        return ScenarioGrid(
            tiny_config(rounds=1, exchange="gossip"),
            {"topology": ["complete", "ring"]},
        )

    def test_resume_trusts_topology_rows(self, tmp_path):
        from repro.sweep import SweepRunner

        out = tmp_path / "rows.jsonl"
        SweepRunner(self._grid(), output_path=out).run()
        first = out.read_bytes()
        reused = []
        SweepRunner(
            self._grid(), output_path=out,
            on_cell=lambda cell, row, cached: reused.append(cached),
        ).run()
        assert reused == [True, True]
        assert out.read_bytes() == first

    def test_shard_merge_byte_identical(self, tmp_path):
        from repro.sweep import SweepRunner, merge_shards
        from repro.sweep.executors import ShardBackend

        single = tmp_path / "single.jsonl"
        SweepRunner(self._grid(), output_path=single).run()
        shards = []
        for index in range(2):
            out = tmp_path / f"shard{index}.jsonl"
            backend = ShardBackend(shard_index=index, shard_count=2)
            SweepRunner(self._grid(), backend=backend, output_path=out).run()
            shards.append(out)
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(shards, merged, grid=self._grid())
        assert merged.read_bytes() == single.read_bytes()
        assert not report.missing and not report.failed


# ---------------------------------------------------------------------------
# 5c. lease-dir status scan
# ---------------------------------------------------------------------------

class TestLeaseStatus:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_scan_counts_states(self, tmp_path):
        from repro.sweep.executors import scan_lease_dir

        self._write(tmp_path / "a.lease", {"owner": "host:1:1", "claimed_unix": 0})
        self._write(tmp_path / "a.done", {"ok": True, "owner": "host:1:1"})
        self._write(tmp_path / "b.lease", {"owner": "host:2:2", "claimed_unix": 0})
        self._write(tmp_path / "c.lease", {"owner": "host:3:3", "claimed_unix": 0})
        old = 10_000.0
        os.utime(tmp_path / "c.lease", (old, old))
        self._write(tmp_path / "d.done", {"ok": False, "owner": "host:4:4"})
        (tmp_path / "e.lease.tmp").write_text("{", encoding="utf-8")

        status = scan_lease_dir(tmp_path, timeout=300.0)
        assert status["done_ok"] == 1
        assert status["done_failed"] == 1
        assert status["in_progress"] == 2  # b (fresh) + c (stale)
        assert status["stale"] == 1
        assert status["keys"] == {
            "a": "done", "b": "claimed", "c": "stale", "d": "failed"
        }
        assert status["owners"]["host:2:2"]["claimed"] == 1
        assert status["owners"]["host:3:3"]["stale"] == 1

    def test_scan_rejects_missing_dir_and_bad_timeout(self, tmp_path):
        from repro.sweep.executors import scan_lease_dir

        with pytest.raises(FileNotFoundError):
            scan_lease_dir(tmp_path / "nope")
        with pytest.raises(ValueError):
            scan_lease_dir(tmp_path, timeout=0)

    def test_lease_keys_cover_grid(self):
        from repro.sweep.executors import _lease_key, grid_fingerprint, \
            lease_keys_for_cells

        grid = ScenarioGrid(
            base=tiny_config(exchange="gossip"),
            axes={"topology": ["complete", "ring"]},
        )
        cells = grid.cells()
        keys = lease_keys_for_cells(cells)
        namespace = grid_fingerprint(cells)
        assert keys == {
            cell.cell_id: _lease_key(cell.cell_id, namespace) for cell in cells
        }
        assert len(set(keys.values())) == len(cells)

    def test_cli_status_reports_progress(self, tmp_path, capsys):
        from repro.cli import main

        self._write(tmp_path / "a.done", {"ok": True, "owner": "w1"})
        self._write(tmp_path / "b.lease", {"owner": "w2", "claimed_unix": 0})
        code = main(["sweep", "status", "--lease-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "done: 1" in out and "in progress: 1" in out
        assert "w1" in out and "w2" in out

    def test_cli_status_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["sweep", "status", "--lease-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def _write_spec(self, path, axes):
        from repro.sweep.grid import config_to_dict

        base = config_to_dict(tiny_config(exchange="gossip"))
        self._write(path, {"base": base, "axes": axes})

    def test_cli_status_foreign_spec_named(self, tmp_path, capsys):
        """A spec whose fingerprint matches no lease says so, loudly.

        Lease keys are namespaced by the grid fingerprint, so pointing
        ``status`` at the wrong spec used to report every cell as
        unclaimed and every lease as from "a different spec" — reading
        like a sweep that never started.  The mismatch is now named.
        """
        from repro.cli import main
        from repro.sweep.executors import lease_keys_for_cells
        from repro.sweep.grid import ScenarioGrid

        lease_dir = tmp_path / "leases"
        lease_dir.mkdir()
        ran_spec = tmp_path / "ran.json"
        self._write_spec(ran_spec, {"topology": ["complete", "ring"]})
        grid = ScenarioGrid.from_spec(
            json.loads(ran_spec.read_text(encoding="utf-8"))
        )
        for key in lease_keys_for_cells(list(grid.validate())).values():
            self._write(lease_dir / f"{key}.done", {"ok": True, "owner": "w1"})

        # The matching spec reports exact progress: all cells done.
        code = main(["sweep", "status", "--lease-dir", str(lease_dir),
                     "--spec", str(ran_spec)])
        out = capsys.readouterr().out
        assert code == 0
        assert "unclaimed: 0" in out and "total: 2" in out
        assert "foreign spec" not in out

        # A foreign spec (different axes -> different fingerprint) is
        # diagnosed instead of rendering misleading unclaimed counts.
        other_spec = tmp_path / "other.json"
        self._write_spec(other_spec, {"seed": [0, 1, 2]})
        code = main(["sweep", "status", "--lease-dir", str(lease_dir),
                     "--spec", str(other_spec)])
        out = capsys.readouterr().out
        assert code == 0
        assert "foreign spec" in out
        assert "unclaimed:" not in out
        assert "total: 3" in out
