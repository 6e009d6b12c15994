"""Topology-aware communication plane acceptance tests.

Five contracts of the sparse-topology refactor:

1. **Generators** — every named topology is seeded and deterministic,
   with actionable errors for infeasible parameterisations.
2. **Structure** — :class:`Topology` exposes a frozen symmetric mask
   with a ``True`` diagonal and sorted closed neighbourhoods.
3. **Validation** — disconnected graphs and quorum-infeasible degrees
   fail fast with diagnostics that name the fix.
4. **Delivery** — the engines intersect the topology mask with their
   own drop/crash/delay masks: delivery under a ring reproduces the
   object plane's pinned outputs bitwise, and an explicit complete
   topology is bitwise-identical to no topology at all (the ``None``
   default the pinned pre-refactor fixtures exercise).
5. **Learning / sweep integration** — gossip exchange runs on sparse
   graphs, full agreement refuses infeasible ones, and the ``topology``
   axis round-trips through configs, grids and shard merges.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.agreement import make_algorithm
from repro.engine import make_scheduler
from repro.learning.decentralized import DecentralizedTrainer
from repro.learning.experiment import ExperimentConfig, build_experiment, run_experiment
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

    # (8, 6), (10, 8) and (64, 62) are the degrees the n - t quorum needs
    # at t = 1; the pairing alone stalls at (64, 62), so it runs on the
    # complement.  (6, 5) is the complete graph.
    @pytest.mark.parametrize("n,degree", [
        (6, 5), (8, 6), (10, 8), (12, 4), (64, 4), (64, 62), (1024, 4),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_regular_is_regular(self, n, degree, seed):
        mask = make_topology("random-regular", n, seed=seed, degree=degree).mask
        assert np.array_equal(mask, mask.T)
        assert mask.diagonal().all()
        assert (mask.sum(axis=1) - 1 == degree).all()
        again = make_topology("random-regular", n, seed=seed, degree=degree).mask
        assert np.array_equal(mask, again)

    def test_torus_dimensions(self):
        topo = make_topology("torus", 12, rows=3, cols=4)
        # Interior torus nodes have exactly 4 neighbours.
        assert topo.min_degree == topo.max_degree == 4
        with pytest.raises(ValueError, match="rows\\*cols == n"):
            make_topology("torus", 12, rows=5)

    # Edge lists pinned from the graph-library generators the numpy
    # masks replaced.
    @pytest.mark.parametrize("name,kwargs,edges", [
        ("torus", {"rows": 3, "cols": 4}, [
            (0, 1), (0, 3), (0, 4), (0, 8), (1, 2), (1, 5), (1, 9), (2, 3),
            (2, 6), (2, 10), (3, 7), (3, 11), (4, 5), (4, 7), (4, 8), (5, 6),
            (5, 9), (6, 7), (6, 10), (7, 11), (8, 9), (8, 11), (9, 10),
            (10, 11),
        ]),
        ("clusters", {"clusters": 3, "bridges": 1}, [
            (0, 1), (0, 2), (0, 6), (1, 2), (2, 4), (3, 4), (3, 5), (4, 5),
            (4, 6), (6, 7), (6, 8), (7, 8),
        ]),
    ])
    def test_pinned_edges(self, name, kwargs, edges):
        n = 1 + max(v for _, v in edges)
        mask = make_topology(name, n, seed=0, **kwargs).mask
        assert [tuple(e) for e in np.argwhere(np.triu(mask, 1)).tolist()] == edges

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
        with pytest.raises(ValueError):
            make_scheduler("synchronous", 6, topology=make_topology("ring", 8))
        with pytest.raises(TypeError):
            make_scheduler("synchronous", 6, topology="ring")

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
        # The config refuses it before any data is built; a trainer built
        # by hand on a ring engine checks the quorum itself.
        with pytest.raises(ValueError, match="quorum"):
            tiny_config(topology="ring")
        built = build_experiment(tiny_config())
        engine = make_scheduler(
            "synchronous", 6, byzantine=(5,), topology=make_topology("ring", 6)
        )
        with pytest.raises(ValueError, match="quorum"):
            DecentralizedTrainer(
                built.clients, make_algorithm("box-geom", 6, 1), built.test_data,
                engine=engine,
            )

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

        single = tmp_path / "single.jsonl"
        SweepRunner(self._grid(), output_path=single).run()
        shards = []
        for index in range(2):
            out = tmp_path / f"shard{index}.jsonl"
            SweepRunner(self._grid(), shard=(index, 2), output_path=out).run()
            shards.append(out)
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(shards, merged, grid=self._grid())
        assert merged.read_bytes() == single.read_bytes()
        assert not report.missing and not report.failed
