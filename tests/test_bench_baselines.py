"""The benchmark baseline drift guard (``benchmarks/check_baselines.py``).

The guard compares fresh ``BENCH_*.json`` headline metrics against the
committed baselines in ``benchmarks/baselines/`` and fails CI on a >30%
regression — but only when the two artifacts carry the *same* build
fingerprint; cross-machine timings are warn-only.  These tests pin the
headline extraction for both artifact shapes in the suite and the
fail / warn / ignore decision table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _harness import artifact_headlines, compare_to_baseline  # noqa: E402
import check_baselines  # noqa: E402

BUILD_A = {"numpy_version": "2.0.0", "cpu_count": 8}
BUILD_B = {"numpy_version": "2.1.0", "cpu_count": 4}


def cases_payload(rps, *, build=BUILD_A, rounds=3):
    """A minimal cases-style artifact (``bench_delivery`` shape).

    ``rps`` maps a topology name to the lossy n=1024 case's rounds/sec.
    """
    return {
        "benchmark": "delivery",
        "build": dict(build),
        "smoke": False,
        "cases": [
            {
                "label": "lossy(drop_rate=0.1)",
                "scheduler": "lossy",
                "topology": topology,
                "wait": None,
                "n": 1024,
                "d": 256,
                "rounds": rounds,
                "rounds_per_sec": value,
            }
            for topology, value in rps.items()
        ],
    }


class TestHeadlineExtraction:
    def test_cases_shape_keys_exclude_rounds(self):
        fast = cases_payload({"complete": 0.5, "ring": 2.0}, rounds=3)
        slow = cases_payload({"complete": 0.5, "ring": 2.0}, rounds=30)
        # rounds/sec is per-round already: a smoke run and a full run of
        # the same case must land on the same headline key.
        assert artifact_headlines(fast) == artifact_headlines(slow)
        assert set(artifact_headlines(fast)) == {
            "case:lossy(drop_rate=0.1)|topology=complete|wait=None|n=1024|d=256",
            "case:lossy(drop_rate=0.1)|topology=ring|wait=None|n=1024|d=256",
        }

    def test_cases_differing_in_topology_or_wait_stay_distinct(self):
        payload = cases_payload({"complete": 1.0, "ring": 2.0, "random-regular": 3.0})
        assert sorted(artifact_headlines(payload).values()) == [1.0, 2.0, 3.0]
        waited = dict(payload["cases"][0], wait="quorum", rounds_per_sec=4.0)
        payload["cases"].append(waited)
        assert len(artifact_headlines(payload)) == 4

    def test_duplicate_case_identity_raises(self):
        payload = cases_payload({"ring": 2.0})
        payload["cases"].append(dict(payload["cases"][0], rounds=30))
        with pytest.raises(ValueError, match="share the headline key"):
            artifact_headlines(payload)

    def test_headline_dict_shape(self):
        payload = {
            "benchmark": "subset_kernels",
            "build": dict(BUILD_A),
            "headline": {"geomedian_speedup": 5.9, "d": 64},
            "dedup": {"dedup_speedup": 2.0, "n": 16},
        }
        assert artifact_headlines(payload) == {
            "headline:geomedian_speedup": 5.9,
            "dedup:dedup_speedup": 2.0,
        }

    def test_committed_baselines_yield_headlines(self):
        baseline_dir = Path(check_baselines.BASELINE_DIR)
        for path in sorted(baseline_dir.glob("BENCH_*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert artifact_headlines(payload), (
                f"{path.name} produced no comparable headlines — the "
                f"drift guard would silently skip it"
            )


class TestComparison:
    def test_within_budget_passes(self):
        base = cases_payload({"complete": 1.0, "ring": 4.0})
        fresh = cases_payload({"complete": 0.8, "ring": 3.2})  # -20%
        report = compare_to_baseline(fresh, base)
        assert not report["failures"]
        assert not report["warnings"]

    def test_regression_fails_on_same_build(self):
        base = cases_payload({"complete": 1.0, "ring": 4.0})
        fresh = cases_payload({"complete": 1.0, "ring": 2.0})  # -50%
        report = compare_to_baseline(fresh, base)
        assert len(report["failures"]) == 1
        assert "ring" in report["failures"][0]

    def test_regression_warns_on_different_build(self):
        base = cases_payload({"ring": 4.0}, build=BUILD_A)
        fresh = cases_payload({"ring": 2.0}, build=BUILD_B)
        report = compare_to_baseline(fresh, base)
        assert not report["failures"]
        # Two warnings: the fingerprint note and the demoted regression.
        assert any("fingerprints differ" in w for w in report["warnings"])
        assert any("regression budget" in w for w in report["warnings"])

    def test_one_sided_headlines_are_informational(self):
        base = cases_payload({"complete": 1.0, "ring": 4.0})
        fresh = cases_payload({"ring": 4.0})  # smoke subset
        report = compare_to_baseline(fresh, base)
        assert not report["failures"]
        assert any("one side only" in line for line in report["info"])

    def test_custom_budget(self):
        base = cases_payload({"ring": 4.0})
        fresh = cases_payload({"ring": 3.5})  # -12.5%
        assert not compare_to_baseline(fresh, base)["failures"]
        tight = compare_to_baseline(fresh, base, max_regression=0.10)
        assert tight["failures"]


class TestCli:
    def _write(self, path: Path, payload) -> Path:
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_exit_codes(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines / "BENCH_x.json",
                    cases_payload({"ring": 4.0}))
        fresh_ok = self._write(tmp_path / "BENCH_x.json",
                               cases_payload({"ring": 3.9}))
        args = ["--baseline-dir", str(baselines)]
        assert check_baselines.main([str(fresh_ok)] + args) == 0
        self._write(fresh_ok, cases_payload({"ring": 1.0}))
        assert check_baselines.main([str(fresh_ok)] + args) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "drift check FAILED" in out

    def test_missing_files_are_skipped(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        # No baseline counterpart: skipped, not failed.
        fresh = self._write(tmp_path / "BENCH_new.json",
                            cases_payload({"ring": 1.0}))
        args = ["--baseline-dir", str(baselines)]
        assert check_baselines.main([str(fresh)] + args) == 0
        # Fresh artifact missing entirely (bench crashed): skipped too —
        # the bench's own smoke gate is the failure signal for that.
        assert check_baselines.main(
            [str(tmp_path / "BENCH_absent.json")] + args
        ) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
