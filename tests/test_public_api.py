"""Tests for the public API surface (repro, repro.core re-exports)."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
import repro.core as core


class TestTopLevel:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_subpackages_importable(self):
        for name in (
            "repro.linalg", "repro.aggregation", "repro.agreement", "repro.byzantine",
            "repro.network", "repro.data", "repro.nn", "repro.learning", "repro.theory",
            "repro.analysis", "repro.io", "repro.utils", "repro.core", "repro.cli",
            "repro.sweep",
        ):
            module = importlib.import_module(name)
            assert module is not None

    def test_every_module_imports_without_networkx_or_scipy(self):
        # numpy is the only install requirement: scipy is imported only
        # when the safe-area rule's hull test runs, networkx never.
        src = str(Path(repro.__file__).resolve().parents[1])
        script = "\n".join([
            "import importlib, pkgutil, sys",
            f"sys.path.insert(0, {src!r})",
            "sys.modules['networkx'] = sys.modules['scipy'] = None",
            "import repro",
            "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]",
            "for name in names:",
            "    importlib.import_module(name)",
            "from repro.aggregation import make_rule",
            "make_rule('safe-area', n=4, t=1)",
            "print(len(names))",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) > 50

    def test_subpackage_all_exports_exist(self):
        for name in (
            "repro.linalg", "repro.aggregation", "repro.agreement", "repro.byzantine",
            "repro.network", "repro.data", "repro.nn", "repro.learning", "repro.theory",
            "repro.analysis", "repro.io", "repro.utils", "repro.sweep",
        ):
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"{name}.{symbol} missing"


class TestCoreReExports:
    def test_core_exports_exist(self):
        for symbol in core.__all__:
            assert hasattr(core, symbol)

    def test_core_quickstart_flow(self):
        rng = np.random.default_rng(0)
        n, t, d = 7, 1, 4
        honest = rng.normal(size=(n - t, d))
        received = np.vstack([honest, np.full((t, d), 25.0)])
        rule = core.HyperboxGeometricMedian(n=n, t=t)
        aggregate = rule.aggregate(received)
        ratio = core.approximation_ratio(aggregate, honest, received, n, t)
        assert ratio <= 2.0 * np.sqrt(d) + 1e-9

    def test_core_agreement_flow(self):
        rng = np.random.default_rng(1)
        algorithm = core.make_algorithm("box-geom", 7, 1)
        protocol = core.AgreementProtocol(algorithm, byzantine=(6,), attack=None)
        result = protocol.run(rng.normal(size=(6, 3)), rounds=3)
        assert isinstance(result, core.AgreementResult)
        assert result.converged(1e-9)

    def test_core_geometry_exports(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        med = core.geometric_median(pts)
        box = core.bounding_hyperbox(pts)
        assert box.contains(med)
        trimmed = core.trimmed_hyperbox(np.vstack([pts, [[100.0, 100.0]]]), 1)
        assert box.contains_box(trimmed)

    def test_sgeo_helpers(self):
        rng = np.random.default_rng(2)
        received = rng.normal(size=(8, 3))
        candidates = core.geometric_median_candidates(received, n=8, t=1)
        ball = core.covering_ball_of_sgeo(received, n=8, t=1)
        assert ball.contains_all(candidates)
        mu = core.true_geometric_median(received)
        assert ball.contains(mu, rtol=1e-6, atol=1e-6)
