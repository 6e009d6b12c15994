"""Shared fixtures and markers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    # Registered in setup.cfg as well; repeated here so the marker (and
    # `-m "not slow"` deselection) works even when pytest is pointed at
    # the tests directory without the repo-root ini file.
    config.addinivalue_line(
        "markers",
        'slow: the 100k-row bounded-memory analysis test (deselect with -m "not slow")',
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_cloud(rng) -> np.ndarray:
    """A (10, 5) Gaussian point cloud reused across geometry tests."""
    return rng.normal(0.0, 2.0, size=(10, 5))


@pytest.fixture
def cloud_with_outlier(rng) -> np.ndarray:
    """Nine clustered points plus one far outlier (index 9)."""
    cloud = rng.normal(0.0, 1.0, size=(9, 4))
    outlier = np.full((1, 4), 50.0)
    return np.vstack([cloud, outlier])


@pytest.fixture
def tiny_dataset():
    """A small synthetic MNIST-like dataset shared by data/learning tests."""
    from repro.data.datasets import make_synthetic_mnist

    return make_synthetic_mnist(200, seed=3)
