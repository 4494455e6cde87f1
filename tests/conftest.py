"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: spawns worker processes or runs benchmark workloads; "
        "deselect on constrained runners with -m 'not slow'",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(0xDA7E2014)


@pytest.fixture(params=["haar", "db2", "db4"])
def paper_basis(request) -> str:
    """Parametrize over the three wavelet bases evaluated in the paper."""
    return request.param
