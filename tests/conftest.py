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


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_dir(tmp_path_factory):
    """Point the persistent autoselect cache at a per-run temp dir.

    Keeps the suite hermetic: no test run reads another run's (or the
    developer's) measured provider choices, and nothing is written under
    the real ``~/.cache``.
    """
    import os

    path = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(0xDA7E2014)


@pytest.fixture(params=["haar", "db2", "db4"])
def paper_basis(request) -> str:
    """Parametrize over the three wavelet bases evaluated in the paper."""
    return request.param
