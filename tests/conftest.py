"""Shared fixtures: small deterministic meshes reused across the test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

# Run the tests against the source checkout, unless REPRO_TEST_INSTALLED is
# set (the CI `package` job), in which case the installed package must be
# importable on its own — the checkout is deliberately NOT added to sys.path
# so a stale site-packages install can never shadow local edits by accident.
if not os.environ.get("REPRO_TEST_INSTALLED"):
    _SRC = Path(__file__).resolve().parents[1] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.generators import (  # noqa: E402  (import after sys.path tweak)
    earthquake_mesh,
    neuron_mesh,
    random_delaunay_mesh,
    structured_tetrahedral_mesh,
)
from repro.mesh import Box3D  # noqa: E402


@pytest.fixture(scope="session")
def unit_box() -> Box3D:
    """The unit cube [0,1]^3."""
    return Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def grid_mesh():
    """A 5x5x5-cube structured tetrahedral mesh in the unit cube (convex)."""
    return structured_tetrahedral_mesh((5, 5, 5))


@pytest.fixture(scope="session")
def neuron_small():
    """A small non-convex neuron mesh (session-scoped; treat as read-only)."""
    return neuron_mesh(resolution=14, name="neuron-test")


@pytest.fixture(scope="session")
def earthquake_small():
    """A small convex earthquake basin mesh (session-scoped; treat as read-only)."""
    return earthquake_mesh(8, name="basin-test")


@pytest.fixture(scope="session")
def delaunay_small():
    """A small irregular Delaunay mesh (session-scoped; treat as read-only)."""
    return random_delaunay_mesh(300, seed=3)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)


