from __future__ import annotations

from pathlib import Path

import pytest

from oracles import load_bench

DRAG_TEXT = """\
# Drag force on a body moving through a viscous fluid.
dimensions: M, L, T
quantity F_D = M L T^-2
quantity rho = M L^-3
quantity U   = L T^-1
quantity L   = L
quantity mu  = M L^-1 T^-1
quantity nu  = L^2 T^-1
constraint nu * rho / mu = 1
repeating: rho, U, L
"""


@pytest.fixture
def drag_text() -> str:
    return DRAG_TEXT


@pytest.fixture
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def gen():
    """bench/gen.py, the benchmark's seeded model generator, loaded from its
    file and only read."""
    return load_bench("gen")
