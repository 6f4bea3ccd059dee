from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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
basis_override:
1, -1, -2, -2, 0, 0
0, 1, 1, 1, -1, 0
0, 0, 1, 1, 0, -1
"""


@pytest.fixture
def drag_text() -> str:
    return DRAG_TEXT


@pytest.fixture
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


@pytest.fixture(scope="session")
def gen():
    """bench/gen.py, the benchmark's seeded model generator, loaded from its
    file and only read."""
    spec = importlib.util.spec_from_file_location("pim_bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
