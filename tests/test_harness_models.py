"""The benchmark's generated models, analyzed at the sizes the harness runs.

bench/gen.py builds each model so that n, d, d_eff and the scale-invariance
verdict follow from its construction, without importing pim. It is loaded
from its file and only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from pim import analyze, parse_model

GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("pim_bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])
def test_ladder_models_have_their_constructed_answers(gen, seed: int, pointwise: bool):
    # One round: n = 8 ... 24 and the stress rung n = 20, ell = 6, twice.
    models = gen.ladder(seed, 1, pointwise)
    assert sorted({m.n for m in models}) == [8, 12, 16, 20, 24]
    for made in models:
        report = analyze(parse_model(made.text))
        assert (report.n, report.d, report.d_eff, report.scale_invariant) == (
            made.n, made.d, made.d_eff, made.scale_invariant
        ), made.rung
        assert made.scale_invariant is not pointwise
        if made.scale_invariant:
            assert report.C @ report.E.transpose() == report.J
