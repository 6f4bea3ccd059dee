"""The benchmark's generated models, analyzed at the sizes the harness runs.

bench/gen.py builds each model so that n, d, d_eff and the scale-invariance
verdict follow from its construction, without importing pim. The ``gen``
fixture loads it from its file.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pim.reduce as reduce_module
from pim import analyze, parse_model
from pim.model import Model

from oracles import (
    DRAG_MIXED_BASIS,
    apply_rescale,
    drag_model,
    evaluate_monomial,
    random_unimodular,
)

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


@st.composite
def shapes(draw) -> tuple[int, int, int, bool]:
    """(n, m, ell, pointwise) that gen.make_model accepts: m >= 2, and a
    pointwise model needs ell >= 1 (with none it draws forever)."""
    pointwise = draw(st.booleans())
    m = draw(st.integers(2, 10))
    n = draw(st.integers(m + pointwise, 40))
    ell = draw(st.integers(int(pointwise), min(12, n - m)))
    return n, m, ell, pointwise


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), shape=shapes())
@example(seed=1, shape=(40, 10, 12, False))
@example(seed=1, shape=(40, 10, 12, True))
@example(seed=2, shape=(24, 6, 4, False))  # the top rung of the ladder
@example(seed=3, shape=(20, 6, 6, True))  # the stress rung
def test_generated_models_keep_the_contract_up_to_harness_sizes(gen, seed: int, shape):
    n, m, ell, pointwise = shape
    rng = random.Random(seed)
    made = gen.make_model(rng, gen.Rung("drawn", n, m, ell), 0, pointwise)
    model = parse_model(made.text)
    report = analyze(model)
    assert (report.n, report.d, report.d_eff, report.scale_invariant) == (
        made.n, made.d, made.d_eff, made.scale_invariant
    )
    deff = report.deff
    forms = [deff.via_kernel_JE, deff.via_stacked_rank, deff.via_grassmann]
    assert forms == [made.d - ell] * 3
    assert deff.via_C_rank == (None if pointwise else made.d - ell)
    if report.scale_invariant:
        assert report.C @ report.E.transpose() == report.J
    # Another basis of the same kernel, with dense rows, as an override.
    basis = report.E @ random_unimodular(rng, report.d)
    other = analyze(Model(model.dims, model.quantities, model.constraints, basis))
    assert (other.d, other.d_eff) == (report.d, report.d_eff)
    if report.scale_invariant:
        assert other.C @ basis.transpose() == other.J
        assert len(other.relations) == len(report.relations)
        assert len(other.selected) == len(report.selected)
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    rescale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
    scaled = apply_rescale(model, values, rescale)
    for group in report.pi_groups:
        assert evaluate_monomial(scaled, group.exponents) == evaluate_monomial(
            values, group.exponents
        ), group.label


def test_analysis_reads_c_off_unit_rows_without_an_elimination(gen, repo_root, monkeypatch):
    # Every canonical kernel basis, and the shipped drag override, has a unit
    # row per column; only an override without one needs rref([E | J^T]).
    calls = [0]
    original = reduce_module.rref

    def counted(matrix):
        calls[0] += 1
        return original(matrix)

    monkeypatch.setattr(reduce_module, "rref", counted)
    texts = [(repo_root / "models" / f"{name}.pim").read_text(encoding="utf-8")
             for name in ("drag", "drag_auto", "pendulum")]
    texts += [made.text for made in gen.ladder(1, 1, False)]
    for text in texts:
        analyze(parse_model(text))
    assert calls[0] == 0
    analyze(drag_model(basis=DRAG_MIXED_BASIS))
    assert calls[0] == 1
