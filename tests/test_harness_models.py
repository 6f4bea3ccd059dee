"""The benchmark's generated models, analyzed at the sizes the harness runs.

bench/gen.py builds each model so that n, d, d_eff and the scale-invariance
verdict follow from its construction, without importing pim. The ``gen``
fixture loads it from its file.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pim.reduce as reduce_module
from pim import analyze, parse_model, render_report
from pim.model import Model
from pim.modelfile import _report_payload
from pim.ratlin import RatMatrix, as_fraction

from oracles import (
    DRAG_MIXED_BASIS,
    apply_rescale,
    drag_model,
    evaluate_monomial,
    false_relations,
    random_unimodular,
    verify_report,
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


@pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])
def test_ladder_exponents_reach_a_and_j_without_a_fraction_round_trip(gen, pointwise: bool):
    # Every exponent and Jacobian entry of the ladder is a shared small
    # value: it is boxed by table and read back by table, so neither
    # as_fraction nor as_integer_ratio runs per entry. Only a monomial's
    # constant goes through as_fraction.
    counted = {as_fraction.__code__: 0, Fraction.as_integer_ratio.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    models = []
    sys.setprofile(profile)
    try:
        for made in gen.ladder(7, 1, pointwise):
            model = parse_model(made.text)
            report = analyze(model)
            render_report(report, "json")
            render_report(report, "text")
            models.append(model)
    finally:
        sys.setprofile(None)
    constants = sum(c.kind == "monomial" for m in models for c in m.constraints)
    assert counted == {as_fraction.__code__: constants, Fraction.as_integer_ratio.__code__: 0}


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
    assert false_relations(model, report) == []
    assert verify_report(model, report) == []
    # Another basis of the same kernel, with dense rows, as an override.
    basis = report.E @ random_unimodular(rng, report.d)
    changed = Model(model.dims, model.quantities, model.constraints, basis)
    other = analyze(changed)
    assert (other.d, other.d_eff) == (report.d, report.d_eff)
    assert false_relations(changed, other) == []
    assert verify_report(changed, other) == []
    assert [list(other.E.column(k)) for k in range(other.d)] == [
        g["exponents"] for g in _report_payload(other)["pi_groups"]
    ]
    if report.scale_invariant:
        assert other.C @ other.E.transpose() == other.J
        assert len(other.relations) == len(report.relations)
        assert len(other.selected) == len(report.selected)
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    rescale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
    scaled = apply_rescale(model, values, rescale)
    for group in _report_payload(report)["pi_groups"]:
        assert evaluate_monomial(scaled, group["exponents"]) == evaluate_monomial(
            values, group["exponents"]
        ), group["label"]


_SCALES = {"negated": Fraction(-1), "doubled": Fraction(2), "halved": Fraction(1, 2)}


def _other_basis(variant: str, rng: random.Random, e: RatMatrix) -> RatMatrix:
    """Another basis of the kernel spanned by e: e times a random unimodular
    matrix, or e with its column 1 (0 when d = 1) scaled by _SCALES[variant]."""
    if variant == "unimodular":
        return e @ random_unimodular(rng, e.cols)
    cols = [list(e.column(j)) for j in range(e.cols)]
    k = min(1, e.cols - 1)
    cols[k] = [_SCALES[variant] * x for x in cols[k]]
    return RatMatrix.from_columns(cols, rows=e.rows)


@pytest.mark.parametrize("variant", ["negated", "doubled", "halved", "unimodular"])
@pytest.mark.parametrize("source", ["ladder-1", "ladder-2", "drag"])
def test_overridden_bases_print_true_relations(gen, source: str, variant: str):
    if source == "drag":
        models = [drag_model()]
    else:
        seed = int(source.split("-")[1])
        models = [parse_model(made.text) for made in gen.ladder(seed, 1, False)]
    rng = random.Random(source)
    for model in models:
        report = analyze(model)
        basis = _other_basis(variant, rng, report.E)
        changed = Model(model.dims, model.quantities, model.constraints, basis)
        other = analyze(changed)
        assert len(other.relations) == len(report.relations)
        assert false_relations(changed, other) == []


def test_analysis_reads_c_off_unit_rows_without_an_elimination(gen, repo_root, monkeypatch):
    # Every canonical kernel basis, and the shipped drag override, has a unit
    # row per column; only an override without one needs the elimination
    # of [E | J^T].
    calls = [0]
    original = reduce_module._eliminate

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(reduce_module, "_eliminate", counted)
    texts = [(repo_root / "models" / f"{name}.pim").read_text(encoding="utf-8")
             for name in ("drag", "drag_auto", "pendulum")]
    texts += [made.text for made in gen.ladder(1, 1, False)]
    for text in texts:
        analyze(parse_model(text))
    assert calls[0] == 0
    analyze(drag_model(basis=DRAG_MIXED_BASIS))
    assert calls[0] == 1
