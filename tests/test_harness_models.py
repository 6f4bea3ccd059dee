"""The benchmark's generated models, analyzed at the sizes the harness runs.

bench/gen.py builds each model so that n, d, d_eff and the scale-invariance
verdict follow from its construction, without importing pim. The ``gen``
fixture loads it from its file. Up to n = 40, m = 10 and 12 constraints,
each report must have the constructed answers, C E^T == J, unit-rescale
invariant groups and the same answers from a random valid repeating set;
at n = 40 and 60, d_eff must be n - rank [A; J] by textbook_rref, also
once the row spaces of A and J meet; and verify_report must pass on every
report. Repeating sets and changed variables must give the pi basis their
choice predicts, and C must be read off unit rows without an elimination.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pim.ratlin as ratlin_module
from pim import analyze, parse_model, render_report
from pim.model import Model, Quantity, build_dimension_matrix
from pim.modelfile import _report_payload
from pim.ratlin import RatMatrix, as_fraction, nullspace_basis
from pim.reduce import (
    JacobianRowConstraint,
    MonomialConstraint,
    constraint_jacobian,
    redundancy_matrix,
)

from oracles import (
    apply_rescale,
    drag_model,
    evaluate_monomial,
    false_relations,
    model_from_matrices,
    primitive_integer_vector,
    random_int_matrix,
    random_invariant_jacobian,
    random_positive_fraction,
    random_unimodular,
    repeating_pivots,
    textbook_rref,
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


def _off_the_table(text: str) -> str:
    """A generated model's text with each dimension and monomial exponent x
    written x/97 and each Jacobian entry times 65, so that no nonzero entry
    is an int in [-64, 64]."""
    def over_97(term: re.Match) -> str:
        return f"{term[1]}^{Fraction(int(term[2] or 1), 97)}"

    lines = []
    for line in text.splitlines():
        if line.startswith("jacobian_row:"):
            entries = line.partition(":")[2].split(",")
            line = "jacobian_row: " + ", ".join(str(65 * int(x)) for x in entries)
        elif line.startswith(("quantity", "constraint")):
            head, sep, rest = line.partition(" = ")
            if line.startswith("quantity"):
                line = head + sep + re.sub(r"(D\d+)(?:\^(-?\d+))?", over_97, rest)
            else:
                line = re.sub(r"(q\d+)(?:\^(-?\d+))?", over_97, head) + sep + rest
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])
def test_exponents_off_the_table_reach_a_and_j_without_a_ratio_call(gen, pointwise: bool):
    # Every nonzero exponent and Jacobian entry is a p/q or an int past 64:
    # as_fraction boxes each of those once and no other entry, and A and J
    # read every entry's fields without calling as_integer_ratio.
    counted = {as_fraction.__code__: 0, Fraction.as_integer_ratio.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    models = []
    sys.setprofile(profile)
    try:
        for made in gen.ladder(7, 1, pointwise):
            model = parse_model(_off_the_table(made.text))
            build_dimension_matrix(model)
            constraint_jacobian(model)
            models.append(model)
    finally:
        sys.setprofile(None)
    vectors = [v for m in models for v in (
        *(q.dim_exponents for q in m.quantities), *(c.vector for c in m.constraints)
    )]
    off = [x for v in vectors for x in v if x]
    assert all(x.denominator != 1 or abs(x) > 64 for x in off)
    constants = sum(c.kind == "monomial" for m in models for c in m.constraints)
    assert counted == {
        as_fraction.__code__: len(off) + constants, Fraction.as_integer_ratio.__code__: 0
    }


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
    forms = list(_report_payload(report)["d_eff_formulas"].values())
    assert forms == [made.d - ell] * 3 + [None if pointwise else made.d - ell]
    if report.scale_invariant:
        assert report.C @ report.E.transpose() == report.J
    assert false_relations(model, report) == []
    assert verify_report(model, report) == []
    # Another basis of the same kernel, from a random valid repeating set.
    repeating = repeating_pivots(model, rng.sample(range(n), n))
    other = _assert_repeating_basis(model, report, repeating)
    assert [list(other.E.column(k)) for k in range(other.d)] == [
        g["exponents"] for g in _report_payload(other)["pi_groups"]
    ]
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    rescale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
    scaled = apply_rescale(model, values, rescale)
    for group in _report_payload(report)["pi_groups"]:
        assert evaluate_monomial(scaled, group["exponents"]) == evaluate_monomial(
            values, group["exponents"]
        ), group["label"]


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])
def test_d_eff_is_n_minus_the_textbook_rank_of_a_and_j(gen, n: int, pointwise: bool):
    # analyze computes d_eff one way for each kind of model; the oracle is
    # n - rank [A; J] by textbook_rref. The harness's A and J at m = ell = n/4
    # meet only in zero; two more rows, A1 + A2 and 3 A3 + J1, make them meet
    # in a plane and make even the invariant model not scale invariant.
    made = gen.make_model(random.Random(n), gen.Rung("drawn", n, n // 4, n // 4), 0, pointwise)
    model = parse_model(made.text)
    a_rows = [[q.dim_exponents[i] for q in model.quantities] for i in range(model.m)]
    j_rows = [list(c.vector) for c in model.constraints]
    extra = (
        JacobianRowConstraint([x + y for x, y in zip(a_rows[0], a_rows[1])]),
        JacobianRowConstraint([3 * x + y for x, y in zip(a_rows[2], j_rows[0])]),
    )
    met = Model(model.dims, model.quantities, model.constraints + extra, model.repeating)
    for checked in (model, met):
        report = analyze(checked)
        b_rows = [list(c.vector) for c in checked.constraints]
        assert report.d_eff == n - len(textbook_rref(a_rows + b_rows, n)[1])
        assert report.d_eff == made.d - made.ell
        assert report.scale_invariant is (checked is model and not pointwise)
        assert verify_report(checked, report) == []


def _assert_repeating_basis(model: Model, report, repeating: tuple[str, ...]):
    """The report on `model` with `repeating`, checked against `report`, the
    one without: pi group k is the k-th other quantity times powers of the
    repeating ones, every claim holds, and d, d_eff, the verdict, the
    relation count and the selected count are the same."""
    changed = Model(model.dims, model.quantities, model.constraints, repeating)
    other = analyze(changed)
    others = [j for j, q in enumerate(model.quantities) if q.name not in repeating]
    assert len(others) == other.d
    for k, column in enumerate(zip(*other.E.nums)):
        assert [j for j in others if column[j]] == [others[k]]
    assert verify_report(changed, other) == []
    assert false_relations(changed, other) == []
    assert (other.d, other.d_eff, other.scale_invariant) == (
        report.d, report.d_eff, report.scale_invariant
    )
    assert len(other.relations or ()) == len(report.relations or ())
    assert len(other.selected or ()) == len(report.selected or ())
    return other


def _oracle_models(seed: int) -> list[Model]:
    """Random models up to n = 40 from the oracles' generators: invariant
    monomial constraints with random constants, and pointwise Jacobian rows."""
    rng = random.Random(seed)
    models = []
    for n, m, ell in ((8, 3, 2), (12, 4, 2), (20, 5, 3), (24, 6, 4), (40, 10, 12)):
        a = random_int_matrix(rng, m, n, -3, 3)
        j = random_invariant_jacobian(rng, nullspace_basis(a), ell)
        constants = [random_positive_fraction(rng) for _ in range(ell)]
        models.append(model_from_matrices(a, j, constants=constants))
        models.append(model_from_matrices(a, random_int_matrix(rng, ell, n, -2, 2)))
    return models


def _corpus(gen, source: str) -> list[Model]:
    if source == "oracle":
        return _oracle_models(4040)
    pointwise = source == "ladder-pointwise"
    return [parse_model(made.text) for seed in (1, 2) for made in gen.ladder(seed, 1, pointwise)]


@pytest.mark.parametrize("source", ["ladder-invariant", "ladder-pointwise", "oracle"])
def test_repeating_sets_choose_the_basis_and_keep_the_answers(gen, source: str):
    # The pivot columns of rref(A) as the repeating set reproduce the
    # default report byte for byte; a random valid repeating set keeps every
    # answer that does not depend on the basis.
    rng = random.Random(source)
    models = _corpus(gen, source)
    for model in models:
        report = analyze(model)
        pivots = Model(model.dims, model.quantities, model.constraints, repeating_pivots(model))
        for fmt in ("json", "text"):
            assert render_report(analyze(pivots), fmt) == render_report(report, fmt)
        order = rng.sample(range(model.n), model.n)
        _assert_repeating_basis(model, report, repeating_pivots(model, order))
    assert max(model.n for model in models) == (40 if source == "oracle" else 24)


_SCALES = {"negated": Fraction(-1), "doubled": Fraction(2), "halved": Fraction(1, 2)}


def _transformed(variant: str, rng: random.Random, model: Model):
    """The model after a change of variables whose effect on a kernel basis
    is known, and that effect, a factor per row: "unimodular" recombines
    the dimensions (A becomes U A), which leaves the kernel as it is; the
    others replace quantity k by x_k ** (1/s) for s = _SCALES[variant]
    (column k of A divided by s, of J times s), which multiplies row k of
    every kernel vector by s."""
    quantities, constraints = model.quantities, model.constraints
    if variant == "unimodular":
        u = random_unimodular(rng, model.m)
        a = u @ RatMatrix.from_columns([q.dim_exponents for q in quantities], rows=model.m)
        quantities = tuple(Quantity(q.name, a.column(j)) for j, q in enumerate(quantities))
        return Model(model.dims, quantities, constraints, model.repeating), [1] * model.n
    s, k = _SCALES[variant], rng.randrange(model.n)
    quantities = tuple(
        Quantity(q.name, tuple(x / s for x in q.dim_exponents)) if j == k else q
        for j, q in enumerate(quantities)
    )
    scaled = []
    for c in constraints:
        vector = tuple(x * s if j == k else x for j, x in enumerate(c.vector))
        if c.kind == "monomial":
            scaled.append(MonomialConstraint(vector, c.constant))
        else:
            scaled.append(JacobianRowConstraint(vector))
    factors = [s if j == k else 1 for j in range(model.n)]
    return Model(model.dims, quantities, tuple(scaled), model.repeating), factors


@pytest.mark.parametrize("variant", ["negated", "doubled", "halved", "unimodular"])
@pytest.mark.parametrize("source", ["ladder-1", "ladder-2", "drag"])
def test_overridden_bases_print_true_relations(gen, source: str, variant: str):
    # A basis chosen by repeating: in place of the canonical one, on a model
    # changed so that a row of every kernel vector is negated, doubled or
    # halved, or so that the dimensions are recombined: each column of E is
    # the old one with that row scaled, made primitive, and the relations
    # stay true and as many.
    rng = random.Random(source)
    if source == "drag":
        models = [drag_model()]
    else:
        seed = int(source.split("-")[1])
        models = [parse_model(made.text) for made in gen.ladder(seed, 1, False)]
        models = [
            Model(m.dims, m.quantities, m.constraints,
                  repeating_pivots(m, rng.sample(range(m.n), m.n)))
            for m in models
        ]
    for model in models:
        report = analyze(model)
        changed, factors = _transformed(variant, rng, model)
        other = analyze(changed)
        assert (other.d, other.d_eff) == (report.d, report.d_eff)
        for old, new in zip(zip(*report.E.nums), zip(*other.E.nums)):
            assert primitive_integer_vector([x * f for x, f in zip(old, factors)]) == list(new)
        assert len(other.relations) == len(report.relations)
        assert false_relations(changed, other) == []
        assert verify_report(changed, other) == []


def test_analysis_reads_c_off_unit_rows_without_an_elimination(gen, repo_root):
    # Every basis pi_basis returns, canonical or from repeating:, has a unit
    # row per column, so redundancy_matrix solves for C without running the
    # elimination kernel.
    texts = [(repo_root / "models" / f"{name}.pim").read_text(encoding="utf-8")
             for name in ("drag", "drag_auto", "pendulum")]
    texts += [made.text for made in gen.ladder(1, 1, False)]
    solve, eliminate = redundancy_matrix.__code__, ratlin_module._eliminate.__code__
    calls = {solve: 0, eliminate: 0}
    inside = [False]

    def profile(frame, event, arg):
        if frame.f_code is solve and event in ("call", "return"):
            inside[0] = event == "call"
            calls[solve] += event == "call"
        elif frame.f_code is eliminate and event == "call" and inside[0]:
            calls[eliminate] += 1

    sys.setprofile(profile)
    try:
        for text in texts:
            analyze(parse_model(text))
    finally:
        sys.setprofile(None)
    assert calls == {solve: len(texts), eliminate: 0}
