"""pim.reduce: the constraint Jacobian J, the scale-invariance verdict,
d_eff, the redundancy matrix C with C E^T = J, the independent set and the
relations read off rref(C), and analyze end to end, with the eliminations
one analysis runs. test_seed_era_n40_model pins a random n = 40 model over
10 dimensions with 12 invariant constraints (d = 30, d_eff = 18, 12
relations), the size at which the exact engine once ran about 29 s and
then crashed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from pim.cli import CliConfig, run
from pim.model import (
    DimensionSystem,
    Model,
    ModelError,
    Quantity,
    build_dimension_matrix,
)
from pim.modelfile import _report_payload, parse_model, render_report
import pim.model as model_module
import pim.ratlin as ratlin_module
import pim.reduce as reduce_module
from pim.ratlin import (
    RatMatrix,
    ShapeError,
    nullspace_basis,
    rank,
    rref_with_transform,
)
from pim.reduce import (
    InvariantViolation,
    JacobianRowConstraint,
    MonomialConstraint,
    ScaleInvarianceError,
    analyze,
    check_scale_invariance,
    constraint_jacobian,
    redundancy_matrix,
)

from oracles import (
    DRAG_A,
    DRAG_AUTO_BASIS,
    DRAG_CLASSIC_BASIS,
    DRAG_J,
    DRAG_MIXED_BASIS,
    drag_model,
    evaluate_monomial,
    load_bench,
    minor_rank,
    model_from_matrices,
    pendulum_model,
    random_int_matrix,
    random_invariant_jacobian,
    random_positive_fraction,
    random_unimodular,
    textbook_rref,
)

# the quantities x1, x2, x3 of a model built from DRAG_A: rho, U and L
DRAG_REPEATING = ("x1", "x2", "x3")


# ---------------------------------------------------------------------------
# constraint Jacobian


def test_constraint_jacobian_drag():
    assert constraint_jacobian(drag_model()) == DRAG_J


def test_constraint_jacobian_unconstrained():
    model = drag_model()
    bare = Model(model.dims, model.quantities)
    j = constraint_jacobian(bare)
    assert (j.rows, j.cols) == (0, 6)


def test_constraint_jacobian_declaration_order():
    model = drag_model(
        extra_constraints=(JacobianRowConstraint((1, 0, 0, 0, 0, 0)),)
    )
    j = constraint_jacobian(model)
    assert j.to_rows() == [
        [0, 1, 0, 0, -1, 1],
        [1, 0, 0, 0, 0, 0],
    ]
    assert minor_rank(j) == 2


def test_monomial_constraint_validation():
    with pytest.raises(ModelError, match="all zero"):
        MonomialConstraint((0, 0, 0))
    with pytest.raises(ModelError, match="positive"):
        MonomialConstraint((1, 0, 0), Fraction(-2))


# ---------------------------------------------------------------------------
# scale invariance


def test_scale_invariance_drag():
    assert check_scale_invariance(DRAG_A, DRAG_J) is True


def test_scale_invariance_no_constraints():
    assert check_scale_invariance(DRAG_A, RatMatrix.zero(0, 6)) is True


def test_scale_invariance_broken_by_fixing_one_quantity():
    j = RatMatrix.from_rows([[1, 0, 0, 0, 0, 0]])
    assert (j @ DRAG_A.transpose()).row(0) == (1, 1, -2)
    assert check_scale_invariance(DRAG_A, j) is False


LAST_ENTRY_TEXT = """\
dimensions: M, L
quantity a = M
quantity b = M
quantity c = L
quantity d = L
constraint a / b = 2
constraint c * d^-1 = 3
"""


@pytest.mark.parametrize("last", ["c = 5", "c / d = 5"], ids=["broken", "kept"])
def test_scale_invariance_reads_up_to_the_last_entry(last: str):
    # The invariance check stops at the first nonzero entry of J A^T; here
    # only the last entry (last constraint, last dimension) can be nonzero.
    model = parse_model(LAST_ENTRY_TEXT.replace("c * d^-1 = 3", last))
    a, j = build_dimension_matrix(model), constraint_jacobian(model)
    product = j @ a.transpose()
    flat = tuple(x for row in product.nums for x in row)
    assert flat[:-1] == (0,) * (product.rows * product.cols - 1)
    invariant = last == "c / d = 5"
    assert bool(flat[-1]) is not invariant
    assert check_scale_invariance(a, j) is invariant
    assert analyze(model).scale_invariant is invariant
    # without constraints the same dimensions stay invariant
    assert check_scale_invariance(a, RatMatrix.zero(0, a.cols)) is True
    no_constraints = Model(model.dims, model.quantities)
    assert analyze(no_constraints).scale_invariant is True


def test_scale_invariance_shape_check():
    with pytest.raises(ShapeError):
        check_scale_invariance(DRAG_A, RatMatrix.zero(1, 5))


def test_scale_invariance_soundness_random():
    rng = random.Random(3301)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(2, 8)
        a = random_int_matrix(rng, m, n, -2, 2)
        kernel = nullspace_basis(a)
        j = random_invariant_jacobian(rng, kernel, rng.randint(0, 3))
        assert check_scale_invariance(a, j) is True
        # a row outside the kernel must break invariance
        out_row = None
        for _ in range(40):
            cand = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            prod = RatMatrix.from_rows([cand], cols=n) @ a.transpose()
            if not prod.is_zero():
                out_row = cand
                break
        if out_row is not None:
            broken = j.vstack(RatMatrix.from_rows([out_row], cols=n))
            assert check_scale_invariance(a, broken) is False


# ---------------------------------------------------------------------------
# effective counts


def _printed_forms(report) -> tuple:
    """The four d_eff forms as the report prints them, in schema order:
    via_kernel_JE, via_stacked_rank, via_grassmann, via_C_rank."""
    return tuple(_report_payload(report)["d_eff_formulas"].values())


def test_effective_counts_drag():
    report = analyze(model_from_matrices(DRAG_A, DRAG_J, repeating=DRAG_REPEATING))
    assert report.d_eff == 2
    assert _printed_forms(report) == (2, 2, 2, 2)


def test_effective_counts_unconstrained_degenerates():
    report = analyze(model_from_matrices(DRAG_A, RatMatrix.zero(0, 6)))
    assert report.E == DRAG_AUTO_BASIS
    assert report.d_eff == 3
    assert _printed_forms(report) == (3, 3, 3, 3)


def test_effective_counts_fixed_reynolds():
    j = DRAG_J.vstack(RatMatrix.from_rows([[0, 1, 1, 1, -1, 0]]))
    stacked = DRAG_A.vstack(j)
    assert minor_rank(stacked) == 5
    report = analyze(model_from_matrices(DRAG_A, j, repeating=DRAG_REPEATING))
    assert report.d_eff == 1
    assert _printed_forms(report) == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# redundancy matrix


def test_redundancy_matrix_drag_classic():
    c = redundancy_matrix(DRAG_J, DRAG_CLASSIC_BASIS)
    assert c == RatMatrix.from_rows([[0, 1, -1]])


def test_redundancy_matrix_no_constraints():
    c = redundancy_matrix(RatMatrix.zero(0, 6), DRAG_CLASSIC_BASIS)
    assert (c.rows, c.cols) == (0, 3)
    # an empty basis (trivial kernel) with zero constraint rows
    c = redundancy_matrix(RatMatrix.zero(2, 3), RatMatrix.zero(3, 0))
    assert (c.rows, c.cols) == (2, 0)


def test_redundancy_matrix_auto_basis():
    c = redundancy_matrix(DRAG_J, DRAG_AUTO_BASIS)
    assert c == RatMatrix.from_rows(
        [[0, Fraction(1, 2), Fraction(-1, 2)]]
    )
    assert rank(c) == 1
    assert c @ DRAG_AUTO_BASIS.transpose() == DRAG_J


def test_redundancy_matrix_refuses_non_invariant_rows():
    j = RatMatrix.from_rows([[1, 0, 0, 0, 0, 0]])
    with pytest.raises(ScaleInvarianceError, match="scale-invariant"):
        redundancy_matrix(j, DRAG_CLASSIC_BASIS)
    with pytest.raises(ScaleInvarianceError):
        redundancy_matrix(RatMatrix.from_rows([[1, 0]]), RatMatrix.zero(2, 0))
    # a basis without a unit row in a column is refused before any row is tested
    e = RatMatrix.from_columns([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="^column 1 of the kernel basis E has no unit row$"):
        redundancy_matrix(RatMatrix.from_rows([[1, 0]]), e)
    with pytest.raises(ValueError, match="^column 0 of the kernel basis E has no unit row$"):
        redundancy_matrix(DRAG_J, DRAG_MIXED_BASIS)


def test_redundancy_matrix_shape_check():
    with pytest.raises(ShapeError, match="J has 5 columns but E has 6 rows"):
        redundancy_matrix(RatMatrix.zero(1, 5), DRAG_CLASSIC_BASIS)


def test_redundancy_matrix_factorization_random():
    b = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert redundancy_matrix(b, RatMatrix.identity(3)) == b
    rng = random.Random(3302)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(2, 7)
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        if e.cols == 0:
            continue
        j = random_invariant_jacobian(rng, e, rng.randint(1, 3))
        c = redundancy_matrix(j, e)
        assert c @ e.transpose() == j
        assert rank(c) == rank(j)


def _textbook_solve(j: RatMatrix, e: RatMatrix) -> RatMatrix:
    """C from a Fraction Gauss-Jordan elimination of [E | J^T]."""
    d = e.cols
    rows = [list(e.row(i)) + list(j.column(i)) for i in range(e.rows)]
    reduced, pivots, _ = textbook_rref(rows, d + j.rows)
    assert pivots == list(range(d))
    rows = [[row[d + k] for row in reduced[:d]] for k in range(j.rows)]
    return RatMatrix.from_rows(rows, cols=d)


def test_redundancy_matrix_reads_unit_rows_and_refuses_otherwise():
    # A canonical E, and E with its columns permuted and scaled, have a unit
    # row for every column: C is read off them, and is the solve of the
    # textbook elimination; both refuse a row of A, which lies outside the
    # kernel. E @ U for a dense unimodular U has no unit row in some column
    # and is refused.
    rng = random.Random(8128)
    seen = {"unit": 0, "dense": 0}
    for _ in range(80):
        m = rng.randint(1, 4)
        a = random_int_matrix(rng, m, rng.randint(m + 1, 8), -2, 2)
        e = nullspace_basis(a)
        d = e.cols
        order = rng.sample(range(d), d)
        scales = [rng.choice((-2, -1, Fraction(1, 3), 1, 3)) for _ in range(d)]
        shuffled = RatMatrix.from_columns([[x * scales[k] for x in e.column(k)] for k in order])
        outside = next((a.row(i) for i in range(m) if any(a.row(i))), None)
        for basis in (e, shuffled):
            j = random_invariant_jacobian(rng, basis, rng.randint(0, 3))
            c = redundancy_matrix(j, basis)
            seen["unit"] += 1
            assert c @ basis.transpose() == j
            assert c == _textbook_solve(j, basis)
            if outside is not None:
                bad = j.vstack(RatMatrix.from_rows([outside]))
                with pytest.raises(ScaleInvarianceError):
                    redundancy_matrix(bad, basis)
        for _ in range(10 if d >= 2 else 0):
            mixed = e @ random_unimodular(rng, d)
            if not any(sum(map(bool, row)) == 1 for row in mixed.nums):
                j = random_invariant_jacobian(rng, mixed, rng.randint(0, 3))
                with pytest.raises(ValueError, match="of the kernel basis E has no unit row$"):
                    redundancy_matrix(j, mixed)
                seen["dense"] += 1
                break
    assert seen["unit"] >= 100 and seen["dense"] >= 20


def test_redundancy_matrix_refuses_exactly_the_non_invariant_rows():
    # The unit-row solve checks C E^T == J only off the unit rows; it must
    # still refuse J exactly when J @ A^T != 0, for the canonical E and for
    # E with its columns permuted and rescaled, whichever entry of an
    # invariant J is changed, at a unit row or not.
    rng = random.Random(2113)
    seen = {True: 0, False: 0}
    for _ in range(150):
        m = rng.randint(1, 4)
        a = random_int_matrix(rng, m, rng.randint(m + 1, 8), -2, 2)
        e = nullspace_basis(a)
        d = e.cols
        order = rng.sample(range(d), d)
        scales = [rng.choice((-2, -1, Fraction(1, 3), 1, 3)) for _ in range(d)]
        shuffled = RatMatrix.from_columns([[x * scales[k] for x in e.column(k)] for k in order])
        for basis in (e, shuffled):
            j = random_invariant_jacobian(rng, basis, rng.randint(1, 3))
            if rng.random() < 0.7:
                rows = j.to_rows()
                step = rng.choice((-1, 1, Fraction(1, 2)))
                rows[rng.randrange(j.rows)][rng.randrange(j.cols)] += step
                j = RatMatrix.from_rows(rows, cols=j.cols)
            invariant = check_scale_invariance(a, j)
            seen[invariant] += 1
            if invariant:
                assert redundancy_matrix(j, basis) @ basis.transpose() == j
            else:
                with pytest.raises(ScaleInvarianceError):
                    redundancy_matrix(j, basis)
    assert min(seen.values()) >= 50


# ---------------------------------------------------------------------------
# independent-set selection: the non-pivot columns of rref(C), and its nonzero
# rows as the relations


def _selection(a: RatMatrix, j: RatMatrix, c: RatMatrix, repeating=()):
    report = analyze(model_from_matrices(a, j, repeating=repeating))
    assert report.C == c
    return report.selected, tuple(r.coeffs for r in report.relations)


def test_select_independent_drag():
    c = RatMatrix.from_rows([[0, 1, -1]])
    selected, relations = _selection(DRAG_A, DRAG_J, c, DRAG_REPEATING)
    assert selected == (0, 2)
    assert relations == ((Fraction(0), Fraction(1), Fraction(-1)),)


def test_select_independent_empty():
    # four dimensionless quantities and no constraints: C is 0 x 4
    empty = RatMatrix.zero(0, 4)
    selected, relations = _selection(RatMatrix.zero(1, 4), empty, empty)
    assert selected == (0, 1, 2, 3)
    assert relations == ()


def test_select_independent_two_pivots():
    # with E = I, C is J itself
    c = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    selected, relations = _selection(RatMatrix.zero(1, 3), c, c)
    assert selected == (2,)
    assert relations == ((1, 0, 0), (0, 1, 0))


# ---------------------------------------------------------------------------
# analyze end to end


def _relation_labels(report) -> list[str]:
    return [r["label"] for r in _report_payload(report)["relations"]]


def test_analyze_drag_classic():
    report = analyze(drag_model())
    assert (report.n, report.m, report.ell, report.d) == (6, 3, 1, 3)
    assert report.scale_invariant is True
    assert report.d_eff == 2
    assert report.C == RatMatrix.from_rows([[0, 1, -1]])
    assert report.rref_C == report.C
    assert report.selected == (0, 2)
    assert len(report.selected) == report.d_eff
    assert _relation_labels(report) == ["pi2 / pi3 = 1"]
    assert report.relations[0].constant == 1
    assert _report_payload(report)["warnings"] == []


def test_analyze_refuses_each_line_of_a_written_out_mixed_basis(drag_text):
    # No repeating set gives DRAG_MIXED_BASIS, and no analysis sees it: the
    # basis_override: line that once held it, and each of its rows, is a
    # line that starts with no directive.
    rows = [", ".join(map(str, DRAG_MIXED_BASIS.column(k))) for k in range(3)]
    text = drag_text.replace("repeating: rho, U, L\n", "\n".join(["basis_override:", *rows, ""]))
    code, out, err = run(CliConfig("analyze", "drag.pim"), text)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines == [
        f"drag.pim:{line}:1: error[syntax]: expected one of: dimensions:, quantity, "
        "constraint, jacobian_row:, repeating:"
        for line in range(10, 14)
    ]


def test_analyze_pendulum_unconstrained():
    report = analyze(pendulum_model())
    assert report.d == report.d_eff == 1
    assert report.relations == ()
    assert report.selected == (0,)
    assert report.C is not None and report.C.rows == 0


def test_analyze_non_invariant_raw_row():
    model = drag_model(
        extra_constraints=(JacobianRowConstraint((1, 0, 0, 0, 0, 0)),)
    )
    report = analyze(model)
    assert report.scale_invariant is False
    assert report.C is None
    assert report.rref_C is None
    assert report.selected is None
    assert report.relations is None
    assert report.d_eff == 1  # fixing F_D removes one more degree of freedom
    assert _printed_forms(report) == (1, 1, 1, None)
    assert any("not scale-invariant" in w for w in _report_payload(report)["warnings"])


def test_analyze_pointwise_relation_label():
    # a raw Jacobian row that happens to be scale invariant: the kernel
    # vector for the Reynolds number
    model = drag_model(
        extra_constraints=(JacobianRowConstraint((0, 1, 1, 1, -1, 0)),)
    )
    report = analyze(model)
    assert report.scale_invariant is True
    assert report.d_eff == 1
    pointwise = [r for r in _report_payload(report)["relations"] if r["pointwise"]]
    assert pointwise and all(r["constant"] is None for r in pointwise)
    assert all(r["label"].endswith("const (pointwise)") for r in pointwise)


def _power_model(power: int) -> Model:
    """Dimensionless x and y with x = 3 and x^power * y = 1, so the relation
    for pi2 = y has the constant 3^-power."""
    return Model(
        DimensionSystem(("M",)),
        (Quantity("x", (0,)), Quantity("y", (0,))),
        (
            MonomialConstraint((1, 0), Fraction(3)),
            MonomialConstraint((power, 1), Fraction(1)),
        ),
    )


def test_relation_constant_past_the_bit_budget_is_symbolic():
    # 3 has bit length 2: the bound for 3^-power is 2 * power bits, at most
    # the bit length up to which every integer prints
    power = model_module._SAFE_BITS // 2
    report = analyze(_power_model(power))
    under = report.relations[1]
    assert under.constant == Fraction(1, 3**power)
    assert _relation_labels(report)[1] == f"pi2 = {under.constant}"
    report = analyze(_power_model(power + 1))
    over = report.relations[1]
    assert over.constant is None
    assert over.k_exponents == (-(power + 1), 1)
    assert _relation_labels(report)[1] == f"pi2 = K1^(-{power + 1}) * K2"


def test_symbolic_relation_skips_a_zero_constant_exponent():
    # pi1 = a/b = 2^(1/2) is irrational and needs only K1
    model = parse_model(
        "dimensions: M\nquantity a = M\nquantity b = M\nquantity c = M\n"
        "constraint a^2 / b^2 = 2\nconstraint c / b = 3\n"
    )
    report = analyze(model)
    assert "\n  relation: pi1 = K1^(1/2)\n" in render_report(report, "text")
    relation = json.loads(render_report(report, "json"))["relations"][0]
    assert relation["label"] == "pi1 = K1^(1/2)"
    assert relation["k_exponents"] == ["1/2", "0"]
    assert relation["constant"] is None


def test_analyze_refuses_a_constraint_constant_too_long_to_print():
    # The parser bounds literals; a model built in Python does not.
    dims = DimensionSystem(("M",))
    for constant, digits in ((Fraction(10**4400), 4401), (Fraction(1, 10**4300), 4301)):
        model = Model(dims, (Quantity("x", (0,)),), (MonomialConstraint((1,), constant),))
        with pytest.raises(ModelError, match=f"constraint 1 has a number of {digits} digits"):
            analyze(model)
    # 10^4299 has 14,283 bits and prints; so does 10^4300 - 1, with 4,300
    # digits but 14,285 bits: past the bit budget of relation constants, so
    # its relation is symbolic
    for constant, label in ((10**4299, f"pi1 = {10**4299}"), (10**4300 - 1, "pi1 = K1")):
        printable = Model(dims, (Quantity("x", (0,)),), (MonomialConstraint((1,), constant),))
        assert _relation_labels(analyze(printable))[0] == label


def test_analyze_names_the_first_item_too_long_to_print():
    # x = M^a, y = L^b, z = M L: pi group 1 is x^b * y^a / z^(a*b), and a*b
    # has 4,301 digits. The exponent of w puts a 4,301-digit number in A too.
    a, b = 10**2150, 10**2150 + 1
    model = Model(
        DimensionSystem(("M", "L")),
        (Quantity("x", (a, 0)), Quantity("y", (0, b)), Quantity("z", (1, 1)),
         Quantity("w", (10**4300, 0))),
    )
    with pytest.raises(ModelError, match="^pi group 1 has a number of 4301 digits"):
        analyze(model)
    # a * b^(10^4300) = 1 over dimensionless a and b: the relation, J, C and
    # rref(C) each hold 10^4300
    model = Model(
        DimensionSystem(("M",)),
        (Quantity("a", (0,)), Quantity("b", (0,))),
        (MonomialConstraint((1, 10**4300)),),
    )
    with pytest.raises(ModelError, match="^relation 1 has a number of 4301 digits"):
        analyze(model)


def test_analyze_builds_c_once_and_never_repeats_an_elimination(monkeypatch):
    calls = {"redundancy_matrix": 0, "check_scale_invariance": 0}
    handed: list[RatMatrix] = []
    depth = [0]

    def counted(name):
        original = getattr(reduce_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    def recorded(original):
        # only the outermost call counts
        def wrapper(matrix):
            if depth[0] == 0:
                handed.append(matrix)
            depth[0] += 1
            try:
                return original(matrix)
            finally:
                depth[0] -= 1

        return wrapper

    for name in calls:
        monkeypatch.setattr(reduce_module, name, counted(name))
    for name in ("rank", "rref_with_transform"):
        wrapper = recorded(getattr(ratlin_module, name))
        for module in (ratlin_module, model_module, reduce_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    reynolds = MonomialConstraint((0, 1, 1, 1, -1, 0), Fraction(3))
    for model in (
        drag_model(),
        drag_model(with_basis=False),
        drag_model(with_basis=False, extra_constraints=(reynolds,)),
    ):
        for key in calls:
            calls[key] = 0
        handed.clear()
        report = analyze(model)
        assert report.scale_invariant is True
        assert calls == {"redundancy_matrix": 1, "check_scale_invariance": 1}
        assert len(handed) == len(set(handed))


def test_analyze_refusal_to_factor_invariant_constraints_is_a_bug(monkeypatch):
    # once J @ A^T == 0 holds, J factors through E; a refusal is an engine
    # bug, not a modeling error
    model = drag_model(
        extra_constraints=(JacobianRowConstraint((1, 0, 0, 0, 0, 0)),)
    )
    monkeypatch.setattr(reduce_module, "check_scale_invariance", lambda a, j: True)
    with pytest.raises(InvariantViolation, match="does not factor through E"):
        analyze(model)


MODELS = Path(__file__).resolve().parent.parent / "models"


def _shipped_model(name: str) -> Model:
    return parse_model((MODELS / f"{name}.pim").read_text(encoding="utf-8"))


def _ladder_round(pointwise: bool) -> list[Model]:
    return [parse_model(made.text) for made in load_bench("gen").ladder(1, 1, pointwise)]


@pytest.mark.parametrize(
    "models, invariant",
    [
        ([drag_model()], True),
        ([drag_model(extra_constraints=(JacobianRowConstraint((1, 0, 0, 0, 0, 0)),))], False),
        ([_shipped_model("forced_convection")], True),
        ([_shipped_model("free_fall")], False),
        # no constraints: C is 0 x d
        ([Model(drag_model().dims, drag_model().quantities)], True),
        (_ladder_round(pointwise=False), True),
        (_ladder_round(pointwise=True), False),
    ],
    ids=[
        "invariant", "pointwise", "forced_convection", "free_fall", "no_constraints",
        "ladder_invariant", "ladder_pointwise",
    ],
)
def test_analyze_computes_each_rank_once(monkeypatch, models, invariant):
    # the kernel of A, then rref(C) when invariant and rank(J E) otherwise
    eliminations, ranks = [], []
    eliminate, original_rank = ratlin_module._eliminate, reduce_module.rank

    def counted_eliminate(*args, **kwargs):
        eliminations.append(args)
        return eliminate(*args, **kwargs)

    def counted_rank(matrix):
        ranks.append(matrix)
        return original_rank(matrix)

    monkeypatch.setattr(ratlin_module, "_eliminate", counted_eliminate)
    monkeypatch.setattr(reduce_module, "rank", counted_rank)
    for model in models:
        eliminations.clear()
        ranks.clear()
        assert analyze(model).scale_invariant is invariant
        assert len(eliminations) == 2
        assert len(ranks) == (0 if invariant else 1)


# ---------------------------------------------------------------------------
# quantified properties


def test_formula_agreement_random():
    rng = random.Random(3303)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 8)
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        j = random_invariant_jacobian(rng, e, rng.randint(0, 3))
        report = analyze(model_from_matrices(a, j))
        stacked = len(textbook_rref(a.to_rows() + j.to_rows(), n)[1])
        assert report.d_eff == n - stacked == e.cols - rank(redundancy_matrix(j, e))
        assert _printed_forms(report) == (report.d_eff,) * 4


def test_formula_agreement_without_invariance():
    # J repeats a row of A: the row spaces meet in one dimension
    j = RatMatrix.from_rows([DRAG_A.row(0)])
    assert check_scale_invariance(DRAG_A, j) is False
    report = analyze(model_from_matrices(DRAG_A, j, repeating=DRAG_REPEATING))
    assert report.d_eff == 3
    assert _printed_forms(report) == (3, 3, 3, None)
    rng = random.Random(3304)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        j = random_int_matrix(rng, rng.randint(0, 3), n, -2, 2)
        report = analyze(model_from_matrices(a, j))
        assert report.d_eff == n - len(textbook_rref(a.to_rows() + j.to_rows(), n)[1])
        assert report.scale_invariant is check_scale_invariance(a, j)
        via_c = report.d_eff if report.scale_invariant else None
        assert _printed_forms(report) == (report.d_eff,) * 3 + (via_c,)


def test_selection_correctness_random():
    rng = random.Random(3305)
    done = 0
    while done < 120:
        m = rng.randint(1, 4)
        n = rng.randint(2, 7)
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        if e.cols == 0:
            continue
        j = random_invariant_jacobian(rng, e, rng.randint(1, 3))
        report = analyze(model_from_matrices(a, j))
        c = report.C
        assert c == redundancy_matrix(j, e)
        selected = report.selected
        relations = [r.coeffs for r in report.relations]
        assert len(selected) == e.cols - rank(c)
        result = rref_with_transform(c)[0]
        if result.rank:
            pivot_block = RatMatrix.from_columns(
                [result.rref.column(col) for col in result.pivot_cols]
            )
            assert rank(pivot_block) == result.rank
        # every relation, expanded to quantity exponents, is implied by the
        # constraints: it lies in the row space of J
        for row in relations:
            expanded = e @ RatMatrix.from_columns([row])
            as_row = expanded.transpose()
            assert rank(j.vstack(as_row)) == rank(j)
        done += 1


def _random_constrained_model(rng: random.Random):
    """A random model, monomial constraints built from its kernel, and a
    value assignment that satisfies every constraint exactly."""
    m = rng.randint(1, 3)
    n = rng.randint(2, 6)
    dims = DimensionSystem(tuple(f"D{i}" for i in range(m)))
    quantities = tuple(
        Quantity(f"x{j}", tuple(rng.randint(-2, 2) for _ in range(m)))
        for j in range(n)
    )
    bare = Model(dims, quantities)
    a = build_dimension_matrix(bare)
    kernel = nullspace_basis(a)
    if kernel.cols == 0:
        return None
    values = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
    constraints = []
    for _ in range(rng.randint(1, 2)):
        row = [0] * n
        for jcol in range(kernel.cols):
            coeff = rng.randint(-2, 2)
            if coeff:
                col = kernel.column(jcol)
                row = [r + coeff * int(c) for r, c in zip(row, col)]
        if all(x == 0 for x in row):
            continue
        constant = evaluate_monomial(values, row)
        constraints.append(MonomialConstraint(tuple(row), constant))
    if not constraints:
        return None
    return Model(dims, quantities, tuple(constraints)), values


def test_constraint_manifold_relations_random():
    rng = random.Random(3306)
    done = 0
    while done < 120:
        built = _random_constrained_model(rng)
        if built is None:
            continue
        model, values = built
        report = analyze(model)
        assert report.scale_invariant is True
        pi_values = [evaluate_monomial(values, g) for g in zip(*report.E.nums)]
        for relation in report.relations:
            lhs = evaluate_monomial(pi_values, relation.pi_exponents)
            if relation.constant is not None:
                assert lhs == relation.constant
            else:
                # compare after clearing fractional exponents of the K's
                q = lcm(*(x.denominator for x in relation.k_exponents))
                rhs = Fraction(1)
                for k, exp in enumerate(relation.k_exponents):
                    scaled = exp * q
                    assert scaled.denominator == 1
                    rhs *= model.constraints[k].constant ** int(scaled)
                assert lhs ** q == rhs
        done += 1


def test_drag_manifold_relation():
    rng = random.Random(3307)
    model = drag_model()
    for _ in range(100):
        rho = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        mu = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        values = (
            Fraction(rng.randint(1, 12), rng.randint(1, 12)),  # F_D
            rho,
            Fraction(rng.randint(1, 12), rng.randint(1, 12)),  # U
            Fraction(rng.randint(1, 12), rng.randint(1, 12)),  # L
            mu,
            mu / rho,  # nu, satisfying the constraint exactly
        )
        report = analyze(model)
        pi = [evaluate_monomial(values, g) for g in zip(*report.E.nums)]
        assert pi[1] / pi[2] == 1


def test_harness_size_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")

    def sym(matrix: RatMatrix):
        return sympy.Matrix(
            matrix.rows,
            matrix.cols,
            [sympy.Rational(x.numerator, x.denominator) for x in matrix.entries],
        )

    rng = random.Random(3308)
    for n, m, ell in ((12, 4, 2), (20, 5, 3), (20, 6, 6), (24, 6, 4)):
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        j = random_invariant_jacobian(rng, e, ell)
        c = redundancy_matrix(j, e)
        solution, params = sym(e).gauss_jordan_solve(sym(j).T)
        assert params.rows == 0
        assert sym(c) == solution.T
        # rows built from A make the row spaces meet and break invariance
        meets = RatMatrix.from_rows(
            [
                [x + y for x, y in zip(a.row(0), a.row(1))],
                [x - y for x, y in zip(j.row(0), a.row(2))],
            ]
        )
        for b in (j, j.vstack(meets)):
            stacked = sym(a).col_join(sym(b)).rank()
            assert analyze(model_from_matrices(a, b)).d_eff == n - stacked


@pytest.mark.parametrize("seed", [1, 2])
def test_seed_era_n40_model(seed: int):
    # The model style that once ran about 29 s and then crashed: a random
    # 10 x 40 A, twelve invariant monomial constraints with random constants.
    rng = random.Random(seed)
    a = random_int_matrix(rng, 10, 40, -3, 3)
    j = random_invariant_jacobian(rng, nullspace_basis(a), 12)
    constants = [random_positive_fraction(rng) for _ in range(j.rows)]
    report = analyze(model_from_matrices(a, j, constants=constants))
    assert (report.n, report.d, report.ell, report.d_eff) == (40, 30, 12, 18)
    assert _printed_forms(report) == (18,) * 4
    assert report.C @ report.E.transpose() == report.J
    assert len(report.relations) == 12
    assert len(report.selected) == 18
