from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from pim.model import (
    DimensionSystem,
    Model,
    ModelError,
    PiGroup,
    Quantity,
    build_dimension_matrix,
    format_monomial,
    pi_basis,
)
from pim.modelfile import parse_monomial, render_report
from pim.ratlin import RatMatrix, nullspace_basis, rank
from pim.reduce import JacobianRowConstraint, analyze

from oracles import (
    DRAG_A,
    DRAG_CLASSIC_BASIS,
    UnsupportedRescaleError,
    apply_rescale,
    drag_model,
    evaluate_monomial,
    minor_rank,
    pendulum_model,
)


# ---------------------------------------------------------------------------
# domain type validation


def test_dimension_system_validation():
    with pytest.raises(ModelError):
        DimensionSystem(())
    with pytest.raises(ModelError, match="duplicate"):
        DimensionSystem(("M", "M"))
    with pytest.raises(ModelError, match="identifier"):
        DimensionSystem(("2M",))


def test_model_validation():
    dims = DimensionSystem(("M", "L"))
    with pytest.raises(ModelError, match="duplicate quantity"):
        Model(dims, (Quantity("x", (1, 0)), Quantity("x", (0, 1))))
    with pytest.raises(ModelError, match="dimension exponents"):
        Model(dims, (Quantity("x", (1,)),))
    with pytest.raises(ModelError, match="basis override"):
        Model(dims, (Quantity("x", (1, 0)),), basis_override=RatMatrix.zero(3, 1))
    with pytest.raises(ModelError, match="constraint 1 has 2 coefficients, expected 1"):
        Model(dims, (Quantity("x", (1, 0)),), (JacobianRowConstraint((1, 0)),))


def test_pi_group_invariants():
    with pytest.raises(ModelError):
        PiGroup((0, 0), "x")
    with pytest.raises(ModelError, match="primitive"):
        PiGroup((2, 4), "x")
    with pytest.raises(ModelError, match="positive"):
        PiGroup((-1, 2), "x")


def test_rescale_vector_positive():
    model = Model(DimensionSystem(("M", "L")), (Quantity("x", (1, 0)),))
    with pytest.raises(ValueError, match="rescale factor 1 must be positive"):
        apply_rescale(model, [Fraction(1)], (Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# dimension matrix


def test_dimension_matrix_drag():
    assert build_dimension_matrix(drag_model()) == DRAG_A


def test_dimension_matrix_dimensionless_quantity():
    model = Model(DimensionSystem(("M", "L", "T")), (Quantity("q", (0, 0, 0)),))
    assert build_dimension_matrix(model) == RatMatrix.zero(3, 1)


PENDULUM_A = RatMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, -2]])


def test_dimension_matrix_pendulum():
    a = build_dimension_matrix(pendulum_model())
    assert a == PENDULUM_A
    assert minor_rank(a) == 3


# ---------------------------------------------------------------------------
# buckingham count


def test_buckingham_count_examples():
    # the Buckingham count is columns minus rank, and the kernel basis has
    # that many columns
    for a, count in ((DRAG_A, 3), (RatMatrix.zero(2, 5), 5), (PENDULUM_A, 1)):
        assert a.cols - rank(a) == count
        assert nullspace_basis(a).cols == count


# ---------------------------------------------------------------------------
# pi basis and labels


def test_pi_basis_drag_classic_labels():
    model = drag_model()
    basis, groups = pi_basis(model, DRAG_A)
    assert basis == DRAG_CLASSIC_BASIS
    assert [g.label for g in groups] == [
        "F_D/(rho*U^2*L^2)",
        "(rho*U*L)/mu",
        "(U*L)/nu",
    ]


def test_pi_basis_dimensionless_quantity_label():
    model = Model(DimensionSystem(("M",)), (Quantity("q", (0,)),))
    a = build_dimension_matrix(model)
    _, groups = pi_basis(model, a)
    assert [g.label for g in groups] == ["q"]
    assert groups[0].exponents == (1,)


def test_pi_basis_pendulum_auto():
    model = pendulum_model()
    a = build_dimension_matrix(model)
    basis, groups = pi_basis(model, a)
    assert basis.cols == 1
    assert groups[0].exponents == (2, 0, -1, 1)
    assert groups[0].label == "(T^2*g)/L_p"
    assert (a @ basis).is_zero()


def test_pi_basis_scales_override_columns_but_keeps_e_as_given():
    model = drag_model()
    cols = [list(model.basis_override.column(k)) for k in range(3)]
    cols[1] = [-2 * x for x in cols[1]]
    scaled = RatMatrix.from_columns(cols)
    changed = Model(model.dims, model.quantities, model.constraints, scaled)
    basis, groups = pi_basis(changed, DRAG_A)
    assert groups == pi_basis(model, DRAG_A)[1]
    assert basis == scaled
    payload = json.loads(render_report(analyze(changed), "json"))
    assert [row[1] for row in payload["E"]] == ["0", "-2", "-2", "-2", "2", "0"]


def test_pi_basis_override_wrong_shape():
    model = drag_model()
    bad = Model(
        model.dims,
        model.quantities,
        model.constraints,
        RatMatrix.from_columns([[1, -1, -2, -2, 0, 0]]),
    )
    with pytest.raises(ModelError, match="kernel has dimension 3"):
        pi_basis(bad, DRAG_A)


def test_pi_basis_override_not_in_kernel():
    model = drag_model()
    cols = [
        [1, -1, -2, -2, 0, 0],
        [0, 1, 1, 1, -1, 0],
        [1, 0, 0, 0, 0, 0],  # F_D alone is dimensionful
    ]
    bad = Model(model.dims, model.quantities, model.constraints,
                RatMatrix.from_columns(cols))
    with pytest.raises(ModelError, match="column 2 is not in the kernel"):
        pi_basis(bad, DRAG_A)


def test_pi_basis_override_rank_deficient():
    model = drag_model()
    col = [1, -1, -2, -2, 0, 0]
    cols = [col, col, [0, 1, 1, 1, -1, 0]]
    bad = Model(model.dims, model.quantities, model.constraints,
                RatMatrix.from_columns(cols))
    with pytest.raises(ModelError, match="rank-deficient"):
        pi_basis(bad, DRAG_A)


def test_pi_basis_properties_random():
    rng = random.Random(2201)
    for _ in range(80):
        m_dims = rng.randint(1, 4)
        n = rng.randint(1, 8)
        dims = DimensionSystem(tuple(f"D{i}" for i in range(m_dims)))
        quantities = tuple(
            Quantity(f"x{j}", tuple(rng.randint(-2, 2) for _ in range(m_dims)))
            for j in range(n)
        )
        model = Model(dims, quantities)
        a = build_dimension_matrix(model)
        basis, groups = pi_basis(model, a)
        assert (a @ basis).is_zero()
        assert basis.cols == a.cols - rank(a)
        if basis.cols:
            assert rank(basis) == basis.cols
        assert len(groups) == basis.cols


def test_labels_round_trip():
    rng = random.Random(2202)
    for _ in range(60):
        m_dims = rng.randint(1, 3)
        n = rng.randint(1, 6)
        dims = DimensionSystem(tuple(f"D{i}" for i in range(m_dims)))
        quantities = tuple(
            Quantity(f"x{j}", tuple(rng.randint(-2, 2) for _ in range(m_dims)))
            for j in range(n)
        )
        model = Model(dims, quantities)
        a = build_dimension_matrix(model)
        _, groups = pi_basis(model, a)
        for g in groups:
            parsed = parse_monomial(g.label, model.quantity_names)
            assert tuple(parsed) == tuple(Fraction(e) for e in g.exponents)


def test_format_monomial_spaced():
    assert format_monomial(["pi1", "pi2", "pi3"], [0, 1, -1], spaced=True) == "pi2 / pi3"
    assert (
        format_monomial(["a", "b", "c"], [1, 2, -3], spaced=True) == "a * b^2 / c^3"
    )
    assert format_monomial(["a", "b"], [-1, -2]) == "1/(a*b^2)"


# ---------------------------------------------------------------------------
# monomial evaluation: self-tests of the oracle in tests/oracles.py


def test_evaluate_monomial_examples():
    assert evaluate_monomial([1, 1, 1], [3, -2, 5]) == 1
    assert evaluate_monomial([2, 3], [1, -1]) == Fraction(2, 3)
    # drag coefficient at F_D=12, rho=3, U=2, L=1, mu=1, nu=1/3
    values = [12, 3, 2, 1, 1, Fraction(1, 3)]
    assert evaluate_monomial(values, (1, -1, -2, -2, 0, 0)) == 1


def test_evaluate_monomial_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        evaluate_monomial([2, 0], [1, 1])
    with pytest.raises(ValueError, match="positive"):
        evaluate_monomial([2, -3], [1, 1])
    with pytest.raises(ValueError, match="values vs"):
        evaluate_monomial([2], [1, 1])


# ---------------------------------------------------------------------------
# rescaling: self-tests of the oracle in tests/oracles.py


def test_apply_rescale_identity():
    model = drag_model()
    values = tuple(Fraction(k + 1) for k in range(6))
    s = (Fraction(1), Fraction(1), Fraction(1))
    assert apply_rescale(model, values, s) == values


def test_apply_rescale_single_length():
    model = Model(DimensionSystem(("L",)), (Quantity("x", (1,)),))
    out = apply_rescale(model, [Fraction(5)], (Fraction(2),))
    assert out == (Fraction(10),)


def test_apply_rescale_drag_mass_doubled():
    model = drag_model()
    values = tuple(Fraction(1) for _ in range(6))
    out = apply_rescale(model, values, (Fraction(2), Fraction(1), Fraction(1)))
    # mass appears with exponent 1 in F_D, rho, mu and exponent 0 elsewhere
    assert out == (2, 2, 1, 1, 2, 1)


def test_apply_rescale_fractional_exponent():
    model = Model(DimensionSystem(("L",)), (Quantity("x", (Fraction(1, 2),)),))
    # unit factor is fine even with a fractional exponent
    assert apply_rescale(model, [Fraction(3)], (Fraction(1),)) == (3,)
    with pytest.raises(UnsupportedRescaleError, match="non-integer exponent 1/2"):
        apply_rescale(model, [Fraction(3)], (Fraction(4),))


def test_rescale_invariance_of_pi_groups():
    rng = random.Random(2203)
    checked = 0
    while checked < 100:
        m_dims = rng.randint(1, 3)
        n = rng.randint(2, 6)
        dims = DimensionSystem(tuple(f"D{i}" for i in range(m_dims)))
        quantities = tuple(
            Quantity(f"x{j}", tuple(rng.randint(-2, 2) for _ in range(m_dims)))
            for j in range(n)
        )
        model = Model(dims, quantities)
        a = build_dimension_matrix(model)
        _, groups = pi_basis(model, a)
        if not groups:
            continue
        values = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
        scales = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(m_dims))
        rescaled = apply_rescale(model, values, scales)
        for g in groups:
            assert evaluate_monomial(rescaled, g.exponents) == evaluate_monomial(
                values, g.exponents
            )
        checked += 1
