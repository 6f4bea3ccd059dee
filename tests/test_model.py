"""pim.model: the dimension system and quantities, the dimension matrix A,
the Buckingham count d = n - rank A, and the pi basis E with its labels, by
default and from a repeating set; and self-tests of the monomial and
rescaling oracles in tests/oracles.py.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from pim.model import (
    DimensionSystem,
    Model,
    ModelError,
    Quantity,
    build_dimension_matrix,
    pi_basis,
)
from pim.modelfile import _report_payload, format_monomial, parse_monomial, render_report
from pim.ratlin import RatMatrix, nullspace_basis, rank
from pim.reduce import JacobianRowConstraint, MonomialConstraint, analyze

from oracles import (
    DRAG_A,
    DRAG_CLASSIC_BASIS,
    UnsupportedRescaleError,
    apply_rescale,
    drag_model,
    evaluate_monomial,
    minor_rank,
    pendulum_model,
    repeating_pivots,
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
    with pytest.raises(ModelError, match="unknown repeating quantity 'y'"):
        Model(dims, (Quantity("x", (1, 0)),), repeating=("y",))
    with pytest.raises(ModelError, match="duplicate repeating quantity 'x'"):
        Model(dims, (Quantity("x", (1, 0)),), repeating=("x", "x"))
    with pytest.raises(ModelError, match="constraint 1 has 2 coefficients, expected 1"):
        Model(dims, (Quantity("x", (1, 0)),), (JacobianRowConstraint((1, 0)),))


M_L = DimensionSystem(("M", "L"))
X_Y = (Quantity("x", (1, 0)), Quantity("y", (1, 0)))


@pytest.mark.parametrize(
    "build, items",
    [
        (DimensionSystem, ("M", "L")),
        (lambda quantities: Model(M_L, quantities), X_Y),
        (lambda constraints: Model(M_L, X_Y, constraints), (MonomialConstraint((1, -1)),)),
    ],
    ids=["dimension names", "quantities", "constraints"],
)
def test_a_value_built_from_a_list_keeps_no_reference_to_it(build, items):
    given = list(items)
    value = build(given)
    given.append(items[0])
    assert value == build(items)
    assert hash(value) == hash(build(items))


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


def test_kernel_dimension_is_columns_minus_rank():
    # the Buckingham count is columns minus rank, and the kernel basis has
    # that many columns
    for a, count in ((DRAG_A, 3), (RatMatrix.zero(2, 5), 5), (PENDULUM_A, 1)):
        assert a.cols - rank(a) == count
        assert nullspace_basis(a).cols == count


# ---------------------------------------------------------------------------
# pi basis and labels


def _group_labels(model: Model) -> list[str]:
    return [g["label"] for g in _report_payload(analyze(model))["pi_groups"]]


def test_pi_basis_drag_classic_labels():
    model = drag_model()
    basis, _ = pi_basis(model, DRAG_A)
    assert basis == DRAG_CLASSIC_BASIS
    assert _group_labels(model) == [
        "F_D/(rho*U^2*L^2)",
        "(rho*U*L)/mu",
        "(U*L)/nu",
    ]


def test_pi_basis_dimensionless_quantity_label():
    model = Model(DimensionSystem(("M",)), (Quantity("q", (0,)),))
    a = build_dimension_matrix(model)
    _, groups = pi_basis(model, a)
    assert _group_labels(model) == ["q"]
    assert groups == ((1,),)


def test_pi_basis_pendulum_auto():
    model = pendulum_model()
    a = build_dimension_matrix(model)
    basis, groups = pi_basis(model, a)
    assert basis.cols == 1
    assert groups == ((2, 0, -1, 1),)
    assert _group_labels(model) == ["(T^2*g)/L_p"]
    assert (a @ basis).is_zero()


def test_pi_basis_scales_repeating_columns_and_e_is_the_groups():
    # A repeating set in any order gives the same columns, each made
    # primitive in declaration order: with b repeating, the permuted
    # kernel's column b/a reads -1, 1 back in declaration order, so it
    # becomes a/b.
    model = drag_model()
    reordered = Model(model.dims, model.quantities, model.constraints, ("L", "U", "rho"))
    basis, groups = pi_basis(reordered, DRAG_A)
    assert basis == DRAG_CLASSIC_BASIS
    assert groups == pi_basis(model, DRAG_A)[1]
    two = Model(DimensionSystem(("M",)), (Quantity("a", (1,)), Quantity("b", (1,))))
    changed = Model(two.dims, two.quantities, repeating=("b",))
    basis, groups = pi_basis(changed, build_dimension_matrix(two))
    assert groups == ((1, -1),)
    assert basis == RatMatrix.from_columns(groups)
    payload = json.loads(render_report(analyze(changed), "json"))
    assert payload["E"] == [["1"], ["-1"]]
    assert payload["pi_groups"] == [{"label": "a/b", "exponents": [1, -1]}]


def test_pi_basis_repeating_set_of_wrong_size():
    # a repeating set of other than rank A quantities gives a basis of the
    # wrong number of columns
    model = drag_model()
    for repeating in (("rho", "U"), ("rho", "U", "L", "mu")):
        changed = Model(model.dims, model.quantities, model.constraints, repeating)
        with pytest.raises(ModelError) as info:
            pi_basis(changed, DRAG_A)
        assert str(info.value) == (
            f"the repeating quantities number {len(repeating)}, but the dimension matrix has rank 3"
        )


def test_pi_basis_repeating_set_with_dependent_dimensions():
    # nu = mu / rho in dimensions, so rho, mu and nu do not span them
    model = drag_model()
    changed = Model(model.dims, model.quantities, model.constraints, ("F_D", "mu", "rho", "nu"))
    with pytest.raises(ModelError, match="number 4,"):
        pi_basis(changed, DRAG_A)
    changed = Model(model.dims, model.quantities, model.constraints, ("mu", "rho", "nu"))
    with pytest.raises(ModelError) as info:
        pi_basis(changed, DRAG_A)
    assert str(info.value) == "the dimensions of repeating quantities mu, rho, nu are dependent"


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
        _assert_groups_are_columns(basis, groups)
        if not basis.cols:
            continue
        # A random valid repeating set: pi group k is the k-th other
        # quantity times powers of the repeating ones. The pivots of
        # rref(A) give the canonical basis back.
        repeating = repeating_pivots(model, rng.sample(range(n), n))
        e, repeating_groups = pi_basis(Model(dims, quantities, repeating=repeating), a)
        assert (a @ e).is_zero()
        assert rank(e) == e.cols == basis.cols
        _assert_groups_are_columns(e, repeating_groups)
        others = [j for j, q in enumerate(quantities) if q.name not in repeating]
        for k, g in enumerate(repeating_groups):
            assert [j for j in others if g[j]] == [others[k]]
        pivots = Model(dims, quantities, repeating=repeating_pivots(model))
        assert pi_basis(pivots, a) == (basis, groups)


def _assert_groups_are_columns(basis: RatMatrix, groups: tuple[tuple[int, ...], ...]) -> None:
    # Group k is column k of E, which has den 1, and is nonzero, primitive
    # and has a positive leading entry.
    assert basis.den == 1
    assert len(groups) == basis.cols
    for k, g in enumerate(groups):
        assert g == tuple(row[k] for row in basis.nums)
        assert any(g) and gcd(*g) == 1 and next(filter(None, g)) > 0


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
        for g in _report_payload(analyze(model))["pi_groups"]:
            parsed = parse_monomial(g["label"], model.quantity_names)
            assert list(parsed) == g["exponents"]


def test_format_monomial_spaced():
    assert format_monomial(["pi1", "pi2", "pi3"], [0, 1, -1], spaced=True) == "pi2 / pi3"
    assert (
        format_monomial(["a", "b", "c"], [1, 2, -3], spaced=True) == "a * b^2 / c^3"
    )
    assert format_monomial(["a", "b"], [-1, -2]) == "1/(a*b^2)"
    # magnitudes at the edge of the shared text table and well past it
    assert (
        format_monomial(["a", "b", "c"], [64, -65, 10**20], spaced=True)
        == "a^64 * c^100000000000000000000 / b^65"
    )
    assert format_monomial(["a", "b", "c"], [-64, 65, -(10**20)]) == (
        "b^65/(a^64*c^100000000000000000000)"
    )


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
            assert evaluate_monomial(rescaled, g) == evaluate_monomial(values, g)
        checked += 1
