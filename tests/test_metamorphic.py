"""Metamorphic tests: changes to a model whose effect on the report is known
without any formula for d_eff, rank or relations.

Each transform builds a new ``Model`` value from an old one and runs no
engine code; only the reports come from ``analyze``. The models are the
benchmark generator's (bench/gen.py), of both kinds, at rungs n8 to n24
and the stress rung, and item 13's renamed pair from tests/test_cli.py.
Three transforms pin known defects as strict xfails: renaming item 13's
model changes its d_eff (ROADMAP item 13, fixed by item 19), a product of
constraints appended with a perturbed constant is accepted (item 1), and
at harness sizes writing a constraint squared changes whether a relation
constant prints exactly (item 1).
"""

from __future__ import annotations

import json
import random

import pytest

from pim import (
    JacobianRowConstraint,
    Model,
    ModelError,
    MonomialConstraint,
    Quantity,
    analyze,
    parse_model,
    render_report,
)

from test_cli import RENAMED_PAIR

KINDS = pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])


def _ladder(gen, pointwise: bool) -> list[Model]:
    """Two seeded rounds: rungs n8 to n24 and the stress rung twice each."""
    return [parse_model(made.text) for seed in (1, 2) for made in gen.ladder(seed, 1, pointwise)]


def _with_vector(constraint, vector, constant=None):
    """`constraint` with another vector, and for a monomial another constant
    if one is given."""
    if constraint.kind == "jacobian_row":
        return JacobianRowConstraint(vector)
    return MonomialConstraint(vector, constraint.constant if constant is None else constant)


def _permuted(model: Model, order: list[int]) -> Model:
    """The quantities in `order`, each constraint's vector read alike."""
    quantities = tuple(model.quantities[p] for p in order)
    constraints = tuple(
        _with_vector(c, tuple(c.vector[p] for p in order)) for c in model.constraints
    )
    return Model(model.dims, quantities, constraints, model.repeating)


def _unimodular(rng: random.Random, m: int) -> list[list[int]]:
    """An m x m integer matrix of determinant +-1: the identity after 2m
    random row additions and a shuffle of its rows."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((-1, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def _rebased(model: Model, u: list[list[int]]) -> Model:
    """A -> U A: every quantity's dimension exponents multiplied by U."""
    quantities = tuple(
        Quantity(q.name, tuple(sum(x * y for x, y in zip(row, q.dim_exponents)) for row in u))
        for q in model.quantities
    )
    return Model(model.dims, quantities, model.constraints, model.repeating)


def _renaming(n: int, additions: list[tuple[int, int, int]]) -> tuple[list, list]:
    """R and R^-1 for R the n x n identity after `additions`, each (i, j, s)
    adding s times row j to row i. R^-1 undoes each addition, in the same
    order, by subtracting s times its column i from its column j."""
    r = [[int(i == j) for j in range(n)] for i in range(n)]
    r_inv = [row[:] for row in r]
    for i, j, s in additions:
        r[i] = [x + s * y for x, y in zip(r[i], r[j])]
        for row in r_inv:
            row[j] -= s * row[i]
    return r, r_inv


def _renamed(model: Model, r: list, r_inv: list) -> Model:
    """Quantity i renamed as prod_j x_j^R[i][j], keeping its name: A -> A R^T
    and J -> J R^-1, that is A -> A M^-T and J -> J M for M = R^-1. The
    repeating set is dropped."""
    dims = [q.dim_exponents for q in model.quantities]
    quantities = tuple(
        Quantity(q.name, tuple(sum(c * e[k] for c, e in zip(row, dims)) for k in range(model.m)))
        for q, row in zip(model.quantities, r)
    )
    constraints = tuple(
        _with_vector(c, tuple(
            sum(x * row[k] for x, row in zip(c.vector, r_inv)) for k in range(model.n)
        ))
        for c in model.constraints
    )
    return Model(model.dims, quantities, constraints, ())


# R = [[1, -1, 1], [0, 1, -1], [0, 0, 1]] renames a, b, s as u = a*s/b, w = b/s, s.
ITEM_13_RENAMING = [(1, 2, -1), (0, 1, -1)]


def _rescaled(model: Model, order: list[int], k: int) -> Model:
    """The constraints in `order`, the one now at position k, x^c = K,
    written as x^(2c) = K^2."""
    constraints = [model.constraints[p] for p in order]
    c = constraints[k]
    constraints[k] = _with_vector(c, tuple(2 * x for x in c.vector), c.constant**2)
    return Model(model.dims, model.quantities, tuple(constraints), model.repeating)


def _with_product(model: Model, i: int, j: int, factor: int = 1) -> Model:
    """`model` with the product of monomial constraints i and j appended, its
    constant the product of theirs times `factor`."""
    a, b = model.constraints[i], model.constraints[j]
    product = MonomialConstraint(
        tuple(x + y for x, y in zip(a.vector, b.vector)), a.constant * b.constant * factor
    )
    return Model(model.dims, model.quantities, model.constraints + (product,), model.repeating)


def _with_constants(gen, rng: random.Random, names: tuple[str, ...] | None = None):
    """Invariant models with random constants: four rounds of the
    benchmark's ladder (every rung once and the stress rung twice), or of
    the rungs in `names` only."""
    rungs = [rung for rung in gen.ROUND if names is None or rung.name in names]
    for index in range(4):
        for rung in rungs:
            yield parse_model(gen.make_model(rng, rung, index, False, constants=True).text)


def _nonzero_rows(matrix) -> list:
    return [row for row in matrix.to_rows() if any(row)]


@KINDS
def test_permuting_the_quantities_keeps_the_counts(gen, pointwise: bool):
    rng = random.Random(f"permute:{pointwise}")
    for model in _ladder(gen, pointwise):
        report = analyze(model)
        other = analyze(_permuted(model, rng.sample(range(model.n), model.n)))
        assert (other.d, other.d_eff, other.scale_invariant) == (
            report.d, report.d_eff, report.scale_invariant
        )
        assert len(other.relations or ()) == len(report.relations or ())


@KINDS
def test_a_unimodular_change_of_dimension_basis_changes_only_a(gen, pointwise: bool):
    # U A has the kernel of A, so E, and every answer read from it, stay.
    rng = random.Random(f"rebase:{pointwise}")
    for model in _ladder(gen, pointwise):
        rebased = _rebased(model, _unimodular(rng, model.m))
        before, after = (json.loads(render_report(analyze(m), "json")) for m in (model, rebased))
        before.pop("A")
        after.pop("A")
        assert after == before


@KINDS
def test_renaming_the_quantities_keeps_the_counts(gen, pointwise: bool):
    rng = random.Random(f"rename:{pointwise}")
    for model in _ladder(gen, pointwise):
        n = model.n
        additions = [(*rng.sample(range(n), 2), rng.choice((-1, 1))) for _ in range(2 * n)]
        report, other = analyze(model), analyze(_renamed(model, *_renaming(n, additions)))
        assert (other.d, other.d_eff, other.scale_invariant) == (
            report.d, report.d_eff, report.scale_invariant
        )


def test_renaming_item_13s_first_model_gives_its_second():
    first, second = (parse_model(text) for text in RENAMED_PAIR)
    renamed = _renamed(first, *_renaming(3, ITEM_13_RENAMING))
    assert [q.dim_exponents for q in renamed.quantities] == [
        q.dim_exponents for q in second.quantities
    ]
    assert renamed.constraints == second.constraints


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13, fixed by item 19")
def test_renaming_item_13s_model_keeps_d_eff():
    # today d_eff is 1 before the renaming and 0 after it
    model = parse_model(RENAMED_PAIR[0])
    assert analyze(_renamed(model, *_renaming(3, ITEM_13_RENAMING))).d_eff == analyze(model).d_eff


def _check_reordering_and_scaling(gen, names: tuple[str, ...] | None) -> None:
    rng = random.Random("constraints")
    for model in _with_constants(gen, rng, names):
        report = analyze(model)
        ell = len(model.constraints)
        other = analyze(_rescaled(model, rng.sample(range(ell), ell), rng.randrange(ell)))
        assert (other.rref_C, other.selected) == (report.rref_C, report.selected)
        assert [r.constant for r in other.relations] == [
            r.constant for r in report.relations
        ]


def test_reordering_and_scaling_constraints_keeps_rref_c_and_constants(gen):
    _check_reordering_and_scaling(gen, ("n8", "n12", "n16"))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_reordering_and_scaling_constraints_at_harness_sizes_keeps_the_constants(gen):
    # reduce._constant bounds a constant's size factor by factor, so how a
    # constraint is written can move the bound across the 14,284 bits that
    # always print. On the n24 model drawn at index 3, relation 4's constant
    # has the k-exponents (-1710, -2130, 300, -300) over the constants
    # (9/5, 1/4, 2/3, 1/2): its bound is 14,430 bits and it prints
    # symbolically, but with the 1/2 constraint written squared the bound is
    # 14,280 and it prints as an 8,831-bit rational.
    _check_reordering_and_scaling(gen, None)


def test_appending_a_product_of_constraints_keeps_the_answers(gen):
    rng = random.Random("product")
    for model in _with_constants(gen, rng):
        report = analyze(model)
        other = analyze(_with_product(model, *rng.sample(range(len(model.constraints)), 2)))
        assert other.d_eff == report.d_eff
        assert _nonzero_rows(other.rref_C) == _nonzero_rows(report.rref_C)
        assert other.selected == report.selected
        assert [r.constant for r in other.relations] == [
            r.constant for r in report.relations
        ]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_a_product_with_a_perturbed_constant_is_refused(gen):
    # no point satisfies both the two constraints and twice their product
    rng = random.Random("product")
    for model in _with_constants(gen, rng):
        with pytest.raises(ModelError):
            analyze(_with_product(model, *rng.sample(range(len(model.constraints)), 2), 2))
