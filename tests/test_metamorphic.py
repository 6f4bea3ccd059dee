"""Metamorphic tests: changes to a model whose effect on the report is known
without any formula for d_eff, rank or relations.

Each transform builds a new ``Model`` value from an old one and runs no
engine code; only the two reports come from ``analyze``. The models are the
benchmark generator's (bench/gen.py), of both kinds, at rungs n8 to n24.
Two transforms are not here yet: appending a product of two constraints
with a perturbed constant (ROADMAP item 1) and renaming the quantities by a
unimodular map (item 13); tests/test_cli.py pins both defects as strict
xfails.
"""

from __future__ import annotations

import json
import random

import pytest

from pim import (
    JacobianRowConstraint,
    Model,
    MonomialConstraint,
    Quantity,
    analyze,
    parse_model,
    render_report,
)

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


def _rescaled(model: Model, order: list[int], k: int) -> Model:
    """The constraints in `order`, the one now at position k, x^c = K,
    written as x^(2c) = K^2."""
    constraints = [model.constraints[p] for p in order]
    c = constraints[k]
    constraints[k] = _with_vector(c, tuple(2 * x for x in c.vector), c.constant**2)
    return Model(model.dims, model.quantities, tuple(constraints), model.repeating)


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


def test_reordering_and_scaling_constraints_keeps_rref_c_and_constants(gen):
    # Random constants only up to n16: at larger rungs a relation constant
    # can take minutes to evaluate.
    rng = random.Random("constraints")
    rungs = [rung for rung in gen.RUNGS if rung.name in ("n8", "n12", "n16")]
    for index in range(4):
        for rung in rungs:
            made = gen.make_model(rng, rung, index, False, constants=True)
            model = parse_model(made.text)
            report = analyze(model)
            order = rng.sample(range(made.ell), made.ell)
            other = analyze(_rescaled(model, order, rng.randrange(made.ell)))
            assert (other.rref_C, other.selected) == (report.rref_C, report.selected)
            assert [r.constant for r in other.relations] == [
                r.constant for r in report.relations
            ]
