"""Constrained reduction of dimensionless groups.

Constraints enter as rows of a Jacobian in log space: a monomial constraint
``prod x_j^c_j = K`` contributes its exponent vector ``c`` (the constant
never affects the Jacobian), and a raw row stands for a general constraint
linearized at the analysis point. When constraints are scale invariant
(J @ A^T == 0) every Jacobian row lies in the kernel of the dimension
matrix, so J factors through the kernel basis as J = C E^T; row-reducing C
exposes all linear relations among the candidate pi groups and the
non-pivot columns select an independent subset.

The effective count d_eff is computed once per analysis and stored as one
number: d - rank C for scale-invariant constraints, d - rank(J E)
otherwise. modelfile.render_report prints it in four forms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from operator import mul

from .model import (
    _SAFE_BITS,
    Model,
    ModelError,
    _check_printable,
    _check_printable_matrix,
    build_dimension_matrix,
    pi_basis,
)
from .ratlin import (
    RatMatrix,
    RationalLike,
    RrefResult,
    ShapeError,
    Value,
    _clear_denominators,
    _fractions,
    _matrix,
    _primitive,
    as_fraction,
    exact_pow,
    rank,
    rref_with_transform,
)


class InvariantViolation(RuntimeError):
    """Internal consistency check failed. Always a bug in the engine, never a
    modeling error."""


class ScaleInvarianceError(ValueError):
    """Raised when an operation that assumes scale-invariant constraints is
    given constraints that are not."""


class MonomialConstraint(Value):
    """The constraint prod_j x_j ** exponents[j] == constant (constant > 0)."""

    __slots__ = ("exponents", "constant")
    kind = "monomial"

    def __init__(
        self, exponents: Sequence[RationalLike], constant: RationalLike = Fraction(1)
    ) -> None:
        super().__init__(_fractions(exponents), as_fraction(constant))
        if not any(self.exponents):
            raise ModelError("monomial constraint exponents must not be all zero")
        if self.constant <= 0:
            raise ModelError(f"constraint constant must be positive, got {self.constant}")

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return self.exponents


class JacobianRowConstraint(Value):
    """One constraint-Jacobian row supplied directly, valid at the analysis
    point only (pointwise); no constant is associated with it."""

    __slots__ = ("entries",)
    kind = "jacobian_row"

    def __init__(self, entries: Sequence[RationalLike]) -> None:
        super().__init__(_fractions(entries))

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return self.entries


Constraint = MonomialConstraint | JacobianRowConstraint


class Relation(Value):
    """One linear relation among the candidate pi groups.

    ``pi_exponents`` is a nonzero row of rref(C) in primitive-integer form:
    sum_k pi_exponents[k] * dln(pi_k) = 0. ``coeffs``, a property and not a
    field, is that row of rref(C) itself, read back as Fractions: the
    exponents divided by their first nonzero one, the row's leading 1. On
    the constraint manifold the relation says
    prod_k pi_k ** pi_exponents[k] equals prod_k K_k ** k_exponents[k],
    a constant built from the monomial constraint constants. ``constant``
    is that product as a Fraction when every factor K_k ** k_exponents[k]
    is rational, and None otherwise, even when the product is rational. It
    is None too when ``pointwise``: a Jacobian row contributes, and the
    relation only holds infinitesimally at the analysis point; or when the
    constant may be too long to print: its size bound, the sum of
    ceil(|k_exponents[k]| * bitlen(K_k)) over the factors whose constant
    K_k is not 1, exceeds model._SAFE_BITS, the bit length up to which
    every integer prints in at most 4,300 digits. A factor 1 ** t is
    exactly 1 for any t, so it counts neither in the bound nor as a root.
    The report then shows the product symbolically. The relation's label is
    written by modelfile.render_report from these fields.
    """

    __slots__ = ("pi_exponents", "k_exponents", "constant", "pointwise")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        lead = next(filter(None, self.pi_exponents))
        return tuple(Fraction(x, lead) for x in self.pi_exponents)


class AnalysisReport(Value):
    """The numbers and verdicts of an analysis; modelfile.render_report
    writes its text.

    ``n``, ``m``, ``ell`` and ``d`` count quantities, dimensions,
    constraints and pi groups, and ``d_eff`` is the effective number of
    independent pi groups. Column k of ``E`` is pi group k, its primitive
    integer exponents over the quantities, and ``selected`` holds indices of
    those columns. When the constraints are not scale invariant, C, rref_C,
    selected, and relations are None: the effective count is still well
    defined, but the C-based elimination of redundant groups is not.
    """

    __slots__ = (
        "dimensions", "quantities", "constraints", "n", "m", "ell", "d", "A", "J", "E",
        "scale_invariant", "d_eff", "C", "rref_C", "selected", "relations",
    )


def constraint_jacobian(model: Model) -> RatMatrix:
    """Stack the constraints' log-space Jacobian rows (ell x n; ell may be 0)."""
    return _matrix(model.n, *_clear_denominators([c.vector for c in model.constraints]))


def check_scale_invariance(a: RatMatrix, j: RatMatrix) -> bool:
    """True iff J @ A^T == 0, i.e. scaling directions are tangent to the
    constraint manifold; the first nonzero dot product of a row of J and a
    row of A decides. Vacuously true with no constraints."""
    if a.cols != j.cols:
        raise ShapeError(f"column counts differ: A has {a.cols}, J has {j.cols}")
    return not any(sum(map(mul, j_row, a_row)) for j_row in j.nums for a_row in a.nums)


def redundancy_matrix(j: RatMatrix, e: RatMatrix) -> RatMatrix:
    """The unique C with J = C E^T, for scale-invariant constraints. With E
    from pi_basis, column k of C and of rref(C) refers to pi group k.

    Each column k of such an E has a unit row r_k, whose only nonzero entry
    s_k is in column k: the row of the k-th free variable, or of the k-th
    quantity that is not repeating. J = C E^T reads J[:, r_k] = s_k C[:, k]
    there, so C is one division per column; an E without a unit row in some
    column raises ValueError naming it. The product C E^T is then checked
    against J at the other rows: if they differ, a row of J lies outside
    the column space of E and this raises ScaleInvarianceError; when E
    spans the kernel of the dimension matrix, that is exactly a failure of
    scale invariance.
    """
    if j.cols != e.rows:
        raise ShapeError(f"J has {j.cols} columns but E has {e.rows} rows")
    units: dict[int, int] = {}
    for r, e_row in enumerate(e.nums):
        support = [k for k, x in enumerate(e_row) if x]
        if len(support) == 1:
            units.setdefault(support[0], r)
    unit_rows = [units.get(k) for k in range(e.cols)]
    if None in unit_rows:
        raise ValueError(f"column {unit_rows.index(None)} of the kernel basis E has no unit row")
    # C[i, k] = (j.nums[i][r_k] / j.den) / (s_k / e.den), over j.den * lcm(s).
    diag = [e.nums[r][k] for k, r in enumerate(unit_rows)]
    scale = math.lcm(*diag)
    factors = [e.den * (scale // s) for s in diag]
    nums = [[row[r] * f for r, f in zip(unit_rows, factors)] for row in j.nums]
    c = _matrix(e.cols, nums, j.den * scale)
    # (C E^T)[i, r] against J[i, r] at the other rows r, over c.den * e.den * j.den
    read = set(unit_rows)
    checked = [(r, e_row) for r, e_row in enumerate(e.nums) if r not in read]
    den = c.den * e.den
    if not all(
        sum(map(mul, c_row, e_row)) * j.den == j_row[r] * den
        for c_row, j_row in zip(c.nums, j.nums)
        for r, e_row in checked
    ):
        raise ScaleInvarianceError("C-factorization requires scale-invariant constraints")
    return c


def _constant(factors: list[tuple[Fraction, Fraction]]) -> Fraction | None:
    """prod K ** t over the factors (K, t), each K != 1, when that is
    rational and its size bound is at most model._SAFE_BITS; else None.
    With bitlen(K) the larger bit length of K's numerator and denominator,
    K ** (p/q) has bit length at most ceil(|p/q| * bitlen(K)), and bit
    lengths add at most under products."""
    bound = 0
    for k, t in factors:
        bound += math.ceil(abs(t) * max(k.numerator.bit_length(), k.denominator.bit_length()))
    if bound > _SAFE_BITS:
        return None
    constant = Fraction(1)
    for k, t in factors:
        term = exact_pow(k, t)
        if term is None:
            return None
        constant *= term
    return constant


def _build_relations(
    constraints: tuple[Constraint, ...], result: RrefResult, transform: RatMatrix
) -> tuple[Relation, ...]:
    rref_c = result.rref
    relations = []
    for i, pivot in enumerate(result.pivot_cols):
        pi_exps = _primitive(rref_c.nums[i])
        # Row i of rref(C) is 1 at its pivot, so pi_exps is the row times
        # pi_exps[pivot]; so are the constants' exponents, read off row i of T.
        k_exps = tuple(Fraction(pi_exps[pivot] * t, transform.den) for t in transform.nums[i])
        parts = [p for t in k_exps for p in (t.numerator, t.denominator)]
        _check_printable(f"relation {i + 1}", [*pi_exps, *parts])
        factors = [(constraints[k], t) for k, t in enumerate(k_exps) if t]
        pointwise = any(con.kind == "jacobian_row" for con, _ in factors)
        constant = None
        if not pointwise:
            # a factor 1 ** t is exactly 1, whatever t
            constant = _constant([(con.constant, t) for con, t in factors if con.constant != 1])
        relations.append(Relation(pi_exps, k_exps, constant, pointwise))
    return tuple(relations)


def analyze(model: Model) -> AnalysisReport:
    """Run the full pipeline: dimension matrix, kernel basis and pi groups,
    constraint Jacobian, scale-invariance check, effective count, and (when
    scale invariant) the C-based elimination of redundant groups.

    The effective count d_eff is computed once, from one elimination. For
    scale-invariant constraints it is d - rank C, read off rref(C); that is
    d - rank J, since redundancy_matrix certifies J = C E^T and E^T has
    full row rank. Otherwise it is d - rank(J E). Invariant constraints
    that do not factor through E are an engine bug.

    A report that would print a number of more than model.MAX_DIGITS digits
    is refused with ModelError, which names the first such item in this
    order: the pi groups, the relations, A, J, C, rref(C), the constraints.
    """
    a = build_dimension_matrix(model)
    e, groups = pi_basis(model, a)
    if max(map(int.bit_length, chain.from_iterable(e.nums)), default=0) > _SAFE_BITS:
        # name the first group with a number too long to print
        for k, exps in enumerate(groups):
            _check_printable(f"pi group {k + 1}", exps)
    j = constraint_jacobian(model)
    invariant = check_scale_invariance(a, j)
    d = e.cols
    c = rref_c = None
    selected: tuple[int, ...] | None = None
    relations: tuple[Relation, ...] | None = None
    if invariant:
        try:
            c = redundancy_matrix(j, e)
        except ScaleInvarianceError as exc:
            raise InvariantViolation(
                f"J @ A^T == 0 but J does not factor through E: {exc}"
            ) from exc
        result, transform = rref_with_transform(c)
        d_eff = d - result.rank
        rref_c = result.rref
        selected = result.free_cols
        relations = _build_relations(model.constraints, result, transform)
    else:
        d_eff = d - rank(j @ e)
    for name, matrix in (("A", a), ("J", j), ("C", c), ("rref_C", rref_c)):
        if matrix is not None:
            _check_printable_matrix(name, matrix)
    for k, con in enumerate(model.constraints):
        if con.kind == "monomial":
            parts = [con.constant.numerator, con.constant.denominator]
            _check_printable(f"constraint {k + 1}", parts)
    return AnalysisReport(
        dimensions=model.dims.names,
        quantities=model.quantity_names,
        constraints=model.constraints,
        n=model.n,
        m=model.m,
        ell=j.rows,
        d=d,
        A=a,
        J=j,
        E=e,
        scale_invariant=invariant,
        d_eff=d_eff,
        C=c,
        rref_C=rref_c,
        selected=selected,
        relations=relations,
    )
