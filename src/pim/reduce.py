"""Constrained reduction of dimensionless groups.

Constraints enter as rows of a Jacobian in log space: a monomial constraint
``prod x_j^c_j = K`` contributes its exponent vector ``c`` (the constant
never affects the Jacobian), and a raw row stands for a general constraint
linearized at the analysis point. When constraints are scale invariant
(J @ A^T == 0) every Jacobian row lies in the kernel of the dimension
matrix, so J factors through the kernel basis as J = C E^T; row-reducing C
exposes all linear relations among the candidate pi groups and the
non-pivot columns select an independent subset.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import (
    _SAFE_BITS,
    Model,
    _check_printable,
    _check_printable_matrix,
    build_dimension_matrix,
    format_monomial,
    pi_basis,
)
from .ratlin import (
    RatMatrix,
    RationalLike,
    ShapeError,
    Value,
    _matrix,
    _primitive,
    as_fraction,
    exact_pow,
    rank,
    rref,
    rref_with_transform,
    sum_intersection_dims,
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
        self, exponents: tuple[RationalLike, ...], constant: RationalLike = Fraction(1)
    ) -> None:
        super().__init__(tuple(map(as_fraction, exponents)), as_fraction(constant))
        if not any(self.exponents):
            raise ValueError("monomial constraint exponents must not be all zero")
        if self.constant <= 0:
            raise ValueError(f"constraint constant must be positive, got {self.constant}")

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return self.exponents


class JacobianRowConstraint(Value):
    """One constraint-Jacobian row supplied directly, valid at the analysis
    point only (pointwise); no constant is associated with it."""

    __slots__ = ("entries",)
    kind = "jacobian_row"

    def __init__(self, entries: tuple[RationalLike, ...]) -> None:
        super().__init__(tuple(map(as_fraction, entries)))

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return self.entries


Constraint = MonomialConstraint | JacobianRowConstraint


class EffectiveCounts(Value):
    """The effective number of independent pi groups, by each formula.

    The three general formulas always agree; the rank-of-C form
    ``via_C_rank`` exists only for scale-invariant constraints (and then
    agrees with the rest), and is None otherwise.
    """

    __slots__ = ("via_kernel_JE", "via_stacked_rank", "via_grassmann", "via_C_rank")
    _defaults = {"via_C_rank": None}

    @property
    def value(self) -> int:
        return self.via_kernel_JE


class Relation(Value):
    """One linear relation among the candidate pi groups.

    ``coeffs`` is a nonzero row of rref(C): sum_k coeffs[k] * dln(pi_k) = 0.
    On the constraint manifold the primitive-integer form says
    prod_k pi_k ** pi_exponents[k] equals prod_k K_k ** k_exponents[k],
    a constant built from the monomial constraint constants. ``constant``
    is that product as a Fraction when every factor K_k ** k_exponents[k]
    is rational, and None otherwise, even when the product is rational. It
    is None too when ``pointwise``: a Jacobian row contributes, and the
    relation only holds infinitesimally at the analysis point; or when the
    constant may be too long to print: its size bound, the sum of
    ceil(|k_exponents[k]| * bitlen(K_k)) over the K_k != 1, exceeds
    model._SAFE_BITS, the bit length up to which every integer prints in
    at most 4,300 digits. The label then shows the product symbolically.
    """

    __slots__ = ("coeffs", "pi_exponents", "k_exponents", "constant", "pointwise", "label")


class AnalysisReport(Value):
    """Everything the analysis produces, ready for rendering.

    ``n``, ``m``, ``ell`` and ``d`` count quantities, dimensions,
    constraints and pi groups; ``selected`` holds indices of ``pi_groups``.
    When the constraints are not scale invariant, C, rref_C, selected, and
    relations are None: the effective count is still well defined, but the
    C-based elimination of redundant groups is not.
    """

    __slots__ = (
        "dimensions", "quantities", "constraints", "n", "m", "ell", "d", "A", "J", "E",
        "pi_groups", "scale_invariant", "deff", "C", "rref_C", "selected", "relations",
        "warnings",
    )

    @property
    def d_eff(self) -> int:
        return self.deff.value


def constraint_jacobian(model: Model) -> RatMatrix:
    """Stack the constraints' log-space Jacobian rows (ell x n; ell may be 0)."""
    return RatMatrix.from_rows(
        [c.vector for c in model.constraints], cols=model.n
    )


def check_scale_invariance(a: RatMatrix, j: RatMatrix) -> bool:
    """True iff J @ A^T == 0, i.e. scaling directions are tangent to the
    constraint manifold. Vacuously true with no constraints."""
    if a.cols != j.cols:
        raise ShapeError(f"column counts differ: A has {a.cols}, J has {j.cols}")
    return (j @ a.transpose()).is_zero()


def redundancy_matrix(j: RatMatrix, e: RatMatrix) -> RatMatrix:
    """The unique C with J = C E^T, for scale-invariant constraints.

    When every column k of E has a unit row, a row r_k whose only nonzero
    entry s_k is in column k (the canonical kernel basis has one at each
    free column, and so does the shipped drag override), J = C E^T reads
    J[:, r_k] = s_k C[:, k] there, so C is one division per column. The
    certificate C E^T == J then decides: if it fails, a row of J lies
    outside the column space of E and this raises ScaleInvarianceError.

    Any other E is solved by one elimination of the n x (d + ell) matrix
    [E | J^T]. Its first d columns must all be pivots, or this raises
    ValueError (E is not full column rank); a pivot further right raises
    ScaleInvarianceError. When E spans the kernel of the dimension matrix,
    a row of J outside its column space is exactly a failure of scale
    invariance.
    """
    if j.cols != e.rows:
        raise ShapeError(f"J has {j.cols} columns but E has {e.rows} rows")
    d, ell, n = e.cols, j.rows, j.cols
    units: dict[int, int] = {}
    for r in range(n):
        support = [k for k, x in enumerate(e.nums[r * d : (r + 1) * d]) if x]
        if len(support) == 1:
            units.setdefault(support[0], r)
    if len(units) == d:
        # C[i, k] = (j.nums[i, r_k] / j.den) / (s_k / e.den), over j.den * lcm(s).
        unit_rows = [units[k] for k in range(d)]
        diag = [e.nums[r * d + k] for k, r in enumerate(unit_rows)]
        scale = math.lcm(*diag)
        factors = [e.den * (scale // s) for s in diag]
        nums = tuple(
            j.nums[i * n + r] * f for i in range(ell) for r, f in zip(unit_rows, factors)
        )
        c = _matrix(ell, d, nums, j.den * scale)
        if c @ e.transpose() != j:
            raise ScaleInvarianceError("C-factorization requires scale-invariant constraints")
        return c
    result = rref(e.transpose().vstack(j).transpose())  # [E | J^T]
    if result.pivot_cols[:d] != tuple(range(d)):
        raise ValueError("kernel basis E is not full column rank")
    if result.rank > d:
        raise ScaleInvarianceError(
            "C-factorization requires scale-invariant constraints"
        )
    # C transposed is the top right d x ell block of the RREF.
    r = result.rref
    block = tuple(r.nums[i * (d + ell) + d + k] for k in range(ell) for i in range(d))
    c = _matrix(ell, d, block, r.den)
    if c @ e.transpose() != j:
        raise InvariantViolation(
            "redundancy matrix failed to reproduce the Jacobian: C @ E^T != J"
        )
    return c


def _format_constants_monomial(k_exponents: tuple[Fraction, ...]) -> str:
    parts = []
    for idx, exp in enumerate(k_exponents):
        if exp == 0:
            continue
        name = f"K{idx + 1}"
        if exp == 1:
            parts.append(name)
        else:
            txt = str(exp)
            if exp < 0 or exp.denominator != 1:
                txt = f"({txt})"
            parts.append(f"{name}^{txt}")
    return " * ".join(parts) if parts else "1"


def _constant_bits(constraints: tuple[Constraint, ...], k_exps: tuple[Fraction, ...]) -> int:
    """Upper bound on the bit length of the numerator and the denominator of
    prod_k K_k ** t_k when it is rational. With bitlen(K) the larger bit
    length of K's numerator and denominator, K ** (p/q) has bit length at
    most ceil(|p/q| * bitlen(K)), bit lengths add at most under products,
    and a constant 1 contributes nothing."""
    total = 0
    for k, t in enumerate(k_exps):
        base = constraints[k].constant if t else 1
        if base != 1:
            bits = max(base.numerator.bit_length(), base.denominator.bit_length())
            total += math.ceil(abs(t) * bits)
    return total


def _build_relations(
    constraints: tuple[Constraint, ...],
    rref_c: RatMatrix,
    transform: RatMatrix,
    n_relations: int,
    n_groups: int,
) -> tuple[Relation, ...]:
    pi_names = [f"pi{k + 1}" for k in range(n_groups)]
    relations = []
    for i in range(n_relations):
        # rows below the rank of rref(C) are zero, and are never read
        nums = rref_c.nums[i * n_groups : (i + 1) * n_groups]
        pi_exps = _primitive(nums)
        first = next(k for k, x in enumerate(nums) if x)
        # pi_exps is the row scaled by pi_exps[first] / row[first]; so are
        # the constants' exponents, read off the transform row.
        num, den = pi_exps[first] * rref_c.den, nums[first] * transform.den
        t_row = transform.nums[i * transform.cols : (i + 1) * transform.cols]
        k_exps = tuple(Fraction(num * t, den) for t in t_row)
        parts = [p for t in k_exps for p in (t.numerator, t.denominator)]
        _check_printable(f"relation {i + 1}", [*pi_exps, *parts])
        pointwise = any(
            t != 0 and constraints[k].kind == "jacobian_row"
            for k, t in enumerate(k_exps)
        )
        constant: Fraction | None = None
        if not pointwise and _constant_bits(constraints, k_exps) <= _SAFE_BITS:
            constant = Fraction(1)
            for k, t in enumerate(k_exps):
                if t == 0:
                    continue
                term = exact_pow(constraints[k].constant, t)
                if term is None:
                    constant = None
                    break
                constant *= term
        left = format_monomial(pi_names, pi_exps, spaced=True)
        if pointwise:
            right = "const (pointwise)"
        elif constant is not None:
            right = str(constant)
        else:
            right = _format_constants_monomial(k_exps)
        relations.append(
            Relation(rref_c.row(i), pi_exps, k_exps, constant, pointwise, f"{left} = {right}")
        )
    return tuple(relations)


def analyze(model: Model) -> AnalysisReport:
    """Run the full pipeline: dimension matrix, kernel basis and pi groups,
    constraint Jacobian, scale-invariance check, effective counts, and (when
    scale invariant) the C-based elimination of redundant groups.

    The effective count is computed by every formula that applies and
    cross-checked. Always: dim ker(J E), n - rank [A; J], and the Grassmann
    form n - rank A - rank J + dim(rowspace A meet rowspace J), where rank A
    is n - d because E is a kernel basis of A. rank [A; J] and the meet come
    from one Zassenhaus elimination, so the Grassmann form checks the stacked
    form against ranks computed apart from it. For scale-invariant
    constraints also d - rank C, which must match n - rank A - rank J as
    well. Disagreement, or invariant constraints that do not factor through
    E, is an engine bug.
    """
    a = build_dimension_matrix(model)
    e, groups = pi_basis(model, a)
    j = constraint_jacobian(model)
    invariant = check_scale_invariance(a, j)
    d = e.cols
    rank_j = rank(j)
    stacked, meet = sum_intersection_dims(a, j)
    via_kernel = d - rank(j @ e)
    warnings: list[str] = []
    c = rref_c = None
    via_c: int | None = None
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
        via_c = d - result.rank
        rref_c = result.rref
        selected = result.free_cols
        relations = _build_relations(model.constraints, rref_c, transform, result.rank, d)
    else:
        warnings.append(
            "constraints are not scale-invariant (J @ A^T != 0); "
            "the C-based elimination of redundant pi groups is skipped"
        )
    counts = EffectiveCounts(via_kernel, a.cols - stacked, d - rank_j + meet, via_c)
    forms = {counts.via_kernel_JE, counts.via_stacked_rank, counts.via_grassmann}
    if invariant:
        forms |= {via_c, d - rank_j}
    if len(forms) != 1:
        raise InvariantViolation(
            f"effective-count formulas disagree: {counts!r}, d = {d}, rank J = {rank_j}"
        )
    for name, matrix in (("A", a), ("J", j), ("E", e), ("C", c), ("rref_C", rref_c)):
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
        pi_groups=groups,
        scale_invariant=invariant,
        deff=counts,
        C=c,
        rref_C=rref_c,
        selected=selected,
        relations=relations,
        warnings=tuple(warnings),
    )
