"""Dimension systems, physical quantities, and dimensionless monomial groups.

A model declares named base dimensions, quantities with rational dimension
exponents, and (optionally) monomial constraints plus a kernel-basis
override. The dimension matrix has one column per quantity, in declaration
order; its kernel spans the exponent vectors of all dimensionless monomials.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Sequence

from .ratlin import (
    RatMatrix,
    RationalLike,
    Value,
    _primitive,
    as_fraction,
    nullspace_basis,
    rank,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# CPython's default limit on int/str conversion: a model file literal, and a
# number in a report, has at most this many digits in its numerator and its
# denominator.
MAX_DIGITS = 4300
# 3.321928 < log2(10), so 2 ** _SAFE_BITS < 10 ** MAX_DIGITS: an integer of
# at most _SAFE_BITS bits always prints. A longer number in a report is
# compared with 10 ** MAX_DIGITS; a relation constant whose size bound is
# longer is left symbolic.
_SAFE_BITS = MAX_DIGITS * 3321928 // 10**6


class ModelError(ValueError):
    """Raised for structurally invalid models or bad inputs to model operations."""


def _check_printable(item: str, ints: Sequence[int]) -> None:
    """Refuse an item of a report that would print an integer of more than
    MAX_DIGITS decimal digits."""
    if max(map(int.bit_length, ints), default=0) <= _SAFE_BITS:
        return
    for x in map(abs, ints):
        if x >= 10**MAX_DIGITS:
            # 0.3010299 < log10(2), so this starts at most at the count.
            digits = (x.bit_length() - 1) * 3010299 // 10**7 + 1
            while 10**digits <= x:
                digits += 1
            raise ModelError(
                f"{item} has a number of {digits} digits, more than the "
                f"{MAX_DIGITS} that can be printed"
            )


def _check_printable_matrix(name: str, matrix: RatMatrix) -> None:
    """_check_printable for a matrix of a report. An entry's numerator and
    denominator in lowest terms divide integers of the integer form, so the
    entries are read only when one of those is long."""
    if max(map(int.bit_length, (*matrix.nums, matrix.den))) > _SAFE_BITS:
        parts = [p for x in matrix.entries for p in (x.numerator, x.denominator)]
        _check_printable(f"matrix {name}", parts)


def _check_identifier(name: str, what: str) -> None:
    if not _IDENT_RE.fullmatch(name):
        raise ModelError(f"{what} name {name!r} is not a valid identifier")


class DimensionSystem(Value):
    """Ordered set of named base dimensions (e.g. M, L, T)."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if not names:
            raise ModelError("a dimension system needs at least one dimension")
        seen: set[str] = set()
        for name in names:
            _check_identifier(name, "dimension")
            if name in seen:
                raise ModelError(f"duplicate dimension name {name!r}")
            seen.add(name)
        super().__init__(names)

    @property
    def m(self) -> int:
        return len(self.names)


class Quantity(Value):
    """A named quantity with one rational exponent per base dimension."""

    __slots__ = ("name", "dim_exponents")

    def __init__(self, name: str, dim_exponents: tuple[RationalLike, ...]) -> None:
        _check_identifier(name, "quantity")
        super().__init__(name, tuple(map(as_fraction, dim_exponents)))


class Model(Value):
    """A DimensionSystem ``dims``, a tuple of Quantity ``quantities``, a
    tuple of Constraint ``constraints`` among them, and a kernel basis
    ``basis_override`` (a RatMatrix with one row per quantity) or None."""

    __slots__ = ("dims", "quantities", "constraints", "basis_override")
    _defaults = {"constraints": (), "basis_override": None}

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        seen: set[str] = set()
        for q in self.quantities:
            if q.name in seen:
                raise ModelError(f"duplicate quantity name {q.name!r}")
            seen.add(q.name)
            if len(q.dim_exponents) != self.dims.m:
                raise ModelError(
                    f"quantity {q.name!r} has {len(q.dim_exponents)} dimension "
                    f"exponents, expected {self.dims.m}"
                )
        for k, c in enumerate(self.constraints):
            if len(c.vector) != self.n:
                raise ModelError(
                    f"constraint {k + 1} has {len(c.vector)} coefficients, "
                    f"expected {self.n}"
                )
        if self.basis_override is not None and self.basis_override.rows != self.n:
            raise ModelError(
                f"basis override has {self.basis_override.rows} rows, expected {self.n}"
            )

    @property
    def n(self) -> int:
        return len(self.quantities)

    @property
    def m(self) -> int:
        return self.dims.m

    @property
    def quantity_names(self) -> tuple[str, ...]:
        return tuple(q.name for q in self.quantities)


class PiGroup(Value):
    """One candidate dimensionless monomial: primitive integer exponents over
    the quantities, plus a rendered label."""

    __slots__ = ("exponents", "label")

    def __init__(self, exponents: tuple[int, ...], label: str) -> None:
        if not any(exponents):
            raise ModelError("pi group exponents must not be all zero")
        if gcd(*exponents) != 1:
            raise ModelError("pi group exponents must be primitive (gcd 1)")
        first = next(filter(None, exponents))
        if first < 0:
            raise ModelError("pi group leading exponent must be positive")
        super().__init__(exponents, label)


def build_dimension_matrix(model: Model) -> RatMatrix:
    """The m x n matrix whose column j holds quantity j's dimension exponents."""
    return RatMatrix.from_columns(
        [q.dim_exponents for q in model.quantities], rows=model.m
    )


def format_monomial(
    names: Sequence[str],
    exponents: Sequence[int | Fraction],
    *,
    spaced: bool = False,
) -> str:
    """Render an exponent vector as monomial text, e.g. ``(rho*U*L)/mu``.

    Positive exponents go to the numerator, negative to the denominator,
    factors in declaration order. With ``spaced=True`` operators get spaces
    (used for relations among pi groups: ``pi2 / pi3``).
    """
    num: list[str] = []
    den: list[str] = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        mag = abs(e)
        part = name if mag == 1 else f"{name}^{mag}"
        (num if e > 0 else den).append(part)
    sep = " * " if spaced else "*"
    slash = " / " if spaced else "/"
    num_txt = sep.join(num) if num else "1"
    if num and len(num) > 1 and den and not spaced:
        num_txt = f"({num_txt})"
    if not den:
        return num_txt
    den_txt = sep.join(den)
    if len(den) > 1:
        den_txt = f"({den_txt})"
    return f"{num_txt}{slash}{den_txt}"


def pi_basis(model: Model, matrix: RatMatrix) -> tuple[RatMatrix, tuple[PiGroup, ...]]:
    """The kernel basis E of the dimension matrix, plus the rendered pi
    groups. E is the model's basis override once validated as a genuine
    kernel basis, otherwise the canonical RREF free-variable basis. Group
    exponents are always reported in primitive integer form."""
    basis = model.basis_override
    if basis is None:
        basis = nullspace_basis(matrix)
        # canonical columns are already primitive with a positive leading entry
        columns = [basis.nums[j :: basis.cols] for j in range(basis.cols)]
    else:
        d = matrix.cols - rank(matrix)
        if basis.cols != d:
            raise ModelError(
                f"basis override has {basis.cols} columns but the kernel "
                f"has dimension {d}"
            )
        product = matrix @ basis
        for j in range(basis.cols):
            if any(product.nums[j :: product.cols]):
                raise ModelError(
                    f"basis override column {j} is not in the kernel of the "
                    f"dimension matrix"
                )
        if rank(basis) != basis.cols:
            raise ModelError("basis override is rank-deficient")
        # full column rank, so no column is zero
        columns = [_primitive(basis.nums[j :: basis.cols]) for j in range(basis.cols)]
    names = model.quantity_names
    groups = []
    for j, exps in enumerate(columns, 1):
        _check_printable(f"pi group {j}", exps)
        groups.append(PiGroup(exps, format_monomial(names, exps)))
    return basis, tuple(groups)
