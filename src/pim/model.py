"""Dimension systems, physical quantities, and dimensionless monomial groups.

A model declares named base dimensions, quantities with rational dimension
exponents, and (optionally) monomial constraints plus a kernel-basis
override. The dimension matrix has one column per quantity, in declaration
order; its kernel spans the exponent vectors of all dimensionless monomials.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import chain

from .ratlin import (
    RatMatrix,
    RationalLike,
    Value,
    _clear_denominators,
    _fractions,
    _matrix,
    _primitive,
    _transpose,
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
# compared with _TOO_LONG; a relation constant whose size bound is longer
# is left symbolic.
_SAFE_BITS = MAX_DIGITS * 3321928 // 10**6
# The least integer of MAX_DIGITS + 1 digits.
_TOO_LONG = 10**MAX_DIGITS


class ModelError(ValueError):
    """Raised for structurally invalid models or bad inputs to model operations."""


def _check_printable(item: str, ints: Sequence[int]) -> None:
    """Refuse an item of a report that would print an integer of more than
    MAX_DIGITS decimal digits."""
    if max(map(int.bit_length, ints), default=0) <= _SAFE_BITS:
        return
    for x in map(abs, ints):
        if x >= _TOO_LONG:
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
    if max(map(int.bit_length, chain((matrix.den,), *matrix.nums))) > _SAFE_BITS:
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
        super().__init__(name, _fractions(dim_exponents))


class Model(Value):
    """A DimensionSystem ``dims``, a tuple of Quantity ``quantities``, a
    tuple of Constraint ``constraints`` among them, and a kernel basis
    ``basis_override`` (a RatMatrix with one row per quantity) or None."""

    __slots__ = ("dims", "quantities", "constraints", "basis_override")

    def __init__(
        self,
        dims: DimensionSystem,
        quantities: tuple[Quantity, ...],
        constraints: tuple = (),
        basis_override: RatMatrix | None = None,
    ) -> None:
        super().__init__(dims, quantities, constraints, basis_override)
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


def build_dimension_matrix(model: Model) -> RatMatrix:
    """The m x n matrix whose column j holds quantity j's dimension exponents."""
    columns = [q.dim_exponents for q in model.quantities]
    return _matrix(model.n, *_clear_denominators(_transpose(columns, model.m)))


def pi_basis(model: Model, matrix: RatMatrix) -> tuple[RatMatrix, tuple[tuple[int, ...], ...]]:
    """The kernel basis E of the dimension matrix and its columns, the
    exponent vectors of the pi groups: column k is pi group k. E is the
    validated basis override with each column made primitive (integer,
    gcd 1, positive leading entry), or else the canonical RREF free-variable
    basis, which already is."""
    basis = model.basis_override
    if basis is None:
        # canonical columns are already primitive with a positive leading entry
        basis = nullspace_basis(matrix)
        return basis, _transpose(basis.nums, basis.cols)
    d = matrix.cols - rank(matrix)
    if basis.cols != d:
        raise ModelError(
            f"basis override has {basis.cols} columns but the kernel "
            f"has dimension {d}"
        )
    product = matrix @ basis
    for j, column in enumerate(_transpose(product.nums, product.cols)):
        if any(column):
            raise ModelError(
                f"basis override column {j} is not in the kernel of the "
                f"dimension matrix"
            )
    if rank(basis) != basis.cols:
        raise ModelError("basis override is rank-deficient")
    # full column rank, so no column is zero
    columns = tuple(_primitive(column) for column in _transpose(basis.nums, basis.cols))
    return _matrix(basis.cols, _transpose(columns, basis.rows), 1), columns
