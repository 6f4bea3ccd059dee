"""Dimension systems, physical quantities, and dimensionless monomial groups.

A model declares named base dimensions, quantities with rational dimension
exponents, and (optionally) monomial constraints and repeating quantities.
The dimension matrix has one column per quantity, in declaration order; its
kernel spans the exponent vectors of all dimensionless monomials.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
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

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
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

    def __init__(self, name: str, dim_exponents: Sequence[RationalLike]) -> None:
        _check_identifier(name, "quantity")
        super().__init__(name, _fractions(dim_exponents))


class Model(Value):
    """A DimensionSystem ``dims``, a tuple of Quantity ``quantities``, a
    tuple of Constraint ``constraints`` among them, and the names of the
    ``repeating`` quantities that choose the pi basis (none: the canonical
    basis)."""

    __slots__ = ("dims", "quantities", "constraints", "repeating")

    def __init__(
        self,
        dims: DimensionSystem,
        quantities: Sequence[Quantity],
        constraints: Sequence = (),
        repeating: Sequence[str] = (),
    ) -> None:
        super().__init__(dims, tuple(quantities), tuple(constraints), tuple(repeating))
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
        for k, name in enumerate(self.repeating):
            if name not in seen:
                raise ModelError(f"unknown repeating quantity {name!r}")
            if name in self.repeating[:k]:
                raise ModelError(f"duplicate repeating quantity {name!r}")

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
    canonical RREF free-variable basis, whose columns are primitive
    (integer, gcd 1, positive leading entry), of A with the repeating
    quantities' columns moved to the front; read back in declaration order,
    each column is made primitive again. So pi group k is the k-th other
    quantity times powers of the repeating ones, which must be rank A
    quantities of independent dimensions, or this raises ModelError."""
    if not model.repeating:
        # canonical columns are already primitive with a positive leading entry
        basis = nullspace_basis(matrix)
        return basis, _transpose(basis.nums, basis.cols)
    names, k, n = model.quantity_names, len(model.repeating), matrix.cols
    order = [names.index(name) for name in model.repeating]
    order += [j for j, name in enumerate(names) if name not in model.repeating]
    # den times A with its columns permuted has the permuted kernel
    basis = nullspace_basis(_matrix(n, [[row[j] for j in order] for row in matrix.nums], 1))
    if basis.cols != n - k:
        raise ModelError(
            f"the repeating quantities number {k}, but the dimension matrix has "
            f"rank {n - basis.cols}"
        )
    # The column of a repeating free variable is zero at every other
    # quantity: a dimensionless product of powers of repeating quantities.
    for c in range(basis.cols):
        if not any(row[c] for row in basis.nums[k:]):
            dependent = ", ".join(model.repeating[i] for i in range(k) if basis.nums[i][c])
            raise ModelError(f"the dimensions of repeating quantities {dependent} are dependent")
    rows = [basis.nums[order.index(j)] for j in range(n)]
    columns = tuple(map(_primitive, _transpose(rows, basis.cols)))
    return _matrix(basis.cols, _transpose(columns, n), 1), columns
