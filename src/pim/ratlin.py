"""Exact rational dense linear algebra.

Everything works over ``fractions.Fraction``, so rank and kernel decisions
are discrete and reproducible: no tolerances, no pivoting heuristics, no
floating point anywhere. Matrices are small (desk scale), immutable, and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rational = Fraction

RationalLike = Fraction | int | str


class ShapeError(ValueError):
    """Raised when matrix or vector shapes do not line up."""


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of rationals, stored row-major.

    Zero-row and zero-column matrices are legal; a 0 x n matrix has rank 0.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative matrix shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None
    ) -> RatMatrix:
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        entries: list[Fraction] = []
        for row in rows:
            if len(row) != cols:
                raise ShapeError(f"ragged row: expected {cols} entries, got {len(row)}")
            entries.extend(_frac(x) for x in row)
        return cls(len(rows), cols, tuple(entries))

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[RationalLike]], rows: int | None = None
    ) -> RatMatrix:
        columns = list(columns)
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return cls.from_rows(
            [[col[i] for col in columns] for i in range(rows)], cols=len(columns)
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> RatMatrix:
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls.from_rows([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> RatMatrix:
        return RatMatrix.from_columns([self.row(i) for i in range(self.rows)], rows=self.cols)

    def vstack(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.cols:
            raise ShapeError(f"cannot stack {self.cols}-column and {other.cols}-column matrices")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out: list[Fraction] = []
        for i in range(self.rows):
            row = self.row(i)
            for j in range(other.cols):
                out.append(
                    Fraction(
                        sum(row[k] * other.entries[k * other.cols + j] for k in range(self.cols))
                    )
                )
        return RatMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"


@dataclass(frozen=True)
class RrefResult:
    """A reduced row echelon form together with its pivot columns."""

    rref: RatMatrix
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def free_cols(self) -> tuple[int, ...]:
        """The non-pivot columns, in increasing order."""
        pivot_set = set(self.pivot_cols)
        return tuple(k for k in range(self.rref.cols) if k not in pivot_set)


def _eliminate(mat: list[list[Fraction]], pivot_limit: int) -> list[int]:
    """In-place Gauss-Jordan elimination; returns the pivot column indices.

    Pivots are only chosen among columns < pivot_limit (row operations still
    apply to the full row width, which is what augmented solves rely on).
    Pivot choice is deterministic: columns left to right, first row at or
    below the current pivot row with a nonzero entry.
    """
    pivots: list[int] = []
    piv_row = 0
    n_rows = len(mat)
    for col in range(pivot_limit):
        if piv_row == n_rows:
            break
        hit = -1
        for r in range(piv_row, n_rows):
            if mat[r][col] != 0:
                hit = r
                break
        if hit < 0:
            continue
        if hit != piv_row:
            mat[piv_row], mat[hit] = mat[hit], mat[piv_row]
        piv = mat[piv_row][col]
        if piv != 1:
            mat[piv_row] = [x / piv for x in mat[piv_row]]
        prow = mat[piv_row]
        for r in range(n_rows):
            if r == piv_row:
                continue
            f = mat[r][col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        pivots.append(col)
        piv_row += 1
    return pivots


def rref(matrix: RatMatrix) -> RrefResult:
    """Fully reduced row echelon form (zeros above and below each pivot).

    Deterministic and exact, so equal inputs always produce identical
    output, pivot columns, and rank.
    """
    mat = matrix.to_rows()
    pivots = _eliminate(mat, matrix.cols)
    return RrefResult(RatMatrix.from_rows(mat, cols=matrix.cols), tuple(pivots))


def rref_with_transform(matrix: RatMatrix) -> tuple[RrefResult, RatMatrix]:
    """Like :func:`rref`, but also return the transform T with T @ matrix == rref.

    T records the row operations, which is how callers trace each reduced
    row back to a combination of the original rows.
    """
    n = matrix.rows
    mat = [
        list(matrix.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    pivots = _eliminate(mat, matrix.cols)
    reduced = RatMatrix.from_rows([r[: matrix.cols] for r in mat], cols=matrix.cols)
    transform = RatMatrix.from_rows([r[matrix.cols :] for r in mat], cols=n)
    return RrefResult(reduced, tuple(pivots)), transform


def rank(matrix: RatMatrix) -> int:
    """Exact rank via elimination."""
    return rref(matrix).rank


def nullspace_basis(matrix: RatMatrix) -> RatMatrix:
    """Deterministic kernel basis, one column per free variable of the RREF.

    Each free variable is set to 1 in turn (free columns in increasing
    order) and the resulting vector is scaled to a primitive integer vector
    with positive leading entry, so the basis is canonical.
    """
    result = rref(matrix)
    columns: list[list[Fraction]] = []
    for free in result.free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, piv_col in enumerate(result.pivot_cols):
            vec[piv_col] = -result.rref[r, free]
        columns.append([Fraction(x) for x in normalize_primitive(vec)])
    return RatMatrix.from_columns(columns, rows=matrix.cols)


def normalize_primitive(vector: Sequence[RationalLike]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to integers with gcd 1 and a positive
    first nonzero entry."""
    vals = [_frac(x) for x in vector]
    if all(x == 0 for x in vals):
        raise ValueError("cannot normalize zero vector")
    scale = lcm(*(x.denominator for x in vals))
    ints = [int(x * scale) for x in vals]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def sum_intersection_dims(a: RatMatrix, b: RatMatrix) -> tuple[int, int]:
    """Dimensions of the sum and of the intersection of the two row spaces.

    One Zassenhaus elimination of [[a, a], [b, 0]]: its pivots left of
    column n span rowspace a + rowspace b, which is rank([a; b]), and the
    rows whose left half reduces to zero carry a basis of the intersection
    in their right half, one pivot each.
    """
    if a.cols != b.cols:
        raise ShapeError(f"column counts differ: {a.cols} vs {b.cols}")
    n = a.cols
    stacked = RatMatrix.from_rows(
        [a.row(i) + a.row(i) for i in range(a.rows)]
        + [b.row(i) + (Fraction(0),) * n for i in range(b.rows)],
        cols=2 * n,
    )
    pivots = rref(stacked).pivot_cols
    total = sum(1 for col in pivots if col < n)
    return total, len(pivots) - total


def exact_pow(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base ** exponent if the result is rational, else None.

    base must be positive. Fractional exponents succeed only when both
    numerator and denominator of base are perfect powers of the exponent's
    denominator (e.g. (4/9) ** (1/2) -> 2/3).
    """
    base = _frac(base)
    exponent = _frac(exponent)
    if base <= 0:
        raise ValueError("exact_pow requires a positive base")
    if exponent.denominator == 1:
        return base ** exponent.numerator
    root = exponent.denominator
    num = _int_nth_root(base.numerator, root)
    den = _int_nth_root(base.denominator, root)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** exponent.numerator


def _int_nth_root(x: int, n: int) -> int | None:
    """Exact integer n-th root of x >= 1, or None if x is not a perfect power."""
    if x == 1:
        return 1
    # Newton iteration from an upper bound; converges for integer roots.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    return r if r ** n == x else None
