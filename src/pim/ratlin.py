"""Exact rational dense linear algebra.

Matrices hold ``fractions.Fraction`` entries, but every elimination and
product runs on Python integers: each row (for a product, each operand) is
scaled to integers once by the lcm of its denominators, and a ``Fraction``
is built once per output entry. Rank and kernel decisions are therefore
discrete and reproducible: no tolerances, no pivoting heuristics, no
floating point anywhere. Matrices are small (desk scale), immutable, and
safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

RationalLike = Fraction | int | str


class ShapeError(ValueError):
    """Raised when matrix or vector shapes do not line up."""


def as_fraction(value: RationalLike) -> Fraction:
    """value as a Fraction, without copying one that already is."""
    return value if isinstance(value, Fraction) else Fraction(value)


_ZERO = Fraction(0)


class Value:
    """Base of pim's immutable value types.

    A subclass lists its fields in ``__slots__`` in constructor order and
    sets each one in ``__init__`` with ``object.__setattr__``. Instances of
    the same class compare and hash by their fields, print as
    ``Type(field=value, ...)``, and refuse assignment and deletion.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """values times the lcm of their denominators, and that lcm."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _over(rows: list[list[int]], divisors: Sequence[int], cols: int) -> RatMatrix:
    """Each integer row divided by its divisor, one Fraction per nonzero entry."""
    entries = (Fraction(x, q) if x else _ZERO for row, q in zip(rows, divisors) for x in row)
    return RatMatrix(len(rows), cols, tuple(entries))


class RatMatrix(Value):
    """Immutable dense matrix of rationals, stored row-major.

    Zero-row and zero-column matrices are legal; a 0 x n matrix has rank 0.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
            entries.extend(as_fraction(x) for x in row)
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
        entries = tuple(x for j in range(self.cols) for x in self.entries[j :: self.cols])
        return RatMatrix(self.cols, self.rows, entries)

    def vstack(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.cols:
            raise ShapeError(f"cannot stack {self.cols}-column and {other.cols}-column matrices")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, a_scale = _clear_denominators(self.entries)
        b, b_scale = _clear_denominators(other.entries)
        scale = a_scale * b_scale
        k, cols = self.cols, other.cols
        b_cols = [b[j::cols] for j in range(cols)]
        out = tuple(
            Fraction(sum(map(mul, a[i * k : (i + 1) * k], col)), scale)
            for i in range(self.rows)
            for col in b_cols
        )
        return RatMatrix(self.rows, cols, out)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"


class RrefResult(Value):
    """A reduced row echelon form together with its pivot columns."""

    __slots__ = ("rref", "pivot_cols")

    def __init__(self, rref: RatMatrix, pivot_cols: tuple[int, ...]) -> None:
        object.__setattr__(self, "rref", rref)
        object.__setattr__(self, "pivot_cols", pivot_cols)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def free_cols(self) -> tuple[int, ...]:
        """The non-pivot columns, in increasing order."""
        return _free_cols(self.pivot_cols, self.rref.cols)


def _free_cols(pivot_cols: Sequence[int], cols: int) -> tuple[int, ...]:
    pivot_set = set(pivot_cols)
    return tuple(k for k in range(cols) if k not in pivot_set)


def _eliminate(
    rows: Iterable[Sequence[Fraction]], pivot_limit: int
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of rational rows.

    Each row is first scaled to integers by the lcm of its denominators,
    which changes neither pivots, rank, kernel nor RREF. Returns the
    eliminated integer rows, the pivot column indices and det, the last
    pivot.

    Pivots are only chosen among columns < pivot_limit (row operations still
    apply to the full row width, which is what augmented solves rely on).
    Pivot choice is deterministic: columns left to right, first row at or
    below the current pivot row with a nonzero entry.

    Exactness: after k pivots, with prev the k-th pivot, every entry is a
    k x k or (k+1) x (k+1) minor of the scaled, row-permuted input
    (Sylvester's identity), so each update (p * a - f * b) // prev divides
    exactly, for rows with f == 0 too, and entries stay as small as those
    minors. Each row ends as a multiple of the row that Fraction
    Gauss-Jordan with these pivots would leave: det times it for a pivot
    row, so the rows divided by det are the RREF, and det times its scale
    for a row that reduces to zero.
    """
    mat = [_clear_denominators(row)[0] for row in rows]
    pivots: list[int] = []
    prev = 1
    n_rows = len(mat)
    for col in range(pivot_limit):
        piv_row = len(pivots)
        if piv_row == n_rows:
            break
        hit = next((r for r in range(piv_row, n_rows) if mat[r][col]), -1)
        if hit < 0:
            continue
        mat[piv_row], mat[hit] = mat[hit], mat[piv_row]
        prow = mat[piv_row]
        p = prow[col]
        for r in range(n_rows):
            if r == piv_row:
                continue
            row = mat[r]
            f = row[col]
            if f:
                mat[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                mat[r] = [p * a // prev for a in row]
        prev = p
        pivots.append(col)
    return mat, pivots, prev


def rref(matrix: RatMatrix) -> RrefResult:
    """Fully reduced row echelon form (zeros above and below each pivot).

    Deterministic and exact, so equal inputs always produce identical
    output, pivot columns, and rank.
    """
    mat, pivots, det = _eliminate(matrix.to_rows(), matrix.cols)
    return RrefResult(_over(mat, [det] * len(mat), matrix.cols), tuple(pivots))


def rref_with_transform(matrix: RatMatrix) -> tuple[RrefResult, RatMatrix]:
    """Like :func:`rref`, but also return the transform T with T @ matrix == rref.

    T records the row operations, which is how callers trace each reduced
    row back to a combination of the original rows. A row that reduces to
    zero is its original row minus a combination of the rows that became
    pivots, so its row of T is 1 at its own original index and 0 at every
    other index outside the pivot rows' support.
    """
    n, cols = matrix.rows, matrix.cols
    identity = RatMatrix.identity(n)
    mat, pivots, det = _eliminate([matrix.row(i) + identity.row(i) for i in range(n)], cols)
    top = len(pivots)
    # Past the rank a row also carries its original row's denominator lcm:
    # divide it by its one nonzero entry outside the pivot rows' support.
    outside = [j for j in range(cols, cols + n) if not any(r[j] for r in mat[:top])]
    divisors = [det] * top + [next(r[j] for j in outside if r[j]) for r in mat[top:]]
    reduced = _over([r[:cols] for r in mat], divisors, cols)
    transform = _over([r[cols:] for r in mat], divisors, n)
    return RrefResult(reduced, tuple(pivots)), transform


def rank(matrix: RatMatrix) -> int:
    """Exact rank via elimination."""
    return len(_eliminate(matrix.to_rows(), matrix.cols)[1])


def nullspace_basis(matrix: RatMatrix) -> RatMatrix:
    """Deterministic kernel basis, one column per free variable of the RREF.

    Each free variable is set to 1 in turn (free columns in increasing
    order) and the resulting vector is scaled to a primitive integer vector
    with positive leading entry, so the basis is canonical. Read off the
    integer elimination, that vector is det at the free column and minus
    the free column's entry of each pivot row at its pivot column.
    """
    mat, pivots, det = _eliminate(matrix.to_rows(), matrix.cols)
    columns = []
    for free in _free_cols(pivots, matrix.cols):
        vec = [0] * matrix.cols
        vec[free] = det
        for row, piv_col in zip(mat, pivots):
            vec[piv_col] = -row[free]
        columns.append(_primitive(vec))
    entries = tuple(Fraction(col[i]) for i in range(matrix.cols) for col in columns)
    return RatMatrix(matrix.cols, len(columns), entries)


def _primitive(ints: list[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by its gcd, signed so that its first
    nonzero entry is positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def normalize_primitive(vector: Sequence[RationalLike]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to integers with gcd 1 and a positive
    first nonzero entry."""
    vals = [as_fraction(x) for x in vector]
    if all(x == 0 for x in vals):
        raise ValueError("cannot normalize zero vector")
    return _primitive(_clear_denominators(vals)[0])


def sum_intersection_dims(a: RatMatrix, b: RatMatrix) -> tuple[int, int]:
    """Dimensions of the sum and of the intersection of the two row spaces.

    One Zassenhaus elimination of [[a, a], [b, 0]], read for its pivots
    only: those left of column n span rowspace a + rowspace b, which is
    rank([a; b]), and the rows whose left half reduces to zero carry a basis
    of the intersection in their right half, one pivot each.
    """
    if a.cols != b.cols:
        raise ShapeError(f"column counts differ: {a.cols} vs {b.cols}")
    n = a.cols
    stacked = [a.row(i) + a.row(i) for i in range(a.rows)]
    stacked += [b.row(i) + (_ZERO,) * n for i in range(b.rows)]
    pivots = _eliminate(stacked, 2 * n)[1]
    total = sum(1 for col in pivots if col < n)
    return total, len(pivots) - total


def exact_pow(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base ** exponent if the result is rational, else None.

    base must be positive. Fractional exponents succeed only when both
    numerator and denominator of base are perfect powers of the exponent's
    denominator (e.g. (4/9) ** (1/2) -> 2/3).
    """
    base = as_fraction(base)
    exponent = as_fraction(exponent)
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
