"""Exact rational dense linear algebra.

A matrix is stored as integer numerators over one positive common
denominator, in lowest terms, so every elimination and product runs on
Python integers and hands its integer result to the next stage as it is.
A ``Fraction`` is built only where an entry is read out. Rank and kernel
decisions are therefore discrete and reproducible: no tolerances, no
pivoting heuristics, no floating point anywhere. Matrices are small (desk
scale), immutable, and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

RationalLike = Fraction | int | str


class ShapeError(ValueError):
    """Raised when matrix or vector shapes do not line up."""


# Fractions are immutable, so one instance can stand for every occurrence of
# a small whole value; parsed exponents are nearly all within |k| <= 8.
_SHARED = {k: Fraction(k) for k in range(-64, 65)}


class _IntText(dict):
    """str(k) for every integer k, stored over a fixed range only: a miss is
    formatted afresh and not kept, so the table never grows."""

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        return str(key)


# A report prints mostly small integers (matrix cells, exponents), so each of
# those is formatted once per process. Key it with exact ints only: True
# hashes and compares as 1, and would read "1".
_INT_TEXT = _IntText((k, str(k)) for k in range(-64, 65))


def as_fraction(value: RationalLike) -> Fraction:
    """value as a Fraction, without copying one that already is. An int in
    [-64, 64] maps to a shared instance (a bool or int subclass does not).
    A float raises TypeError: it holds a binary fraction, so 1/3 would
    become 6004799503160661/18014398509481984."""
    if type(value) is int and -64 <= value <= 64:
        return _SHARED[value]
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; give an int, a Fraction or a str such as '1/3'")
    return Fraction(value)


def _fractions(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """tuple(map(as_fraction, values)), with its table lookup inlined."""
    return tuple([_SHARED[v] if type(v) is int and -64 <= v <= 64 else as_fraction(v)
                  for v in values])


class Value:
    """Base of pim's immutable value types.

    A subclass lists its fields once, in ``__slots__``, and the defaults of
    those that have one in ``_defaults``. Without an ``__init__`` of its own
    it gets one generated with those parameters, so Python binds each call
    and ``import pim`` loads neither dataclasses nor inspect nor typing; one
    that validates or converts its arguments does so in its own ``__init__``,
    which passes every field on by position. Instances of the same class
    compare and hash by their fields, print as ``Type(field=value, ...)``,
    and refuse assignment and deletion.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}
    _setters: tuple = ()

    def __init_subclass__(cls) -> None:
        # slot setters bypass the refusing __setattr__ and are the fastest to call
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        if "__init__" not in cls.__dict__:
            # one def per class from the field names, as namedtuple builds its __new__
            names, defaults = cls.__slots__, cls._defaults
            params = ", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in names)
            namespace = {"_d": defaults, "_init": Value.__init__}
            exec(f"def __init__(self, {params}): _init(self, {', '.join(names)})", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __init__(self, *args: object) -> None:
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

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


def _clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple, int]:
    """rows times the lcm of their entries' denominators, as integer row
    tuples, and that lcm. With lowest-term denominators the result is in
    lowest terms."""
    # Read Fraction's slots: its numerator and denominator properties are a
    # Python call per read. lcm takes the set of denominators, as it costs
    # about three times as much per argument as the set does per entry.
    scale = lcm(*{x._denominator for row in rows for x in row})
    return tuple([tuple([x._numerator * (scale // x._denominator) for x in row])
                  for row in rows]), scale


def _matrix(cols: int, nums: Iterable[Sequence[int]], den: int) -> RatMatrix:
    """The matrix nums / den (den nonzero), nums its integer rows of cols
    entries each, reduced to lowest terms."""
    nums = tuple(map(tuple, nums))
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums))
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(tuple(x // g for x in row) for row in nums)
            den //= g
    matrix = object.__new__(RatMatrix)
    Value.__init__(matrix, len(nums), cols, nums, den)
    return matrix


def _transpose(rows: Sequence[Sequence], cols: int) -> tuple[tuple, ...]:
    """The columns of rows, each of cols entries: a 0-row matrix still has
    cols columns."""
    return tuple(zip(*rows)) if rows else ((),) * cols


class RatMatrix(Value):
    """Immutable dense matrix of rationals, stored as ``nums``, a tuple of
    integer row tuples, over one positive denominator ``den``.

    The fields are always in lowest terms (den and the gcd of all the
    numerators are coprime), so equal matrices have equal fields and hashes.
    ``entries``, ``m[i, j]``, ``row``, ``column`` and ``to_rows`` hand out
    ``Fraction``s. Zero-row and zero-column matrices are legal; a 0 x n
    matrix has rank 0.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: tuple[RationalLike, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        values = _fractions(entries)
        split = [values[i * cols : (i + 1) * cols] for i in range(rows)]
        super().__init__(rows, cols, *_clear_denominators(split))

    def __reduce__(self) -> tuple:
        return _matrix, (self.cols, self.nums, self.den)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None
    ) -> RatMatrix:
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise ShapeError(f"ragged row: expected {cols} entries, got {len(row)}")
        return _matrix(cols, *_clear_denominators([_fractions(r) for r in rows]))

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[RationalLike]], rows: int | None = None
    ) -> RatMatrix:
        columns = list(columns)
        if rows is None:
            rows = len(columns[0]) if columns else 0
        if any(len(col) != rows for col in columns):
            raise ShapeError(f"ragged columns: expected {rows} entries in each")
        return cls.from_rows(_transpose(columns, rows), cols=len(columns))

    @classmethod
    def zero(cls, rows: int, cols: int) -> RatMatrix:
        return _matrix(cols, ((0,) * cols,) * rows, 1)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return _matrix(n, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for row in self.nums for x in row)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return Fraction(self.nums[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums[i])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[j], self.den) for row in self.nums)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> RatMatrix:
        return _matrix(self.rows, _transpose(self.nums, self.cols), self.den)

    def vstack(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.cols:
            raise ShapeError(f"cannot stack {self.cols}-column and {other.cols}-column matrices")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        rows = [[x * a for x in r] for r in self.nums] + [[x * b for x in r] for r in other.nums]
        return _matrix(self.cols, rows, den)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b_cols = _transpose(other.nums, other.cols)
        rows = [[sum(map(mul, row, col)) for col in b_cols] for row in self.nums]
        return _matrix(other.cols, rows, self.den * other.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"


class RrefResult(Value):
    """A reduced row echelon form ``rref`` together with its pivot column
    indices ``pivot_cols``, in increasing order."""

    __slots__ = ("rref", "pivot_cols")

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
    rows: Iterable[Sequence[int]], pivot_limit: int, echelon: bool = False
) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free elimination (Bareiss) of integer rows.

    A matrix enters as its numerators: den times it has the same pivots,
    rank, kernel and RREF. Returns the eliminated integer rows, the pivot
    column indices and det, the last pivot.

    Pivots are only chosen among columns < pivot_limit (row operations still
    apply to the full row width, which is what augmented solves rely on).
    Pivot choice is deterministic: columns left to right, first row at or
    below the current pivot row with a nonzero entry.

    Two stopping points. By default each pivot updates every other row
    (Gauss-Jordan), leaving zeros above and below it. With echelon=True it
    updates only the rows below it (forward Bareiss), so the rows end in
    echelon form, each pivot row as it was when it became one. A row update
    reads only that row and the pivot row, so the rows at or below the
    current pivot row are the same in both forms at every step; the pivot
    search reads only those rows, so both forms return the same pivots and
    det.

    Exactness: after k pivots, with prev the k-th pivot, each entry (i, j)
    of a row i below the pivot rows is the (k+1) x (k+1) minor of the
    row-permuted input on the k pivot rows and row i and on the k pivot
    columns and column j (Sylvester's identity). So each update
    (p * a - f * b) // prev divides exactly, and so does the rescale
    p * a // prev that keeps a row with f == 0 a minor; entries stay as
    small as those minors. This is all the echelon form needs. In the full
    form every entry of a pivot row is a k x k or (k+1) x (k+1) minor too.
    A step sets every row but the pivot row to p / prev times that row less
    f / p times the pivot row, so after k pivots every row is prev times
    the row that Fraction Gauss-Jordan with these pivots leaves (subtract
    f / p times the pivot row, scale each pivot row to 1 at its pivot).
    Every row ends as det times its Gauss-Jordan row, the rows that reduce
    to zero too, so the rows divided by det are the RREF.
    """
    mat = list(rows)
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
        for r in range(piv_row + 1 if echelon else 0, n_rows):
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


def rref_with_transform(matrix: RatMatrix) -> tuple[RrefResult, RatMatrix]:
    """The fully reduced row echelon form of matrix (zeros above and below
    each pivot), and the transform T with T @ matrix == rref.

    Deterministic and exact, so equal inputs always produce identical
    output, pivot columns, and rank. T records the row operations, which
    is how callers trace each reduced row back to a combination of the
    original rows. Both are read off one
    elimination of [den * matrix | I], whose rows each end as det times
    their Gauss-Jordan row: a pivot row's right half is det / den times its
    row of T. A row that reduces to zero is its original row minus a
    combination of the rows that became pivots, so its right half is det
    times its row of T as it stands: 1 at its own original index and 0 at
    every other index outside the pivot rows' support.
    """
    n, cols, den = matrix.rows, matrix.cols, matrix.den
    rows = [r + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, r in enumerate(matrix.nums)]
    mat, pivots, det = _eliminate(rows, cols)
    top = len(pivots)
    t_rows = [[den * x for x in r[cols:]] for r in mat[:top]] + [r[cols:] for r in mat[top:]]
    reduced = RrefResult(_matrix(cols, [r[:cols] for r in mat], det), tuple(pivots))
    return reduced, _matrix(n, t_rows, det)


def rank(matrix: RatMatrix) -> int:
    """Exact rank: the pivot count of an echelon only elimination."""
    return len(_eliminate(matrix.nums, matrix.cols, echelon=True)[1])


def nullspace_basis(matrix: RatMatrix) -> RatMatrix:
    """Deterministic kernel basis, one column per free variable of the RREF.

    Each free variable is set to 1 in turn (free columns in increasing
    order) and the resulting vector is scaled to a primitive integer vector
    with positive leading entry, so the basis is canonical and has den 1.
    Read off the integer elimination, that vector is det at the free column
    and minus the free column's entry of each pivot row at its pivot column,
    divided by the gcd of those entries. A pivot row is zero left of its
    pivot column, so the leading entry is minus the first pivot row's
    nonzero entry, or else det, and the divisor takes its sign. The basis
    is written row by row: pivot row i gives the row at its pivot column,
    and the row at the k-th free column is zero but for vector k's scaled
    det.
    """
    mat, pivots, det = _eliminate(matrix.nums, matrix.cols)
    free = _free_cols(pivots, matrix.cols)
    pivot_rows = mat[: len(pivots)]
    scales = []
    for col in free:
        entries = [row[col] for row in pivot_rows]
        g = gcd(det, *entries)
        scales.append(-g if next(filter(None, entries), -det) > 0 else g)
    rows: list[Sequence[int]] = [()] * matrix.cols
    for piv_col, row in zip(pivots, pivot_rows):
        rows[piv_col] = [-row[col] // g for col, g in zip(free, scales)]
    for k, (col, g) in enumerate(zip(free, scales)):
        rows[col] = [0] * len(free)
        rows[col][k] = det // g
    return _matrix(len(free), rows, 1)


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector ints, which must be nonzero, divided by its gcd and
    signed so that its first nonzero entry is positive."""
    g = gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


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
    if n >= x.bit_length():
        return None  # r >= 2 gives r ** n >= 2 ** n > x
    # Newton iteration from an upper bound; converges for integer roots.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    return r if r ** n == x else None
