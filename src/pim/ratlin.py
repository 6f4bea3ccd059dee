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

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

RationalLike = Fraction | int | str


class ShapeError(ValueError):
    """Raised when matrix or vector shapes do not line up."""


# Fractions are immutable, so one instance can stand for every occurrence of
# a small whole value; parsed exponents are nearly all within |k| <= 8.
_SHARED = {k: Fraction(k) for k in range(-64, 65)}


def as_fraction(value: RationalLike) -> Fraction:
    """value as a Fraction, without copying one that already is. An int in
    [-64, 64] maps to a shared instance (a bool or int subclass does not)."""
    if type(value) is int and -64 <= value <= 64:
        return _SHARED[value]
    return value if isinstance(value, Fraction) else Fraction(value)


class Value:
    """Base of pim's immutable value types.

    A subclass lists its fields once, in ``__slots__``, and the defaults of
    those that have one in ``_defaults``. It is built by position or by
    keyword; one that validates or converts its arguments does so in its own
    ``__init__``, which passes every field on by position. Instances of the
    same class compare and hash by their fields, print as
    ``Type(field=value, ...)``, and refuse assignment and deletion.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}
    _setters: tuple = ()

    def __init_subclass__(cls) -> None:
        # slot setters bypass the refusing __setattr__ and are the fastest to call
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, object]) -> list:
        """One value per field, in order, from a call that names fields or
        leaves some to their defaults; TypeError as for a Python signature."""
        names, kind = cls.__slots__, cls.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{kind}() takes {len(names)} positional arguments, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{kind}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{kind}() got multiple values for argument {name!r}")
        values = {**cls._defaults, **given, **kwargs}
        missing = ", ".join(repr(name) for name in names if name not in values)
        if missing:
            raise TypeError(f"{kind}() missing required arguments: {missing}")
        return [values[name] for name in names]

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
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*(q for _, q in ratios))
    if scale == 1:
        return [p for p, _ in ratios], 1
    return [p * (scale // q) for p, q in ratios], scale


def _matrix(rows: int, cols: int, nums: tuple[int, ...], den: int) -> RatMatrix:
    """The matrix nums / den (den nonzero), reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
    matrix = object.__new__(RatMatrix)
    for set_field, value in zip(RatMatrix._setters, (rows, cols, nums, den)):
        set_field(matrix, value)
    return matrix


class RatMatrix(Value):
    """Immutable dense matrix of rationals, stored row-major as integer
    numerators ``nums`` over one positive denominator ``den``.

    The fields are always in lowest terms (gcd(den, *nums) == 1), so equal
    matrices have equal fields and hashes. ``entries``, ``m[i, j]``, ``row``,
    ``column`` and ``to_rows`` hand out ``Fraction``s. Zero-row and
    zero-column matrices are legal; a 0 x n matrix has rank 0.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: tuple[RationalLike, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        # With the lcm of lowest-term denominators the result is in lowest terms.
        nums, den = _clear_denominators(list(map(as_fraction, entries)))
        super().__init__(rows, cols, tuple(nums), den)

    def __reduce__(self) -> tuple:
        return _matrix, self._fields()

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None
    ) -> RatMatrix:
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        entries: list[RationalLike] = []
        for row in rows:
            if len(row) != cols:
                raise ShapeError(f"ragged row: expected {cols} entries, got {len(row)}")
            entries.extend(row)
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
        return _matrix(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return _matrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums[j :: self.cols])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> RatMatrix:
        nums = tuple(x for j in range(self.cols) for x in self.nums[j :: self.cols])
        return _matrix(self.cols, self.rows, nums, self.den)

    def vstack(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.cols:
            raise ShapeError(f"cannot stack {self.cols}-column and {other.cols}-column matrices")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = tuple(x * a for x in self.nums) + tuple(x * b for x in other.nums)
        return _matrix(self.rows + other.rows, self.cols, nums, den)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.cols
        b_cols = [other.nums[j::cols] for j in range(cols)]
        nums = tuple(sum(map(mul, row, col)) for row in _num_rows(self) for col in b_cols)
        return _matrix(self.rows, cols, nums, self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

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


def _num_rows(matrix: RatMatrix) -> list[tuple[int, ...]]:
    """The rows of den times matrix."""
    nums, cols = matrix.nums, matrix.cols
    return [nums[i * cols : (i + 1) * cols] for i in range(matrix.rows)]


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
    form every entry of a pivot row is a k x k or (k+1) x (k+1) minor too,
    and each row ends as a multiple of the row that Fraction Gauss-Jordan
    with these pivots would leave: det times it for a pivot row, so the
    rows divided by det are the RREF, and some nonzero multiple for a row
    that reduces to zero.
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


def rref(matrix: RatMatrix) -> RrefResult:
    """Fully reduced row echelon form (zeros above and below each pivot).

    Deterministic and exact, so equal inputs always produce identical
    output, pivot columns, and rank.
    """
    mat, pivots, det = _eliminate(_num_rows(matrix), matrix.cols)
    nums = tuple(x for row in mat for x in row)
    return RrefResult(_matrix(matrix.rows, matrix.cols, nums, det), tuple(pivots))


def rref_with_transform(matrix: RatMatrix) -> tuple[RrefResult, RatMatrix]:
    """Like :func:`rref`, but also return the transform T with T @ matrix == rref.

    T records the row operations, which is how callers trace each reduced
    row back to a combination of the original rows. A row that reduces to
    zero is its original row minus a combination of the rows that became
    pivots, so its row of T is 1 at its own original index and 0 at every
    other index outside the pivot rows' support.
    """
    n, cols, den = matrix.rows, matrix.cols, matrix.den
    rows = [r + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, r in enumerate(_num_rows(matrix))]
    mat, pivots, det = _eliminate(rows, cols)
    top = len(pivots)
    # The pivot rows carry det times T relative to den * matrix, that is
    # det / den times T. A row past the rank carries some multiple of its T
    # row: divide it by its one nonzero entry outside the pivot rows' support.
    outside = [j for j in range(cols, cols + n) if not any(r[j] for r in mat[:top])]
    divisors = [next(r[j] for j in outside if r[j]) for r in mat[top:]]
    scale = lcm(det, *divisors)
    factors = [den * (scale // det)] * top + [scale // q for q in divisors]
    t_nums = tuple(x * f for r, f in zip(mat, factors) for x in r[cols:])
    reduced = tuple(x for r in mat for x in r[:cols])
    return (
        RrefResult(_matrix(n, cols, reduced, det), tuple(pivots)),
        _matrix(n, n, t_nums, scale),
    )


def rank(matrix: RatMatrix) -> int:
    """Exact rank: the pivot count of an echelon only elimination."""
    return len(_eliminate(_num_rows(matrix), matrix.cols, echelon=True)[1])


def nullspace_basis(matrix: RatMatrix) -> RatMatrix:
    """Deterministic kernel basis, one column per free variable of the RREF.

    Each free variable is set to 1 in turn (free columns in increasing
    order) and the resulting vector is scaled to a primitive integer vector
    with positive leading entry, so the basis is canonical and has den 1.
    Read off the integer elimination, that vector is det at the free column
    and minus the free column's entry of each pivot row at its pivot column.
    """
    mat, pivots, det = _eliminate(_num_rows(matrix), matrix.cols)
    columns = []
    for free in _free_cols(pivots, matrix.cols):
        vec = [0] * matrix.cols
        vec[free] = det
        for row, piv_col in zip(mat, pivots):
            vec[piv_col] = -row[free]
        columns.append(_primitive(vec))
    nums = tuple(col[i] for i in range(matrix.cols) for col in columns)
    return _matrix(matrix.cols, len(columns), nums, 1)


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector ints, which must be nonzero, divided by its gcd and
    signed so that its first nonzero entry is positive."""
    g = gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple(x // g for x in ints)


def sum_intersection_dims(a: RatMatrix, b: RatMatrix) -> tuple[int, int]:
    """Dimensions of the sum and of the intersection of the two row spaces.

    One Zassenhaus elimination of [[a, a], [b, 0]], echelon only, read for
    its pivots only: those left of column n span rowspace a + rowspace b,
    which is rank([a; b]), and the rows whose left half reduces to zero
    carry a basis of the intersection in their right half, one pivot each.
    """
    if a.cols != b.cols:
        raise ShapeError(f"column counts differ: {a.cols} vs {b.cols}")
    n = a.cols
    # Scaling a row by a nonzero integer moves no pivot.
    stacked = [r + r for r in _num_rows(a)] + [r + (0,) * n for r in _num_rows(b)]
    pivots = _eliminate(stacked, 2 * n, echelon=True)[1]
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
