"""Independent oracles and random generators shared across the test suite.

The rank oracle enumerates minors with cofactor determinants, so it shares
no code path with the elimination-based rank under test. The textbook
oracles (``textbook_rref``, ``textbook_kernel``, ``textbook_product``) redo
Gauss-Jordan elimination and products in plain Fraction arithmetic, apart
from the integer kernel of ``pim.ratlin``; ``verify_report`` checks a whole
report with them. The drag-force
fixtures pin the classical worked example: six quantities over M, L, T with
kinematic viscosity tied to mu/rho by a monomial constraint.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Sequence

from pim.model import DimensionSystem, Model, Quantity
from pim.ratlin import RatMatrix
from pim.reduce import JacobianRowConstraint, MonomialConstraint

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """bench/<name>.py, a module of the benchmark, loaded from its file
    without putting bench/ on the import path."""
    spec = importlib.util.spec_from_file_location(f"pim_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


DRAG_A = RatMatrix.from_rows(
    [
        [1, 1, 0, 0, 1, 0],
        [1, -3, 1, 1, -1, 2],
        [-2, 0, -1, 0, -1, -1],
    ]
)
DRAG_J = RatMatrix.from_rows([[0, 1, 0, 0, -1, 1]])

# Classical basis: drag coefficient, Reynolds number, and U*L/nu.
DRAG_CLASSIC_BASIS = RatMatrix.from_columns(
    [
        [1, -1, -2, -2, 0, 0],
        [0, 1, 1, 1, -1, 0],
        [0, 0, 1, 1, 0, -1],
    ]
)

# The canonical free-variable kernel basis of DRAG_A, column by column.
DRAG_AUTO_BASIS = RatMatrix.from_columns(
    [
        [1, -1, -2, -2, 0, 0],
        [1, 1, 0, 0, -2, 0],
        [1, -1, 0, 0, 0, -2],
    ]
)

# A kernel basis of DRAG_A in which no row has a single nonzero entry: no
# repeating set gives it, and C cannot be read off unit rows of it.
DRAG_MIXED_BASIS = RatMatrix.from_columns(
    [
        [1, 0, -1, -1, -1, 0],
        [0, 1, 2, 2, -1, -1],
        [1, -1, -1, -1, 0, -1],
    ]
)

DRAG_RREF = RatMatrix.from_rows(
    [
        [1, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
        [0, 1, 0, Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)],
        [0, 0, 1, -1, 0, 0],
    ]
)


def drag_model(*, with_basis: bool = True, extra_constraints=()) -> Model:
    """The drag model; with_basis repeats rho, U and L, which gives
    DRAG_CLASSIC_BASIS, and without it E is DRAG_AUTO_BASIS."""
    dims = DimensionSystem(("M", "L", "T"))
    quantities = (
        Quantity("F_D", (1, 1, -2)),
        Quantity("rho", (1, -3, 0)),
        Quantity("U", (0, 1, -1)),
        Quantity("L", (0, 1, 0)),
        Quantity("mu", (1, -1, -1)),
        Quantity("nu", (0, 2, -1)),
    )
    constraints = (MonomialConstraint((0, 1, 0, 0, -1, 1), Fraction(1)),) + tuple(
        extra_constraints
    )
    return Model(
        dims,
        quantities,
        constraints,
        ("rho", "U", "L") if with_basis else (),
    )


def pendulum_model() -> Model:
    dims = DimensionSystem(("M", "L", "T"))
    quantities = (
        Quantity("T", (0, 0, 1)),
        Quantity("m", (1, 0, 0)),
        Quantity("L_p", (0, 1, 0)),
        Quantity("g", (0, 1, -2)),
    )
    return Model(dims, quantities)


def model_from_matrices(
    a: RatMatrix,
    j: RatMatrix,
    *,
    repeating: Sequence[str] = (),
    constants: Sequence[Fraction] | None = None,
) -> Model:
    """A model with dimension matrix ``a``, constraint Jacobian ``j`` and
    ``repeating`` quantities (none: the canonical kernel basis). Quantity
    ``xk`` has column k of ``a`` as its dimension exponents. Each row of ``j`` is a
    ``jacobian_row`` constraint, or, given ``constants``, a monomial
    constraint equal to its constant."""
    dims = DimensionSystem(tuple(f"D{i}" for i in range(a.rows)))
    quantities = tuple(Quantity(f"x{k}", a.column(k)) for k in range(a.cols))
    rows = [j.row(i) for i in range(j.rows)]
    if constants is None:
        constraints = tuple(JacobianRowConstraint(row) for row in rows)
    else:
        constraints = tuple(MonomialConstraint(row, k) for row, k in zip(rows, constants))
    return Model(dims, quantities, constraints, tuple(repeating))


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        head = rows[0][j]
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = head * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def minor_rank(matrix: RatMatrix) -> int:
    """Rank by exhaustive minor enumeration: the largest k for which some
    k x k submatrix has a nonzero determinant."""
    rows = matrix.to_rows()
    best = 0
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        found = False
        for ridx in combinations(range(matrix.rows), k):
            for cidx in combinations(range(matrix.cols), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                if det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = k
    return best


def random_int_matrix(
    rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3
) -> RatMatrix:
    return RatMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_unimodular(rng: random.Random, d: int) -> RatMatrix:
    """A d x d integer matrix of determinant 1: a unit lower triangular times
    a unit upper triangular factor, each with entries -1 or 1 off the
    diagonal, so its rows are dense for d >= 2."""

    def triangle(below: bool) -> RatMatrix:
        rows = [
            [1 if i == k else rng.choice((-1, 1)) if (k < i) == below else 0 for k in range(d)]
            for i in range(d)
        ]
        return RatMatrix.from_rows(rows, cols=d)

    return triangle(True) @ triangle(False)


def random_positive_fraction(rng: random.Random, hi: int = 12) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def random_invariant_jacobian(
    rng: random.Random, kernel: RatMatrix, ell: int
) -> RatMatrix:
    """Rows are random rational combinations of the kernel columns, so every
    row satisfies J @ A^T == 0 by construction."""
    n = kernel.rows
    rows = []
    for _ in range(ell):
        row = [Fraction(0)] * n
        for j in range(kernel.cols):
            coeff = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if coeff == 0:
                continue
            col = kernel.column(j)
            row = [r + coeff * c for r, c in zip(row, col)]
        rows.append(row)
    return RatMatrix.from_rows(rows, cols=n)


def random_rational_rows(
    rng: random.Random, rows: int, cols: int, rank: int
) -> list[list[Fraction]]:
    """A rows x cols rational matrix of rank at most ``rank``: the product of
    random factors whose entries have mixed denominators, with some rows set
    to zero or to a multiple of an earlier row and some columns set to zero."""

    def entry() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5, 6, 7)))

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    out = [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.1:
            out[i] = [Fraction(0)] * cols
        elif roll < 0.2 and i:
            factor = Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 5)))
            out[i] = [factor * x for x in out[rng.randrange(i)]]
    for j in range(cols):
        if rng.random() < 0.1:
            for row in out:
                row[j] = Fraction(0)
    return out


def textbook_rref(
    rows: list[list[Fraction]], cols: int
) -> tuple[list[list[Fraction]], list[int], list[list[Fraction]]]:
    """Gauss-Jordan elimination of [M | I] in Fraction arithmetic, sharing no
    code with pim.ratlin. Returns the RREF R, its pivot columns and the
    transform T with T M = R. Pivots follow the convention the engine
    documents (columns left to right, first nonzero row at or below the
    current one), which fixes T as well as R."""
    n = len(rows)
    mat = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        hit = next((r for r in range(top, n) if mat[r][col] != 0), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        head = mat[top][col]
        mat[top] = [x / head for x in mat[top]]
        for r in range(n):
            factor = mat[r][col]
            if r != top and factor != 0:
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return [row[:cols] for row in mat], pivots, [row[cols:] for row in mat]


def repeating_pivots(model: Model, order: Sequence[int] | None = None) -> tuple[str, ...]:
    """The quantities whose columns of A become pivots when textbook_rref
    reduces them in ``order`` (default: declaration order): a valid
    repeating set, and in declaration order the one the canonical basis
    implies."""
    order = range(model.n) if order is None else order
    rows = [[model.quantities[j].dim_exponents[i] for j in order] for i in range(model.m)]
    names = [model.quantities[j].name for j in order]
    return tuple(names[p] for p in textbook_rref(rows, len(names))[1])


def primitive_integer_vector(vector: list[Fraction]) -> list[int]:
    """The integer multiple of a nonzero vector with gcd 1 whose first
    nonzero entry is positive."""
    scale = 1
    for x in vector:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vector]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return [x // g for x in ints]


def textbook_kernel(rows: list[list[Fraction]], cols: int) -> list[list[int]]:
    """Kernel vectors from textbook_rref: each free variable set to 1 in
    turn, then made a primitive integer vector."""
    reduced, pivots, _ = textbook_rref(rows, cols)
    vectors = []
    for free in (k for k in range(cols) if k not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -reduced[r][free]
        vectors.append(primitive_integer_vector(vec))
    return vectors


def textbook_product(
    a: list[list[Fraction]], b: list[list[Fraction]], inner: int, cols: int
) -> list[list[Fraction]]:
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


class UnsupportedRescaleError(ValueError):
    """Raised when a rescale would need an irrational power of a scale factor."""


def evaluate_monomial(values: Sequence[Fraction], exponents: Sequence[int]) -> Fraction:
    """prod(values[j] ** exponents[j]) in Fraction arithmetic. Values must be
    positive."""
    if len(values) != len(exponents):
        raise ValueError(f"{len(values)} values vs {len(exponents)} exponents")
    result = Fraction(1)
    for j, (v, e) in enumerate(zip(values, exponents)):
        v = Fraction(v)
        if v <= 0:
            raise ValueError(f"monomial evaluation needs positive values; value {j} is {v}")
        result *= v ** e
    return result


def apply_rescale(
    model: Model, values: Sequence[Fraction], scales: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Quantity values after a change of units that multiplies base dimension
    i by scales[i] > 0: quantity j picks up prod_i scales[i] ** A[i, j], read
    off the model's dimension exponents. To stay exact, a dimension that is
    rescaled (scales[i] != 1) must have integer exponents on all quantities."""
    if len(scales) != model.m:
        raise ValueError(f"{len(scales)} scale factors for {model.m} dimensions")
    if len(values) != model.n:
        raise ValueError(f"{len(values)} values for {model.n} quantities")
    for i, s in enumerate(scales):
        if s <= 0:
            raise ValueError(f"rescale factor {i} must be positive, got {s}")
    out: list[Fraction] = []
    for j, q in enumerate(model.quantities):
        v = Fraction(values[j])
        if v <= 0:
            raise ValueError(f"rescale needs positive values; value {j} is {v}")
        for i, s in enumerate(scales):
            if s == 1:
                continue
            a = q.dim_exponents[i]
            if a.denominator != 1:
                raise UnsupportedRescaleError(
                    f"quantity {q.name!r} has non-integer exponent {a} on "
                    f"dimension {model.dims.names[i]!r}; rescaling it is not exact"
                )
            v *= Fraction(s) ** a.numerator
        out.append(v)
    return tuple(out)


def false_relations(model: Model, report) -> list[str]:
    """The report's relations that do not hold, as ``relation i`` (counted
    from 1), read from the model and the pi groups, the columns of E, only,
    never from C or rref(C).

    A relation prod_k pi_k ** p_k = prod_i K_i ** t_i holds when its two
    sides have the same exponent vector over the quantities: sum_k p_k times
    pi group k's exponents equals sum_i t_i times constraint i's vector. A
    pointwise relation is checked the same way. When every t_i is an integer
    and the constant is evaluated, it must equal prod_i K_i ** t_i."""
    groups = _transpose(_rows(report.E), report.E.cols)
    vectors = [c.vector for c in model.constraints]
    false = []
    for i, relation in enumerate(report.relations or (), 1):
        p, t = relation.pi_exponents, relation.k_exponents
        left = [sum(p[k] * g[j] for k, g in enumerate(groups)) for j in range(model.n)]
        right = [sum(t[i] * v[j] for i, v in enumerate(vectors)) for j in range(model.n)]
        holds = left == right
        if holds and relation.constant is not None and all(x.denominator == 1 for x in t):
            product = Fraction(1)
            for x, constraint in zip(t, model.constraints):
                if x:
                    product *= constraint.constant ** x.numerator
            holds = relation.constant == product
        if not holds:
            false.append(f"relation {i}")
    return false


def _rows(matrix) -> list[list[Fraction]]:
    """A report matrix's entries, read off its stored fields only."""
    return [[Fraction(x, matrix.den) for x in row] for row in matrix.nums]


def _rank(rows: list[list[Fraction]], cols: int) -> int:
    return len(textbook_rref(rows, cols)[1])


def _transpose(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    return [[row[j] for row in rows] for j in range(cols)]


def verify_report(model: Model, report) -> list[str]:
    """The claims of an analysis report that do not hold, each by its name.

    Reads only the model and the report, and recomputes every claim with
    textbook_rref, textbook_product and false_relations in Fraction
    arithmetic, never with the elimination kernel of pim.ratlin.
    """
    n, m, ell = model.n, model.m, len(model.constraints)
    failed: list[str] = []

    def claim(name: str, holds: bool) -> None:
        if not holds:
            failed.append(name)

    a = [[q.dim_exponents[i] for q in model.quantities] for i in range(m)]
    j = [list(c.vector) for c in model.constraints]
    claim("A is the model's dimension matrix", (report.n, report.m, _rows(report.A)) == (n, m, a))
    claim("J holds the model's constraint rows", report.ell == ell and _rows(report.J) == j)
    e, d = _rows(report.E), report.E.cols
    e_fits = report.E.rows == n
    claim("A E = 0", e_fits and not any(map(any, textbook_product(a, e, n, d))))
    claim("E has full column rank", _rank(e, d) == d)
    claim("d = n - rank A", report.d == d == n - _rank(a, n))
    invariant = not any(map(any, textbook_product(j, _transpose(a, n), n, m)))
    claim("scale_invariant is J A^T == 0", report.scale_invariant == invariant)
    d_eff = n - _rank(a + j, n)
    claim("d_eff is n - rank [A; J]", report.d_eff == d_eff)
    if not invariant:
        late = (report.C, report.rref_C, report.selected, report.relations)
        claim("C, rref_C, selected and relations are None", late == (None,) * 4)
        return failed
    if report.C is None or (report.C.rows, report.C.cols) != (ell, d):
        return failed + ["C E^T = J"]
    c = _rows(report.C)
    claim("C E^T = J", e_fits and textbook_product(c, _transpose(e, d), d, n) == j)
    reduced, pivots, _ = textbook_rref(c, d)
    claim("rref_C is the RREF of C", report.rref_C is not None and _rows(report.rref_C) == reduced)
    free = [k for k in range(d) if k not in pivots]
    selected = list(report.selected or ())
    claim(
        "selected is the free columns of rref(C), d_eff of them",
        selected == free and len(free) == d_eff,
    )
    # the groups left out are solved for from the kept ones, so those are independent
    left_out = [k for k in range(d) if k not in selected]
    rank_left_out = _rank([[row[k] for k in left_out] for row in c], len(left_out))
    claim("C on the columns not selected has rank C", rank_left_out == len(pivots))
    coeffs = [list(r.coeffs) for r in report.relations or ()]
    claim("one relation per pivot, in pivot order", coeffs == reduced[: len(pivots)])
    claim("no relation is false", not false_relations(model, report))
    return failed
