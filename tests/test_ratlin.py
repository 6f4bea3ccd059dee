from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest

from pim import parse_model
from pim.model import build_dimension_matrix
from pim.ratlin import (
    RatMatrix,
    ShapeError,
    _eliminate,
    _num_rows,
    _primitive,
    as_fraction,
    exact_pow,
    nullspace_basis,
    rank,
    rref,
    rref_with_transform,
    sum_intersection_dims,
)
from pim.reduce import constraint_jacobian

from oracles import (
    DRAG_A,
    DRAG_AUTO_BASIS,
    DRAG_J,
    DRAG_RREF,
    minor_rank,
    primitive_integer_vector,
    random_int_matrix,
    random_rational_rows,
    textbook_kernel,
    textbook_product,
    textbook_rref,
)

# (rows, cols, rank bound): the empty shapes, small ones, and rational
# matrices up to the 10 x 48 Zassenhaus matrix of the n = 24 rung and beyond.
ORACLE_SHAPES = (
    [(0, 0, 0), (0, 5, 0), (5, 0, 0), (1, 1, 1), (3, 3, 0)]
    + [(r, c, min(r, c)) for r in range(1, 6) for c in range(1, 6)]
    + [(r, c, k) for r, c in ((4, 7), (7, 4), (6, 6)) for k in range(1, 4)]
    + [(12, 20, 12), (12, 20, 7), (20, 30, 14), (10, 48, 10), (30, 48, 9), (30, 48, 24)]
)


def _oracle_cases(seed: int):
    rng = random.Random(seed)
    for rows, cols, bound in ORACLE_SHAPES:
        yield random_rational_rows(rng, rows, cols, bound), cols


# ---------------------------------------------------------------------------
# RatMatrix basics


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        RatMatrix(2, 2, (Fraction(1),))
    with pytest.raises(ShapeError):
        RatMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError, match="negative matrix shape -1x2"):
        RatMatrix(-1, 2, ())


def test_matrix_index_out_of_range():
    m = RatMatrix.from_rows([[1, 2]])
    assert m[0, 1] == 2
    with pytest.raises(IndexError, match=r"index \(1, 0\) out of range for 1x2"):
        m[1, 0]


def test_empty_matrices_are_legal():
    assert RatMatrix.from_rows([], cols=4).rows == 0
    assert RatMatrix.zero(0, 4).cols == 4
    assert RatMatrix.zero(3, 0).entries == ()
    assert rank(RatMatrix.zero(0, 4)) == 0
    assert rank(RatMatrix.zero(4, 0)) == 0


def test_matmul_and_transpose():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    with pytest.raises(ShapeError):
        a @ RatMatrix.zero(3, 1)


def test_matmul_matches_textbook_product():
    rng = random.Random(1108)
    shapes = [(2, 0, 3), (0, 3, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1), (4, 5, 3), (9, 14, 6)]
    for rows, inner, cols in shapes:
        a = random_rational_rows(rng, rows, inner, min(rows, inner))
        b = random_rational_rows(rng, inner, cols, min(inner, cols))
        product = RatMatrix.from_rows(a, cols=inner) @ RatMatrix.from_rows(b, cols=cols)
        assert (product.rows, product.cols) == (rows, cols)
        assert product.to_rows() == textbook_product(a, b, inner, cols)
    # an empty inner dimension gives the zero matrix
    assert RatMatrix.zero(2, 0) @ RatMatrix.zero(0, 3) == RatMatrix.zero(2, 3)
    half = RatMatrix.from_rows([[Fraction(1, 2), Fraction(-2, 3)]])
    assert (half @ half.transpose()).to_rows() == [[Fraction(25, 36)]]


def test_vstack_shape_check():
    with pytest.raises(ShapeError):
        RatMatrix.zero(1, 2).vstack(RatMatrix.zero(1, 3))


# (rows, cols, rank bound): empty shapes, small ones, and the [E | J^T]
# (24 x 18) and Zassenhaus (10 x 48) shapes of the benchmark's largest rung.
CANONICAL_SHAPES = (
    (0, 0, 0), (0, 4, 0), (4, 0, 0), (3, 3, 0), (1, 1, 1), (5, 4, 3), (4, 7, 4),
    (8, 8, 8), (24, 18, 12), (10, 48, 10),
)


def _assert_canonical(matrix: RatMatrix) -> None:
    assert matrix.den > 0
    assert math.gcd(matrix.den, *matrix.nums) == 1
    again = RatMatrix.from_rows(matrix.to_rows(), cols=matrix.cols)
    assert again == matrix
    assert hash(again) == hash(matrix)
    assert pickle.loads(pickle.dumps(matrix)) == matrix


def test_every_result_is_in_lowest_terms():
    # Equality and hashing compare the fields, so a result that is not in
    # lowest terms would compare unequal to the same matrix built anew.
    rng = random.Random(1110)
    for rows, cols, bound in CANONICAL_SHAPES:
        for _ in range(2):
            entries = random_rational_rows(rng, rows, cols, bound)
            m = RatMatrix.from_rows(entries, cols=cols)
            below = RatMatrix.from_rows(random_rational_rows(rng, 3, cols, 2), cols=cols)
            right = RatMatrix.from_rows(random_rational_rows(rng, cols, 5, 3), cols=5)
            result, transform = rref_with_transform(m)
            for out in (
                m,
                RatMatrix.from_columns(entries, rows=cols),
                RatMatrix.zero(rows, cols),
                RatMatrix.identity(rows),
                m.transpose(),
                m.vstack(below),
                m @ right,
                m @ m.transpose(),
                rref(m).rref,
                result.rref,
                transform,
                nullspace_basis(m),
            ):
                _assert_canonical(out)


# ---------------------------------------------------------------------------
# boxing: as_fraction and the integer fields of RatMatrix


@pytest.mark.parametrize(
    "value", [-65, -64, -1, 0, 1, 64, 65, 10**30, True, "3/4", Fraction(5, 2)], ids=repr
)
def test_as_fraction_is_an_exact_fraction_of_the_same_value(value):
    out = as_fraction(value)
    assert type(out) is Fraction
    assert out == Fraction(value)
    assert out.as_integer_ratio() == Fraction(value).as_integer_ratio()
    assert [type(x) for x in out.as_integer_ratio()] == [int, int]


def test_matrix_fields_are_the_lcm_form_in_lowest_terms():
    rng = random.Random(1212)
    draws = (
        lambda: rng.randint(-70, 70),
        lambda: Fraction(rng.randint(-70, 70)),
        lambda: rng.choice(
            [rng.randint(-9, 9), Fraction(rng.randint(-70, 70), rng.randint(1, 12))]
        ),
    )
    for draw in draws:
        for _ in range(100):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            entries = tuple(draw() for _ in range(rows * cols))
            matrix = RatMatrix(rows, cols, entries)
            values = [Fraction(x) for x in entries]
            scale = math.lcm(*(x.denominator for x in values))
            nums = tuple(x.numerator * (scale // x.denominator) for x in values)
            assert (matrix.nums, matrix.den) == (nums, scale)
            assert math.gcd(matrix.den, *matrix.nums) == 1
            assert [type(x) for x in (*matrix.nums, matrix.den)] == [int] * (len(nums) + 1)


# ---------------------------------------------------------------------------
# rref


def test_rref_single_row():
    result = rref(RatMatrix.from_rows([[0, 1, -1]]))
    assert result.rref == RatMatrix.from_rows([[0, 1, -1]])
    assert result.pivot_cols == (1,)
    assert result.rank == 1


def test_rref_zero_matrix():
    zero = RatMatrix.zero(2, 2)
    result = rref(zero)
    assert result.rref == zero
    assert result.pivot_cols == ()
    assert result.rank == 0


def test_rref_drag_matrix():
    result = rref(DRAG_A)
    assert result.rref == DRAG_RREF
    assert result.pivot_cols == (0, 1, 2)


def _assert_is_rref(matrix: RatMatrix, pivot_cols: tuple[int, ...]) -> None:
    assert list(pivot_cols) == sorted(set(pivot_cols))
    for r, col in enumerate(pivot_cols):
        assert matrix[r, col] == 1
        for r2 in range(matrix.rows):
            if r2 != r:
                assert matrix[r2, col] == 0
        # nothing to the left of a pivot in its own row
        for c in range(col):
            assert matrix[r, c] == 0
    for r in range(len(pivot_cols), matrix.rows):
        assert all(x == 0 for x in matrix.row(r))


def test_rref_structure_and_idempotence_random():
    rng = random.Random(1101)
    for _ in range(150):
        m = random_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        result = rref(m)
        _assert_is_rref(result.rref, result.pivot_cols)
        again = rref(result.rref)
        assert again.rref == result.rref
        assert again.pivot_cols == result.pivot_cols
        # row equivalence: stacking changes nothing about the row space
        assert rank(m.vstack(result.rref)) == rank(m) == result.rank


def test_rref_transform_reproduces_reduction():
    rng = random.Random(1102)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        result, transform = rref_with_transform(m)
        assert transform @ m == result.rref
        assert result == rref(m)


def test_kernel_matches_textbook_oracle():
    for rows, cols in _oracle_cases(1109):
        matrix = RatMatrix.from_rows(rows, cols=cols)
        reduced, pivots, transform = textbook_rref(rows, cols)
        result = rref(matrix)
        assert result.rref.to_rows() == reduced
        assert result.pivot_cols == tuple(pivots)
        assert rank(matrix) == len(pivots)
        with_t, t = rref_with_transform(matrix)
        assert with_t == result
        assert t.to_rows() == transform
        assert t @ matrix == result.rref
        basis = nullspace_basis(matrix)
        assert [list(basis.column(j)) for j in range(basis.cols)] == textbook_kernel(rows, cols)


def test_kernel_matches_sympy_over_rationals():
    sympy = pytest.importorskip("sympy")
    for rows, cols in _oracle_cases(1110):
        if not rows or not cols:
            continue
        matrix = RatMatrix.from_rows(rows, cols=cols)
        exact = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        )
        reduced, pivots = exact.rref()
        result = rref(matrix)
        assert result.pivot_cols == tuple(pivots)
        assert rank(matrix) == len(pivots)
        assert result.rref.to_rows() == [
            [Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(rows))
        ]
        basis = nullspace_basis(matrix)
        assert [list(basis.column(j)) for j in range(basis.cols)] == [
            primitive_integer_vector([Fraction(int(x.p), int(x.q)) for x in vec])
            for vec in exact.nullspace()
        ]


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank(DRAG_A) == 3
    assert rank(RatMatrix.identity(3)) == 3
    assert rank(DRAG_A.vstack(DRAG_J)) == 4


def test_rank_examples_match_minor_oracle():
    assert minor_rank(DRAG_A) == 3
    assert minor_rank(DRAG_A.vstack(DRAG_J)) == 4


def test_rank_invariant_under_row_permutation_and_scaling():
    rng = random.Random(1103)
    for _ in range(80):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        rows = m.to_rows()
        rng.shuffle(rows)
        scaled = []
        for row in rows:
            factor = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
            scaled.append([factor * x for x in row])
        assert rank(RatMatrix.from_rows(scaled, cols=m.cols)) == rank(m)


def _int_matrices(seed: int):
    """Random integer matrices up to 30 x 60, of full rank and of every
    rank bound below it: products of integer factors."""
    rng = random.Random(seed)
    for rows, cols in ((1, 1), (3, 7), (7, 3), (12, 20), (20, 12), (30, 30), (30, 60)):
        for bound in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            yield random_int_matrix(rng, rows, bound) @ random_int_matrix(rng, bound, cols)


def test_rank_matches_rref_and_textbook_oracle():
    # rank stops at echelon form; rref runs the full elimination
    for m in _int_matrices(1112):
        expected = len(textbook_rref(m.to_rows(), m.cols)[1])
        assert rank(m) == rref(m).rank == expected, (m.rows, m.cols)


def test_echelon_and_full_elimination_share_pivots():
    for m in _int_matrices(1113):
        for limit in sorted({0, m.cols // 2, m.cols}):
            full, pivots, det = _eliminate(_num_rows(m), limit)
            ech, ech_pivots, ech_det = _eliminate(_num_rows(m), limit, echelon=True)
            assert (ech_pivots, ech_det) == (pivots, det)
            # rows past the last pivot row were never above a pivot, so both
            # forms leave them alike, and zero left of pivot_limit
            top = len(pivots)
            assert ech[top:] == full[top:]
            assert not any(x for row in ech[top:] for x in row[:limit])
            for row, col in zip(ech, pivots):
                assert not any(row[:col]) and row[col]


def test_rank_matches_minor_enumeration_oracle():
    rng = random.Random(1104)
    for _ in range(200):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
        assert rank(m) == minor_rank(m)


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_drag_matrix():
    basis = nullspace_basis(DRAG_A)
    assert basis == DRAG_AUTO_BASIS
    assert (DRAG_A @ basis).is_zero()


def test_nullspace_trivial_kernel():
    basis = nullspace_basis(RatMatrix.identity(2))
    assert (basis.rows, basis.cols) == (2, 0)


def test_nullspace_single_row():
    basis = nullspace_basis(RatMatrix.from_rows([[0, 1, -1]]))
    assert basis == RatMatrix.from_columns([[1, 0, 0], [0, 1, 1]])


def test_nullspace_properties_random():
    rng = random.Random(1105)
    for _ in range(150):
        m = random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 6), -2, 2)
        basis = nullspace_basis(m)
        assert basis.cols == m.cols - rank(m)
        assert (m @ basis).is_zero()
        if basis.cols:
            assert rank(basis) == basis.cols


# ---------------------------------------------------------------------------
# _primitive


def test_primitive_examples():
    assert _primitive((2, 4, 6)) == (1, 2, 3)
    assert _primitive((-1, 1, 2, 2, 0, 0)) == (1, -1, -2, -2, 0, 0)
    # flips sign to make the first nonzero entry positive, then gcd is 1
    assert _primitive((0, -3)) == (0, 1)
    assert _primitive((0, -3, 1)) == (0, 3, -1)


def test_primitive_random():
    rng = random.Random(1106)
    for _ in range(100):
        vec = [rng.randint(-12, 12) for _ in range(rng.randint(1, 6))]
        if not any(vec):
            continue
        assert list(_primitive(vec)) == primitive_integer_vector(list(map(Fraction, vec)))


# ---------------------------------------------------------------------------
# row space sum and intersection


def test_row_intersection_examples():
    assert sum_intersection_dims(DRAG_A, DRAG_J) == (4, 0)
    assert sum_intersection_dims(DRAG_A, DRAG_A) == (3, rank(DRAG_A))
    assert sum_intersection_dims(
        RatMatrix.from_rows([[1, 0]]), RatMatrix.from_rows([[0, 1]])
    ) == (2, 0)
    # a constraint row that repeats a row of A
    assert sum_intersection_dims(DRAG_A, RatMatrix.from_rows([DRAG_A.row(0)])) == (3, 1)
    assert sum_intersection_dims(RatMatrix.zero(0, 3), RatMatrix.identity(3)) == (3, 0)


def test_row_intersection_shape_check():
    with pytest.raises(ShapeError):
        sum_intersection_dims(RatMatrix.zero(1, 2), RatMatrix.zero(1, 3))


def test_row_intersection_nonnegative_random():
    # Zassenhaus against the rank form of the Grassmann dimension formula
    rng = random.Random(1107)
    for _ in range(100):
        cols = rng.randint(1, 5)
        a = random_int_matrix(rng, rng.randint(0, 3), cols, -2, 2)
        b = random_int_matrix(rng, rng.randint(0, 3), cols, -2, 2)
        total, meet = sum_intersection_dims(a, b)
        assert total == rank(a.vstack(b))
        assert meet == rank(a) + rank(b) - total >= 0


def test_sum_intersection_dims_matches_textbook_oracle():
    rng = random.Random(1111)
    for n, a_rows, b_rows, bound in ((3, 2, 2, 2), (8, 3, 4, 3), (12, 4, 2, 4), (24, 6, 4, 5)):
        for _ in range(3):
            a = random_rational_rows(rng, a_rows, n, bound)
            b = random_rational_rows(rng, b_rows, n, bound)
            ranks = [len(textbook_rref(rows, n)[1]) for rows in (a, b, a + b)]
            dims = sum_intersection_dims(
                RatMatrix.from_rows(a, cols=n), RatMatrix.from_rows(b, cols=n)
            )
            assert dims == (ranks[2], ranks[0] + ranks[1] - ranks[2])


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("pointwise", [False, True], ids=["invariant", "pointwise"])
def test_sum_intersection_dims_matches_textbook_oracle_on_generated_pairs(
    gen, n: int, pointwise: bool
):
    # The harness's A and J at m = ell = n/4. Their row spaces meet only in
    # zero; two more rows, A1 + A2 and 3 A3 + J1, make them meet in a plane.
    made = gen.make_model(random.Random(n), gen.Rung("drawn", n, n // 4, n // 4), 0, pointwise)
    model = parse_model(made.text)
    a = build_dimension_matrix(model)
    a_rows, j_rows = a.to_rows(), constraint_jacobian(model).to_rows()
    extra = [
        [x + y for x, y in zip(a_rows[0], a_rows[1])],
        [3 * x + y for x, y in zip(a_rows[2], j_rows[0])],
    ]
    a_rank = len(textbook_rref(a_rows, n)[1])
    for b_rows, meet in ((j_rows, 0), (j_rows + extra, 2)):
        ranks = [len(textbook_rref(rows, n)[1]) for rows in (b_rows, a_rows + b_rows)]
        dims = sum_intersection_dims(a, RatMatrix.from_rows(b_rows, cols=n))
        assert dims == (ranks[1], a_rank + ranks[0] - ranks[1])
        assert dims == (made.m + made.ell, meet)


# ---------------------------------------------------------------------------
# exact_pow


def test_exact_pow_integer_exponents():
    assert exact_pow(Fraction(2, 3), Fraction(3)) == Fraction(8, 27)
    assert exact_pow(Fraction(2, 3), Fraction(-2)) == Fraction(9, 4)
    assert exact_pow(Fraction(7), Fraction(0)) == 1


def test_exact_pow_roots():
    assert exact_pow(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert exact_pow(Fraction(8, 27), Fraction(-2, 3)) == Fraction(9, 4)
    assert exact_pow(Fraction(2), Fraction(1, 2)) is None
    assert exact_pow(Fraction(10**12), Fraction(1, 6)) == 100


def test_exact_pow_root_degree_at_the_bit_length_is_refused_at_once():
    # every integer root r >= 2 has r ** n >= 2 ** n > x once n >= bitlen(x)
    assert exact_pow(Fraction(2), Fraction(1, 10**12)) is None
    assert exact_pow(Fraction(1, 3), Fraction(-1, 10**12)) is None
    assert exact_pow(Fraction(2**40), Fraction(1, 41)) is None
    assert exact_pow(Fraction(2**40), Fraction(1, 40)) == 2
    assert exact_pow(Fraction(1, 2**40), Fraction(-3, 40)) == 8


def test_exact_pow_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        exact_pow(Fraction(0), Fraction(1, 2))


def test_exact_pow_integer_root_fuzz():
    for n in range(2, 6):
        for x in range(1, 2000):
            result = exact_pow(Fraction(x), Fraction(1, n))
            root = round(x ** (1.0 / n))
            if root ** n == x:
                assert result == root
            else:
                assert result is None
