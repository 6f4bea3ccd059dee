"""Seeded generator of `.pim` models with known answers.

Nothing here imports `pim`, so a change to the engine cannot change the
inputs. Each model is built so that its answers follow from construction:

* ``A = U @ [I | R]`` with a unimodular integer ``U``, then a random column
  permutation. ``A`` has full row rank ``m`` and the kernel basis
  ``K = [-R; I]`` (rows permuted alike), so ``d = n - m``.
* Scale-invariant constraints are monomials with exponent rows
  ``J = G @ K^T`` for an integer ``G`` of full row rank ``ell``. Then
  ``J @ A^T = 0`` and ``d_eff = d - rank G = d - ell``. Their constants are
  1 in the ladder; :func:`constant_probe` draws random positive rationals.
* Pointwise constraints are ``jacobian_row`` lines ``J = G @ K^T + H @ A``
  with ``H != 0``. Then ``J @ A^T = H @ A @ A^T != 0`` (``A @ A^T`` is
  invertible), and still ``d_eff = n - rank [A; J] = d - ell``, because
  the row space of ``A`` meets the column space of ``K`` only in zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ENTRY_BOUND = 4  # largest |entry| of A, like the exponents of physical units
# Entries of R and of G and H. Wider entries (R in [-3, 3], or G in [-2, 2])
# give relation exponents so large that with random constants single ops run
# for minutes.
R_ENTRIES = (-2, -1, 0, 1, 2)
G_ENTRIES = (-1, 0, 1)


@dataclass(frozen=True)
class Rung:
    name: str
    n: int
    m: int
    ell: int


# The ladder proper, plus one stress rung with as many constraints as
# dimensions. Rungs stop at n = 24: at n = 28, ell = 8 a single relation
# constant can take minutes to evaluate.
STRESS = Rung("stress", 20, 6, 6)
RUNGS = (
    Rung("n8", 8, 3, 2),
    Rung("n12", 12, 4, 2),
    Rung("n16", 16, 4, 3),
    Rung("n20", 20, 5, 3),
    Rung("n24", 24, 6, 4),
    STRESS,
)
# One round of the ladder: every rung once and the stress rung twice. Op
# times roughly double from rung to rung, so with six equal parts the pooled
# median would fall in the gap between the third and fourth rung and jump by
# 10-20% between seeds; with seven it falls inside the n20 rung.
ROUND = RUNGS + RUNGS[-1:]


@dataclass(frozen=True)
class GeneratedModel:
    rung: str
    index: int
    text: str
    n: int
    m: int
    ell: int
    d: int
    d_eff: int
    scale_invariant: bool


def rational_rank(rows: list[list[int]]) -> int:
    """Exact rank by fraction Gauss elimination (small inputs only)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        hit = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        piv = mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / piv[col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], piv)]
        rank += 1
    return rank


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodular(rng: random.Random, m: int) -> list[list[int]]:
    """Random integer matrix with determinant +-1 and entries within bound."""
    while True:
        u = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(2 * m):
            i, j = rng.sample(range(m), 2)
            s = rng.choice((-1, 1))
            u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        rng.shuffle(u)
        if all(abs(x) <= ENTRY_BOUND for row in u for x in row):
            return u


def _full_row_rank(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    while True:
        g = [[rng.choice(G_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        if rational_rank(g) == rows:
            return g


def _dimexpr(exps: list[int]) -> str:
    parts = [f"D{i + 1}" if e == 1 else f"D{i + 1}^{e}" for i, e in enumerate(exps) if e]
    return " ".join(parts) if parts else "1"


def _monomial(exps: list[int]) -> str:
    return " * ".join(f"q{j + 1}" if e == 1 else f"q{j + 1}^{e}" for j, e in enumerate(exps) if e)


def make_model(
    rng: random.Random, rung: Rung, index: int, pointwise: bool, constants: bool = False
) -> GeneratedModel:
    """One model of `rung`; monomial constraints get random positive
    rational constants if `constants`, else 1."""
    n, m, ell = rung.n, rung.m, rung.ell
    d = n - m
    u = _unimodular(rng, m)
    # Columns of U @ R, each redrawn until its entries stay within bound.
    r_cols: list[list[int]] = []
    ur_cols: list[list[int]] = []
    while len(r_cols) < d:
        col = [rng.choice(R_ENTRIES) for _ in range(m)]
        image = [sum(a * b for a, b in zip(row, col)) for row in u]
        if all(abs(x) <= ENTRY_BOUND for x in image):
            r_cols.append(col)
            ur_cols.append(image)
    a0_cols = [[row[i] for row in u] for i in range(m)] + ur_cols  # n columns
    # K0 = [-R; I]: kernel vector k has -R[:, k] on the first m coordinates.
    k0_rows = [[-r_cols[k][i] for k in range(d)] for i in range(m)]
    k0_rows += [[int(i == k) for k in range(d)] for i in range(d)]
    perm = list(range(n))
    rng.shuffle(perm)
    a_cols = [a0_cols[p] for p in perm]
    a_rows = [[col[i] for col in a_cols] for i in range(m)]
    k_rows = [k0_rows[p] for p in perm]  # n x d
    g = _full_row_rank(rng, ell, d)
    j_rows = _matmul(g, [list(c) for c in zip(*k_rows)])
    lines = [
        f"# generated: rung {rung.name} model {index}",
        "dimensions: " + ", ".join(f"D{i + 1}" for i in range(m)),
    ]
    lines += [f"quantity q{j + 1} = {_dimexpr(col)}" for j, col in enumerate(a_cols)]
    if pointwise:
        h = [[0] * m]
        while not any(x for row in h for x in row):
            h = [[rng.choice(G_ENTRIES) for _ in range(m)] for _ in range(ell)]
        ha = _matmul(h, a_rows)
        j_rows = [[x + y for x, y in zip(jr, hr)] for jr, hr in zip(j_rows, ha)]
        lines += ["jacobian_row: " + ", ".join(map(str, row)) for row in j_rows]
    else:
        for row in j_rows:
            const = Fraction(rng.randint(1, 9), rng.randint(1, 9)) if constants else Fraction(1)
            lines.append(f"constraint {_monomial(row)} = {const}")
    return GeneratedModel(
        rung=rung.name,
        index=index,
        text="\n".join(lines) + "\n",
        n=n,
        m=m,
        ell=ell,
        d=d,
        d_eff=d - ell,
        scale_invariant=not pointwise,
    )


def ladder(seed: int, rounds: int, pointwise: bool) -> list[GeneratedModel]:
    """`rounds` rounds of models, one round after another."""
    rng = random.Random(f"{'pointwise' if pointwise else 'invariant'}:{seed}")
    made: dict[str, int] = {}
    models = []
    for _ in range(rounds):
        for rung in ROUND:
            index = made.get(rung.name, 0)
            made[rung.name] = index + 1
            models.append(make_model(rng, rung, index, pointwise))
    return models


def constant_probe(seed: int, count: int, rung: Rung = STRESS) -> list[GeneratedModel]:
    """`count` scale-invariant models of `rung` with random positive rational
    constants. Their relation constants are powers of those constants with
    the relation exponents, and on the stress rung they can exceed
    CPython's 4300-digit int-to-str limit."""
    rng = random.Random(f"constants:{seed}")
    return [make_model(rng, rung, index, pointwise=False, constants=True) for index in range(count)]
