"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Everything here is exact rational arithmetic; "tolerance" is equality.

The criteria: the drag-force worked example, with and without a repeating:
line;
on 500 random constrained models, the four printed d_eff forms agree and
equal d - rank C, with rank C by textbook_rref of the printed C;
unit-rescale invariance of every group on 200 random triples, rescaled and
evaluated by the plain Fraction helpers of tests/oracles.py; the exact
pi2/pi3 = 1 identity on 100 points of the drag constraint manifold;
elimination rank against minor enumeration on 200 random matrices; the
unconstrained degeneration d_eff = d; and parser round trips, error spans
and the byte-for-byte JSON golden file tests/golden/drag_report.json.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from pim.cli import CliConfig, run
from pim.model import (
    DimensionSystem,
    Model,
    Quantity,
    build_dimension_matrix,
    pi_basis,
)
from pim.modelfile import ErrorCode, ModelFileError, parse_model, render_model, render_report
from pim.ratlin import RatMatrix, nullspace_basis, rank
from pim.reduce import analyze

from oracles import (
    apply_rescale,
    evaluate_monomial,
    false_relations,
    minor_rank,
    model_from_matrices,
    random_int_matrix,
    random_invariant_jacobian,
    textbook_rref,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({description}): FAIL")
        raise
    else:
        print(f"criterion {num} ({description}): PASS")


def _drag_text(repo_root: Path) -> str:
    return (repo_root / "models" / "drag.pim").read_text(encoding="utf-8")


def _printed(report) -> dict:
    """The report as its JSON prints it."""
    return json.loads(render_report(report, "json"))


def test_criterion_1_drag_golden(repo_root: Path):
    with criterion(1, "drag-force golden, classical basis"):
        started = time.perf_counter()
        model = parse_model(_drag_text(repo_root))
        report = analyze(model)
        elapsed = time.perf_counter() - started
        assert report.d == 3
        assert report.scale_invariant is True
        assert report.C == RatMatrix.from_rows([[0, 1, -1]])
        assert report.d_eff == 2
        assert set(_printed(report)["d_eff_formulas"].values()) == {2}
        assert len(report.relations) == 1
        relation = report.relations[0]
        assert relation.pi_exponents == (0, 1, -1)  # pi2 / pi3 = const
        assert relation.constant == 1
        assert elapsed < 1.0


def test_criterion_2_drag_auto_basis(repo_root: Path):
    with criterion(2, "drag-force without repeating quantities"):
        lines = [
            line
            for line in _drag_text(repo_root).splitlines()
            if not line.startswith("repeating:")
        ]
        model = parse_model("\n".join(lines) + "\n")
        assert model.repeating == ()
        report = analyze(model)
        assert report.d_eff == 2
        assert rank(report.C) == 1
        assert len(report.relations) == 1
        row = report.relations[0].coeffs
        expanded = (report.E @ RatMatrix.from_columns([row])).transpose()
        assert rank(report.J.vstack(expanded)) == rank(report.J)


def _criterion_3_cases(seed: int):
    rng = random.Random(seed)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 8)
        a = random_int_matrix(rng, m, n, -2, 2)
        e = nullspace_basis(a)
        j = random_invariant_jacobian(rng, e, rng.randint(0, 3))
        yield a, e, j


def test_criterion_3_formula_agreement():
    with criterion(3, "formula agreement, true relations, 500 random constrained models"):
        for a, e, j in _criterion_3_cases(40301):
            model = model_from_matrices(a, j)
            report = analyze(model)
            assert false_relations(model, report) == []
            # the four printed forms, and rank C by textbook_rref of the printed C
            printed = _printed(report)
            rank_c = len(textbook_rref(printed["C"], e.cols)[1])
            assert set(printed["d_eff_formulas"].values()) == {e.cols - rank_c}


def test_criterion_4_rescale_invariance():
    with criterion(4, "unit-rescale invariance on 200 random triples"):
        rng = random.Random(40401)
        counted = 0
        while counted < 200:
            m_dims = rng.randint(1, 3)
            n = rng.randint(2, 6)
            dims = DimensionSystem(tuple(f"D{i}" for i in range(m_dims)))
            quantities = tuple(
                Quantity(f"x{j}", tuple(rng.randint(-2, 2) for _ in range(m_dims)))
                for j in range(n)
            )
            model = Model(dims, quantities)
            a = build_dimension_matrix(model)
            _, groups = pi_basis(model, a)
            if not groups:
                continue
            values = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)
            )
            scales = tuple(
                Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(m_dims)
            )
            rescaled = apply_rescale(model, values, scales)
            for g in groups:
                before = evaluate_monomial(values, g)
                after = evaluate_monomial(rescaled, g)
                assert before == after
            counted += 1


def test_criterion_5_manifold_relation(repo_root: Path):
    with criterion(5, "pi2/pi3 = 1 on 100 points of the drag manifold"):
        model = parse_model(_drag_text(repo_root))
        report = analyze(model)
        rng = random.Random(40501)
        for _ in range(100):
            rho = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            mu = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            values = (
                Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                rho,
                Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                mu,
                mu / rho,
            )
            pi = [evaluate_monomial(values, g) for g in zip(*report.E.nums)]
            assert pi[1] / pi[2] == 1


def test_criterion_6_rank_oracle():
    with criterion(6, "elimination rank vs minor enumeration, 200 matrices"):
        rng = random.Random(40601)
        for _ in range(200):
            m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
            assert rank(m) == minor_rank(m)


def test_criterion_7_degeneration():
    with criterion(7, "no constraints degenerates to the plain group count"):
        for a, e, _ in _criterion_3_cases(40301):
            empty = RatMatrix.zero(0, a.cols)
            report = analyze(model_from_matrices(a, empty))
            assert report.d_eff == e.cols
            assert set(_printed(report)["d_eff_formulas"].values()) == {e.cols}


MALFORMED = [
    (
        "dimensions: M, L, T\nquantity x = Q^2\n",
        ErrorCode.UNKNOWN_DIMENSION,
        (2, 14, 1),
    ),
    (
        "dimensions: M\nquantity x = M\nconstraint x * y = 1\n",
        ErrorCode.UNKNOWN_QUANTITY,
        (3, 16, 1),
    ),
    (
        "dimensions: M\nquantity p = M\nquantity p = M\n",
        ErrorCode.DUPLICATE_NAME,
        (3, 10, 1),
    ),
    (
        "dimensions: M, L\nquantity p = M L^1.5\n",
        ErrorCode.BAD_EXPONENT,
        (2, 18, 3),
    ),
    (
        "dimensions: M\nquantity rho = M\nconstraint rho = -3\n",
        ErrorCode.BAD_CONSTANT,
        (3, 18, 2),
    ),
]


def test_criterion_8_parser(repo_root: Path):
    with criterion(8, "parser round trip, error spans, JSON golden"):
        text = _drag_text(repo_root)
        model = parse_model(text)
        assert parse_model(render_model(model)) == model

        for source, code, (line, col, length) in MALFORMED:
            try:
                parse_model(source)
            except ModelFileError as exc:
                errors = [e for e in exc.errors if e.code is code]
                assert errors, f"expected {code} in {exc.errors}"
                span = errors[0].span
                assert span.line == line
                # the span must point inside the offending token
                assert col <= span.column < col + length
                assert (span.column, span.length) == (col, length)
            else:
                raise AssertionError(f"{code}: no error raised")

        golden = (repo_root / "tests" / "golden" / "drag_report.json").read_text(
            encoding="utf-8"
        )
        config = CliConfig(command="analyze", input_path="models/drag.pim", format="json")
        exit_code, out, _ = run(config, text)
        assert exit_code == 0
        assert out == golden
