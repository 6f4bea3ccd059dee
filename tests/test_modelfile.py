"""pim.modelfile: the .pim parser, its error codes and spans, the one-regex
readers against the term readers of pim._terms, render_model round trips,
and the text and JSON reports, the JSON byte for byte json.dumps(indent=2)
of its payload.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pim import _terms
from pim._jsonwriter import report_json
from pim._terms import _dimexpr_terms, _monomial_terms
from pim.model import MAX_DIGITS, DimensionSystem, Model, ModelError, Quantity
from pim.modelfile import (
    ErrorCode,
    ModelFileError,
    _constraint_entry,
    _dimexpr,
    _Errors,
    _matrix_cells,
    _monomial,
    _report_payload,
    parse_dimexpr,
    parse_model,
    parse_monomial,
    render_model,
    render_report,
)
from pim.ratlin import RatMatrix
from pim.reduce import AnalysisReport, JacobianRowConstraint, MonomialConstraint, analyze

import test_report_digests
from oracles import drag_model


def _parse_errors(text: str):
    with pytest.raises(ModelFileError) as excinfo:
        parse_model(text)
    return excinfo.value.errors


# ---------------------------------------------------------------------------
# successful parses


def test_parse_drag_model(drag_text):
    model = parse_model(drag_text)
    assert model == drag_model()
    assert model.repeating == ("rho", "U", "L")


def test_parse_dimensionless_quantity():
    model = parse_model("dimensions: M\nquantity x = 1\n")
    assert model.quantities[0].dim_exponents == (0,)


def test_parse_constraint_forward_reference():
    text = (
        "dimensions: M\n"
        "constraint a / b = 2\n"
        "quantity a = M\n"
        "quantity b = M\n"
    )
    model = parse_model(text)
    assert model.constraints[0] == MonomialConstraint((1, -1), Fraction(2))


def test_parse_jacobian_row_and_order():
    text = (
        "dimensions: M\n"
        "quantity a = M\n"
        "quantity b = M\n"
        "constraint a / b = 1\n"
        "jacobian_row: 1, 0\n"
    )
    model = parse_model(text)
    assert model.constraints == (
        MonomialConstraint((1, -1), Fraction(1)),
        JacobianRowConstraint((1, 0)),
    )


def test_parse_comments_and_blank_lines():
    text = (
        "# heading comment\n"
        "\n"
        "dimensions: M  # trailing\n"
        "quantity a = M # mass-like\n"
    )
    model = parse_model(text)
    assert model.quantity_names == ("a",)


@pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_cr_and_lf_end_a_line(mark: str):
    text = f"dimensions: M\nquantity a = M # note{mark}quantity b = Q\nquantity c = Z\n"
    errors = _parse_errors(text)
    assert [(e.span.line, e.span.column, e.message) for e in errors] == [
        (3, 14, "unknown dimension 'Z'")
    ]
    text = f"dimensions: M\nquantity a = M{mark}quantity b = M\nconstraint a / b = 2\n"
    assert _parse_errors(text)[0].span.line == 2


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_read_as_lf(drag_text, newline: str):
    assert parse_model(drag_text.replace("\n", newline)) == parse_model(drag_text)
    text = "dimensions: M\n\nquantity a = M\nquantity b = Q\n"
    located = [(e.span.line, e.span.column) for e in _parse_errors(text)]
    assert located == [(4, 14)]
    crlf = text.replace("\n", newline)
    assert [(e.span.line, e.span.column) for e in _parse_errors(crlf)] == located


def test_parse_reads_a_directive_after_lines_with_none():
    # A basis_override: line starts with no directive, and so does each row
    # under it; the next directive line is read as usual.
    text = (
        "dimensions: M\n"
        "quantity a = M\n"
        "quantity b = M\n"
        "basis_override:\n"
        "1, -1\n"
        "constraint a / b = 1\n"
        "repeating: a\n"
    )
    errors = _parse_errors(text)
    assert [(e.code, e.span.line, e.span.column, e.span.length, e.message) for e in errors] == [
        (ErrorCode.SYNTAX, 4, 1, len("basis_override:"), _EXPECTED_KEYWORD),
        (ErrorCode.SYNTAX, 5, 1, 2, _EXPECTED_KEYWORD),
    ]
    model = parse_model(text.replace("basis_override:\n1, -1\n", ""))
    assert (len(model.constraints), model.repeating) == (1, ("a",))


_EXPECTED_KEYWORD = "expected one of: dimensions:, quantity, constraint, jacobian_row:, repeating:"


@pytest.mark.parametrize("line, expected", [
    ("repeating: z", [(ErrorCode.UNKNOWN_QUANTITY, 4, 12, 1, "unknown quantity 'z'")]),
    ("repeating: a, b, a",
     [(ErrorCode.DUPLICATE_NAME, 4, 18, 1, "duplicate repeating quantity 'a'")]),
    ("repeating: a\n  repeating: b",
     [(ErrorCode.DUPLICATE_NAME, 5, 3, len("repeating"), "duplicate repeating declaration")]),
    ("repeating:", [(ErrorCode.SYNTAX, 4, 11, 1, "expected a quantity name, got ''")]),
    ("repeating:  \t", [(ErrorCode.SYNTAX, 4, 14, 1, "expected a quantity name, got ''")]),
    ("repeating: a, ", [(ErrorCode.SYNTAX, 4, 15, 1, "expected a quantity name, got ''")]),
    ("repeating: a b", [(ErrorCode.SYNTAX, 4, 12, 3, "expected a quantity name, got 'a b'")]),
    ("basis_override:",
     [(ErrorCode.SYNTAX, 4, 1, len("basis_override:"), _EXPECTED_KEYWORD)]),
    ("  basis_override: 1, 0",
     [(ErrorCode.SYNTAX, 4, 3, len("basis_override:"), _EXPECTED_KEYWORD)]),
], ids=[
    "unknown", "repeated", "second-line", "empty", "blank", "trailing-comma", "not-a-name",
    "basis-override", "basis-override-with-text",
])
def test_repeating_refusals_point_at_their_token(line: str, expected: list):
    assert _errors_of(line) == expected


# ---------------------------------------------------------------------------
# dimension expressions


def test_parse_dimexpr_examples():
    dims = DimensionSystem(("M", "L", "T"))
    assert parse_dimexpr("M L T^-2", dims) == (1, 1, -2)
    assert parse_dimexpr("1", dims) == (0, 0, 0)
    assert parse_dimexpr("L^1/2 L^1/2", dims) == (0, 1, 0)


def test_parse_dimexpr_unknown_dimension():
    dims = DimensionSystem(("M",))
    with pytest.raises(ModelFileError) as excinfo:
        parse_dimexpr("Q^2", dims)
    err = excinfo.value.errors[0]
    assert err.code is ErrorCode.UNKNOWN_DIMENSION
    assert (err.span.line, err.span.column, err.span.length) == (1, 1, 1)


# ---------------------------------------------------------------------------
# error codes and spans


def test_error_unknown_dimension_span():
    errors = _parse_errors("dimensions: M, L, T\nquantity x = Q^2\n")
    assert len(errors) == 1
    err = errors[0]
    assert err.code is ErrorCode.UNKNOWN_DIMENSION
    assert (err.span.line, err.span.column, err.span.length) == (2, 14, 1)


def test_error_unknown_quantity_span():
    errors = _parse_errors("dimensions: M\nquantity x = M\nconstraint x * y = 1\n")
    assert len(errors) == 1
    err = errors[0]
    assert err.code is ErrorCode.UNKNOWN_QUANTITY
    assert (err.span.line, err.span.column, err.span.length) == (3, 16, 1)


def test_error_duplicate_quantity_span():
    errors = _parse_errors("dimensions: M\nquantity p = M\nquantity p = M\n")
    assert len(errors) == 1
    err = errors[0]
    assert err.code is ErrorCode.DUPLICATE_NAME
    assert (err.span.line, err.span.column, err.span.length) == (3, 10, 1)


def test_error_duplicate_dimension_span():
    errors = _parse_errors("dimensions: M, M\nquantity p = M\n")
    err = errors[0]
    assert err.code is ErrorCode.DUPLICATE_NAME
    assert (err.span.line, err.span.column) == (1, 16)


def test_error_bad_exponent_span():
    errors = _parse_errors("dimensions: M, L\nquantity p = M L^1.5\n")
    assert len(errors) == 1
    err = errors[0]
    assert err.code is ErrorCode.BAD_EXPONENT
    assert (err.span.line, err.span.column, err.span.length) == (2, 18, 3)


def test_error_bad_constant_span():
    errors = _parse_errors("dimensions: M\nquantity rho = M\nconstraint rho = -3\n")
    assert len(errors) == 1
    err = errors[0]
    assert err.code is ErrorCode.BAD_CONSTANT
    assert (err.span.line, err.span.column, err.span.length) == (3, 18, 2)


def test_error_zero_constant():
    errors = _parse_errors("dimensions: M\nquantity rho = M\nconstraint rho = 0\n")
    assert errors[0].code is ErrorCode.BAD_CONSTANT


def test_error_syntax_unrecognized_line():
    errors = _parse_errors("dimensions: M\nquantum x = M\n")
    err = errors[0]
    assert err.code is ErrorCode.SYNTAX
    assert (err.span.line, err.span.column) == (2, 1)


def test_error_missing_dimensions():
    errors = _parse_errors("quantity x = M\n")
    codes = {e.code for e in errors}
    assert ErrorCode.SYNTAX in codes


def test_error_jacobian_row_length():
    errors = _parse_errors(
        "dimensions: M\nquantity a = M\nquantity b = M\njacobian_row: 1, 2, 3\n"
    )
    err = errors[0]
    assert err.code is ErrorCode.SYNTAX
    assert "expected 2" in err.message
    assert err.span.line == 4


def test_error_trivial_constraint():
    errors = _parse_errors("dimensions: M\nquantity a = M\nconstraint a / a = 1\n")
    err = errors[0]
    assert err.code is ErrorCode.SYNTAX
    assert "trivial" in err.message


def test_error_bad_monomial_exponent():
    errors = _parse_errors("dimensions: M\nquantity a = M\nconstraint a^x = 1\n")
    assert errors[0].code is ErrorCode.BAD_EXPONENT


def _errors_of(line: str):
    """Errors of `line` as line 4 of a model with quantities `a` and `b`."""
    errors = _parse_errors(f"dimensions: M\nquantity a = M\nquantity b = M\n{line}\n")
    return [(e.code, e.span.line, e.span.column, e.span.length, e.message) for e in errors]


def test_error_zero_denominator_exponent():
    message = "rational '1/0' has a zero denominator"
    assert _errors_of("quantity c = M^1/0") == [
        (ErrorCode.BAD_EXPONENT, 4, 16, 3, message)
    ]
    assert _errors_of("constraint a^1/0 = 2") == [
        (ErrorCode.BAD_EXPONENT, 4, 14, 3, message)
    ]


def test_error_zero_denominator_constant():
    assert _errors_of("constraint a / b = 1/0") == [
        (ErrorCode.BAD_CONSTANT, 4, 20, 3, "rational '1/0' has a zero denominator")
    ]


@pytest.mark.parametrize("line, code, column, message", [
    ("quantity c = M^\u0663", ErrorCode.BAD_EXPONENT, 16,
     "bad exponent '\u0663': expected a rational like -2 or 1/2"),
    ("constraint a / b^\uff13 = 2", ErrorCode.BAD_EXPONENT, 18,
     "bad exponent: expected a rational like -2 or 1/2"),
    ("constraint a / b = \uff13", ErrorCode.BAD_CONSTANT, 20,
     "expected a positive rational constant, got '\uff13'"),
])
def test_only_ascii_digits_make_a_number(line: str, code: ErrorCode, column: int, message: str):
    # Arabic-Indic and fullwidth digits read like any other non-number text
    assert _errors_of(line) == [(code, 4, column, 1, message)]


@pytest.mark.parametrize("indent", ["", "  "])
def test_error_no_dimensions_points_at_the_keyword(indent: str):
    errors = _parse_errors(f"# c\n\n{indent}dimensions: 1, 2\n")
    assert [(e.span.line, e.span.column, e.span.length, e.message) for e in errors][-1] == (
        3, len(indent) + 1, len("dimensions"), "dimension system declares no dimensions"
    )


@pytest.mark.parametrize("indent", ["", "  "])
def test_error_duplicate_declaration_points_at_the_keyword(indent: str):
    errors = _parse_errors(f"dimensions: M\n{indent}dimensions: L\nquantity a = M\n")
    assert [(e.span.line, e.span.column, e.span.length, e.message) for e in errors] == [
        (2, len(indent) + 1, len("dimensions"), "duplicate dimensions declaration")
    ]
    errors = _parse_errors(
        f"dimensions: M\nquantity a = M\nrepeating: a\n{indent}repeating: a\n"
        "   repeating: a\n"
    )
    assert [(e.span.line, e.span.column, e.span.length, e.message) for e in errors] == [
        (4, len(indent) + 1, len("repeating"), "duplicate repeating declaration"),
        (5, 4, len("repeating"), "duplicate repeating declaration"),
    ]


@pytest.mark.parametrize("first, second", [
    ("", "dimensions: L, 1"),
    ("repeating: a\n", "repeating: z, 1"),
], ids=["dimensions", "repeating"])
def test_a_second_once_only_line_is_one_duplicate_name_error(first: str, second: str):
    # Only the first line is read: 'quantity a = M' resolves against the
    # first dimensions line, and neither the '1' nor the unknown 'z' of the
    # second line is reported.
    keyword = second.split(":")[0]
    assert _errors_of(f"{first}  {second}") == [(
        ErrorCode.DUPLICATE_NAME, 4 + first.count("\n"), 3, len(keyword),
        f"duplicate {keyword} declaration",
    )]
    model = parse_model(f"dimensions: M\nquantity a = M\nquantity b = M\n{first}")
    assert (model.dims.names, model.repeating) == (("M",), ("a",) if first else ())


@pytest.mark.parametrize("line, code, column", [
    ("jacobian_row: 1, {}", ErrorCode.SYNTAX, 18),
    ("constraint a / b = {}", ErrorCode.BAD_CONSTANT, 20),
])
def test_error_long_digit_run_in_a_non_number_gives_its_digit_count(
    line: str, code: ErrorCode, column: int
):
    # the token is not echoed, as for a dimension exponent
    token = "7" * 5000 + "x"
    ((got_code, _, got_column, length, message),) = _errors_of(line.format(token))
    assert (got_code, got_column, length) == (code, column, len(token))
    assert message == "number has 5000 digits, more than the 4300 allowed"


def _dimexpr_errors(text: str):
    with pytest.raises(ModelFileError) as excinfo:
        parse_dimexpr(text, DimensionSystem(("M",)))
    return excinfo.value.errors


_A = "dimensions: M\nquantity a = M\n"


@pytest.mark.parametrize("parse, text, expected", [
    (_parse_errors, _A + "constraint a b = 1\n", [(3, 14, "unexpected 'b' after monomial")]),
    (_parse_errors, _A + "constraint * a = 1\n", [(3, 12, "expected a quantity name, got '*'")]),
    (_parse_errors, "dimensions: M\nquantity a = M 1\n",
     [(2, 16, "'1' must stand alone as a dimension expression")]),
    (_parse_errors, "dimensions M\nquantity a = M\n",
     [(1, 12, "expected ':' after 'dimensions'"), (1, 1, "missing dimensions declaration")]),
    (_parse_errors, _A + "constraint a 1\n", [(3, 15, "expected '=' in constraint")]),
    (_parse_errors, _A + "basis_override: x\n", [(3, 1, _EXPECTED_KEYWORD)]),
    (_parse_errors, _A + "quantity b = M\nbasis_override:\n1\n",
     [(4, 1, _EXPECTED_KEYWORD), (5, 1, _EXPECTED_KEYWORD)]),
    (_dimexpr_errors, "", [(1, 1, "expected a dimension expression")]),
], ids=[
    "after-monomial", "no-quantity-name", "one-not-alone", "no-colon", "no-equals",
    "text-after-basis-header", "short-basis-vector", "empty-dimexpr",
])
def test_syntax_error_diagnostics(parse, text: str, expected: list):
    errors = parse(text)
    assert [(e.code, e.span.line, e.span.column, e.message) for e in errors] == [
        (ErrorCode.SYNTAX, *error) for error in expected
    ]


def test_multiple_errors_collected():
    text = (
        "dimensions: M, M\n"
        "quantity x = Q\n"
        "quantity x = M\n"
        "constraint x = -1\n"
        "nonsense\n"
    )
    errors = _parse_errors(text)
    codes = [e.code for e in errors]
    assert ErrorCode.DUPLICATE_NAME in codes
    assert ErrorCode.UNKNOWN_DIMENSION in codes
    assert ErrorCode.BAD_CONSTANT in codes
    assert ErrorCode.SYNTAX in codes
    assert len(errors) >= 4


def test_error_string_form():
    errors = _parse_errors("dimensions: M\nquantity x = Q\n")
    text = str(errors[0])
    assert "2:14" in text and "unknown-dimension" in text


# ---------------------------------------------------------------------------
# monomials


def test_parse_monomial_with_parens():
    names = ("F_D", "rho", "U", "L", "mu", "nu")
    assert parse_monomial("F_D/(rho*U^2*L^2)", names) == (1, -1, -2, -2, 0, 0)
    assert parse_monomial("(rho*U*L)/mu", names) == (0, 1, 1, 1, -1, 0)
    assert parse_monomial("rho * nu / mu", names) == (0, 1, 0, 0, -1, 1)


def test_parse_monomial_nested_division():
    names = ("a", "b", "c")
    assert parse_monomial("a / (b / c)", names) == (1, -1, 1)
    assert parse_monomial("a / b / c", names) == (1, -1, -1)


def test_parse_monomial_nests_to_any_depth():
    names = ("a", "b")
    assert parse_monomial("(" * 5000 + "a / b" + ")" * 5000, names) == (1, -1)
    assert parse_monomial("a / " + "(" * 5000 + "b / a" + ")" * 5000, names) == (2, -1)
    model = parse_model(
        "dimensions: M\nquantity a = M\nquantity b = M\n"
        f"constraint {'(' * 5000}a / b{')' * 5000} = 2\n"
    )
    assert model.constraints == (MonomialConstraint((1, -1), Fraction(2)),)
    with pytest.raises(ModelFileError) as excinfo:
        parse_monomial("(" * 5000 + "a / b" + ")" * 4999, names)
    err = excinfo.value.errors[0]
    assert (err.code, err.span.column, err.message) == (ErrorCode.SYNTAX, 10005, "missing ')'")


def test_parse_monomial_missing_paren():
    names = ("a", "b")
    with pytest.raises(ModelFileError) as excinfo:
        parse_monomial("(a * b", names)
    assert excinfo.value.errors[0].code is ErrorCode.SYNTAX


# ---------------------------------------------------------------------------
# whole-expression reads against the term readers

_NAMES = ("a", "b", "rho", "F_D", "x1")
# Exponents that the whole-expression read takes: none, or whole with at
# most MAX_DIGITS characters, leading zeros and -0 included.
_WHOLE = (
    "", "", "^2", "^-1", "^0", "^-0", "^007", "^-0003",
    "^" + "9" * 18, "^-" + "9" * 18, "^" + "9" * 19, "^-" + "1" * 19, "^" + "7" * MAX_DIGITS,
)
# Valid exponents that only the term reader takes.
_OTHER = ("^1/2", "^-3/4", "^10/05", "^-" + "7" * MAX_DIGITS)
_READERS = {"dimexpr": (_dimexpr, _dimexpr_terms), "monomial": (_monomial, _monomial_terms)}
_SPACES = (" ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000")


def _space(rng: random.Random, least: int) -> str:
    return "".join(rng.choices(_SPACES, k=rng.randint(least, 2)))


def _both_reads(monkeypatch, kind: str, text: str) -> tuple:
    """(exponents, errors) of the whole-expression read and of the term
    reader, and whether the whole-expression read called the term reader."""
    read, terms = _READERS[kind]
    end = () if kind == "dimexpr" else (len(text),)
    index = {name: i for i, name in enumerate(_NAMES)}
    calls = []

    def recorded(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(_terms, terms.__name__, recorded)
    whole, term = _Errors(), _Errors()
    got = (read(whole, text, 0, *end, index), list(whole))
    assert got == (terms(term, text, 0, *end, index), list(term)), repr(text)
    return got, bool(calls)


@pytest.mark.parametrize("kind, text, plain, exponents", [
    ("monomial", "x1^1/b", True, [0, -1, 0, 0, 1]),
    ("monomial", "x1^1/2", False, [0, 0, 0, 0, Fraction(1, 2)]),
    ("monomial", "a^-0 / a^007*a", True, [-6, 0, 0, 0, 0]),
    ("dimexpr", "a\xa0a^-0\x0ba^007\u2028", True, [8, 0, 0, 0, 0]),
    ("dimexpr", "b^1/2 b", False, [0, Fraction(3, 2), 0, 0, 0]),
    ("dimexpr", "1", True, [0, 0, 0, 0, 0]),
    ("dimexpr", "".join(_SPACES) + "1" + "".join(_SPACES), True, [0, 0, 0, 0, 0]),
])
def test_whole_expression_reads_of_some_expressions(monkeypatch, kind, text, plain, exponents):
    (got, errors), fell_back = _both_reads(monkeypatch, kind, text)
    assert (got, errors, fell_back) == (exponents, [], not plain)


def test_whole_expression_reads_match_the_term_readers(monkeypatch):
    rng = random.Random(1979)
    for _ in range(3000):
        exps = [rng.choice(_WHOLE + _OTHER) for _ in range(rng.randint(1, 6))]
        terms = [rng.choice(_NAMES) + exp for exp in exps]  # names repeat
        dimexpr = _space(rng, 0) + "".join(term + _space(rng, 1) for term in terms)
        monomial = _space(rng, 0) + terms[0] + "".join(
            _space(rng, 0) + rng.choice("*/") + _space(rng, 0) + term for term in terms[1:]
        ) + _space(rng, 0)
        parens = len(terms) > 1 and rng.random() < 0.2
        if parens:  # a parenthesized monomial is read by the term reader
            cut = monomial.index(terms[1], len(terms[0]))
            monomial = f"{monomial[:cut]}({monomial[cut:]})"
        whole = all(exp in _WHOLE for exp in exps)
        for kind, text, plain in (("dimexpr", dimexpr, whole),
                                  ("monomial", monomial, whole and not parens)):
            (exponents, errors), fell_back = _both_reads(monkeypatch, kind, text)
            assert exponents is not None and not errors, repr(text)
            assert fell_back is not plain, repr(text)


@pytest.mark.parametrize("kind, text, message", [
    ("dimexpr", "x1 ^2", "expected a dimension name, got '^2'"),
    ("monomial", "x1 ^2", "unexpected '^2' after monomial"),
    ("monomial", "a b", "unexpected 'b' after monomial"),
    ("monomial", "a^1/2b", "unexpected 'b' after monomial"),
    ("dimexpr", "a zz", "unknown dimension 'zz'"),
    ("monomial", "a * zz", "unknown quantity 'zz'"),
    ("dimexpr", "a^" + "7" * (MAX_DIGITS + 1),
     f"number has {MAX_DIGITS + 1} digits, more than the {MAX_DIGITS} allowed"),
    ("monomial", "a / b^" + "7" * (MAX_DIGITS + 1),
     f"number has {MAX_DIGITS + 1} digits, more than the {MAX_DIGITS} allowed"),
    ("monomial", "a^x", "bad exponent: expected a rational like -2 or 1/2"),
    ("monomial", "* a", "expected a quantity name, got '*'"),
    ("monomial", "a /", "expected a quantity name"),
    ("monomial", "", "expected a quantity name"),
    ("dimexpr", "\u2028", "expected a dimension expression"),
    ("dimexpr", "a 1", "'1' must stand alone as a dimension expression"),
])
def test_other_expressions_fall_through_to_the_term_readers(
    monkeypatch, kind: str, text: str, message: str
):
    (exponents, errors), fell_back = _both_reads(monkeypatch, kind, text)
    assert fell_back and exponents is None
    assert [e.message for e in errors] == [message]


# ---------------------------------------------------------------------------
# model rendering round trip


def test_render_model_round_trip_drag(drag_text):
    model = parse_model(drag_text)
    rendered = render_model(model)
    assert parse_model(rendered) == model


def test_render_model_round_trip_variants():
    texts = [
        "dimensions: M\nquantity a = M\nquantity b = M^-1\n",
        (
            "dimensions: M, L\n"
            "quantity a = M L^1/2\n"
            "quantity b = M^-2\n"
            "constraint a^2 / b = 3/4\n"
            "jacobian_row: 1, 2\n"
        ),
        (
            "dimensions: M\n"
            "quantity a = M\n"
            "quantity b = M\n"
            "constraint a^-1 * b^-1 = 5\n"  # all-negative exponents
        ),
    ]
    for text in texts:
        model = parse_model(text)
        assert parse_model(render_model(model)) == model


def test_render_model_round_trip_of_repeating():
    model = drag_model()
    rendered = render_model(model)
    assert rendered.endswith("\nconstraint rho * nu / mu = 1\nrepeating: rho, U, L\n")
    assert parse_model(rendered) == model
    reordered = parse_model(rendered.replace("rho, U, L", "L, rho, U"))
    assert reordered.repeating == ("L", "rho", "U")
    assert parse_model(render_model(reordered)) == reordered
    assert analyze(reordered) == analyze(model)


def test_render_model_round_trip_of_a_zero_column_basis():
    # d = 0: every quantity repeats, and the basis has no columns
    model = Model(
        DimensionSystem(("M", "L")),
        (Quantity("a", (1, 0)), Quantity("b", (0, 1))),
        repeating=("a", "b"),
    )
    rendered = render_model(model)
    assert rendered.endswith("\nrepeating: a, b\n")
    assert parse_model(rendered) == model
    report = analyze(model)
    assert (report.d, report.d_eff, _report_payload(report)["pi_groups"]) == (0, 0, [])


# ---------------------------------------------------------------------------
# matrix cells and constraint labels, printed from integers


def test_matrix_cells_print_each_entry_as_its_fraction():
    rng = random.Random(1213)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        # den 1 twice as often, for the whole-number rows
        den = rng.choice([1, 1, 2, 6, 12, 30, 36, 65, 720, rng.randint(1, 10**12)])
        # 64 and 65 lie at either side of the shared text table's range
        edges = [64, -64, 65, -65, 10**40, -(10**40), 65 * den, -64 * den]
        nums = [
            rng.choice(
                [0, den, -den, rng.randint(-60, 60), rng.randint(-(10**20), 10**20),
                 rng.choice(edges)]
            )
            for _ in range(rows * cols)
        ]
        matrix = RatMatrix(rows, cols, tuple(Fraction(x, den) for x in nums))
        expected = [[str(x) for x in matrix.row(i)] for i in range(rows)]
        assert _matrix_cells(matrix) == expected


@pytest.mark.parametrize(
    ("exponents", "label"),
    [
        ((-2, -1, 0), "a^-2 * b^-1 = 3/4"),
        ((1, 2, Fraction(1, 2)), "a * b^2 * c^1/2 = 3/4"),
        ((Fraction(-3, 2), Fraction(1, 2), 0), "b^1/2 / a^3/2 = 3/4"),
        ((2, -1, Fraction(-3, 2)), "a^2 / b / c^3/2 = 3/4"),
        ((-1, Fraction(-3, 2), 0), "a^-1 * b^-3/2 = 3/4"),
        ((Fraction(1, 2), -2, 1), "a^1/2 * c / b^2 = 3/4"),
        ((0, Fraction(-3, 2), -2), "b^-3/2 * c^-2 = 3/4"),
        ((-1, -1, -2), "a^-1 * b^-1 * c^-2 = 3/4"),
    ],
)
def test_constraint_labels_render_and_reparse(exponents, label):
    constraint = MonomialConstraint(exponents, Fraction(3, 4))
    strings = [str(x) for x in constraint.exponents]
    assert _constraint_entry(("a", "b", "c"), constraint, strings)["label"] == label
    model = Model(
        DimensionSystem(("M",)),
        tuple(Quantity(name, (1,)) for name in "abc"),
        (constraint,),
    )
    assert parse_model(render_model(model)) == model


# ---------------------------------------------------------------------------
# report rendering


def test_render_report_text_drag(drag_text):
    report = analyze(parse_model(drag_text))
    text = render_report(report, "text")
    assert "d = 3" in text
    assert "d_eff = 2" in text
    assert "relation: pi2 / pi3 = 1" in text
    assert "scale invariant: yes" in text
    assert "independent set (2 of 3): pi1, pi3" in text
    assert "\x1b[" not in text  # no color unless asked


def test_render_report_text_with_no_pi_group():
    # d = 0 and ell = 0: the constraints, pi groups, C and relations are empty
    report = analyze(parse_model("dimensions: M\nquantity a = M\n"))
    assert render_report(report, "text") == (
        "quantities (n = 1): a\n"
        "dimensions (m = 1): M\n"
        "constraints (ell = 0): none\n"
        "A (1x1):\n"
        "  [1]\n"
        "d = 0\n"
        "pi groups: none\n"
        "scale invariant: yes\n"
        "d_eff = 0\n"
        "  via kernel of J*E:  0\n"
        "  via stacked rank:   0\n"
        "  via grassmann:      0\n"
        "  via rank of C:      0\n"
        "C (0x0):\n"
        "  (empty)\n"
        "rref(C) (0x0):\n"
        "  (empty)\n"
        "relations among pi groups: none\n"
        "independent set (0 of 0): (empty)\n"
    )


def test_render_report_json_drag(drag_text):
    report = analyze(parse_model(drag_text))
    payload = json.loads(render_report(report, "json"))
    assert payload["schema"] == 1
    assert payload["d"] == 3
    assert payload["d_eff"] == 2
    assert payload["scale_invariant"] is True
    assert payload["C"] == [["0", "1", "-1"]]
    assert payload["rref_C"] == [["0", "1", "-1"]]
    assert payload["selected"] == [0, 2]
    assert payload["A"][0] == ["1", "1", "0", "0", "1", "0"]
    assert payload["relations"][0]["label"] == "pi2 / pi3 = 1"
    assert payload["relations"][0]["constant"] == "1"
    assert payload["d_eff_formulas"]["via_C_rank"] == 2


def test_render_report_json_unconstrained():
    model = parse_model("dimensions: M\nquantity a = M\nquantity b = M\n")
    payload = json.loads(render_report(analyze(model), "json"))
    assert payload["scale_invariant"] is True
    assert payload["relations"] == []
    assert payload["ell"] == 0
    assert payload["d_eff"] == payload["d"] == 1


def test_render_report_json_non_invariant():
    text = (
        "dimensions: M\nquantity a = M\nquantity b = M\n"
        "jacobian_row: 1, 0\n"
    )
    payload = json.loads(render_report(analyze(parse_model(text)), "json"))
    assert payload["scale_invariant"] is False
    assert payload["C"] is None
    assert payload["rref_C"] is None
    assert payload["selected"] is None
    assert payload["relations"] is None
    assert payload["d_eff_formulas"]["via_C_rank"] is None
    assert payload["warnings"]


def test_render_report_rejects_unknown_format(drag_text):
    report = analyze(parse_model(drag_text))
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(report, "yaml")


def test_render_report_deterministic(drag_text):
    report = analyze(parse_model(drag_text))
    report2 = analyze(parse_model(drag_text))
    for fmt in ("text", "json"):
        assert render_report(report, fmt) == render_report(report2, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_formats_each_number_once(monkeypatch, fmt: str):
    """Only the constants and the relations' k_exponents are formatted as
    Fractions, each once, and by render_report alone: analyze formats
    nothing, J, the constraint entries and the relation coeffs are printed
    from the integer cells of J and rref(C), and a label reuses the strings
    of its entry."""
    texts = [
        "dimensions: M, L\nquantity a = M\nquantity b = L\nquantity c = M L\n"
        "jacobian_row: 1, 1/2, -3\njacobian_row: 0, 2, 7/3\n",
        "dimensions: M, L\nquantity a = M\nquantity b = M\nquantity c = L\n"
        "quantity e = L\nquantity f = M L\nconstraint a^1/2 / b^1/2 = 4\n"
        "constraint c^2/3 / e^2/3 = 3/2\nconstraint a^2 / b^2 = 256\n",
    ]
    models = [parse_model(text) for text in texts]
    formatted = []
    original = Fraction.__str__

    def recorded(self):
        formatted.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__str__", recorded)
    reports = []
    for model in models:
        formatted.clear()
        report = analyze(model)
        assert formatted == []
        reports.append(report)
        render_report(report, fmt)
        expected = [c.constant for c in report.constraints if c.kind == "monomial"]
        for r in report.relations or ():
            expected += r.k_exponents
            expected += [] if r.constant is None else [r.constant]
        assert sorted(formatted) == sorted(expected)
    assert [r.scale_invariant for r in reports] == [False, True]
    assert [r.constant for r in reports[1].relations] == [16, None]


def test_labels_reparse_to_their_exponents(gen):
    """Each pi group label reparses over the quantities to its column of E,
    and the left side of each relation label over pi1..pid to its
    pi_exponents, on every report of the digest corpus and of one ladder
    round of each kind."""
    texts = list(test_report_digests._all_models().values())
    texts += [made.text for pointwise in (False, True) for made in gen.ladder(1, 1, pointwise)]
    checked = 0
    for text in texts:
        try:
            report = analyze(parse_model(text))
        except (ModelFileError, ModelError):
            continue  # the CLI refuses this model
        payload = _report_payload(report)
        assert len(payload["pi_groups"]) == report.d
        for k, group in enumerate(payload["pi_groups"]):
            assert parse_monomial(group["label"], report.quantities) == report.E.column(k)
        pi_names = [f"pi{k}" for k in range(1, report.d + 1)]
        assert len(payload["relations"] or ()) == len(report.relations or ())
        for relation, entry in zip(report.relations or (), payload["relations"] or ()):
            left = entry["label"].split(" = ")[0]
            assert parse_monomial(left, pi_names) == tuple(map(Fraction, relation.pi_exponents))
        checked += 1
    assert checked == 82


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(payload, indent=2), byte for byte


# The corpus of the report tests below: the shipped models, tests/models,
# one ladder round of each kind for seeds 1-3, the constant probe (symbolic
# relation constants, exponents past 64, C and rref(C) with fractional
# cells), and small models: three with d = 0, where E is n x 0 and C is
# 0 x 0, ell x 0 or null; a pointwise relation; and a relation whose
# k_exponent is 1/2, with a symbolic constant.
_SMALL_MODELS = [
    "dimensions: M, L\nquantity a = M\nquantity b = L\n",
    "dimensions: M, L\nquantity a = M\nquantity b = L\njacobian_row: 0, 0\n",
    "dimensions: M, L\nquantity a = M\nquantity b = L\njacobian_row: 1, 0\n",
    "dimensions: M\nquantity a = M\nquantity b = M\njacobian_row: 1, -1\n",
    "dimensions: M\nquantity a = M\nquantity b = M\nconstraint a^2 / b^2 = 2\n",
]


def _report_corpus(repo_root, gen) -> list:
    paths = sorted((repo_root / "models").glob("*.pim"))
    paths += sorted((repo_root / "tests" / "models").glob("*.pim"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    texts += [
        made.text
        for seed in (1, 2, 3)
        for pointwise in (False, True)
        for made in gen.ladder(seed, 1, pointwise)
    ]
    texts += [made.text for made in gen.constant_probe(1, 6)]
    return [analyze(parse_model(text)) for text in texts + _SMALL_MODELS]


def test_every_matrix_cell_is_a_number(repo_root, gen):
    """The JSON writer quotes the cells of A, J, E, C and rref(C) without
    an escape; each is an integer or p/q, as _matrix_cells states."""
    cell = re.compile(r"-?[0-9]+(/[0-9]+)?")
    fractional = 0
    for report in _report_corpus(repo_root, gen):
        payload = _report_payload(report)
        for name in ("A", "J", "E", "C", "rref_C"):
            for row in payload[name] or ():
                for text in row:
                    assert type(text) is str and cell.fullmatch(text), (name, text)
                    fractional += "/" in text
    assert fractional > 0


def test_json_report_is_json_dumps_of_its_payload(repo_root, gen):
    seen = set()
    for report in _report_corpus(repo_root, gen):
        payload = _report_payload(report)
        expected = json.dumps(payload, indent=2) + "\n"
        assert render_report(report, "json") == expected
        seen.add(("scale_invariant", payload["scale_invariant"]))
        seen.add(("E", "n x 0" if payload["E"] and not payload["E"][0] else "n x d"))
        seen.add(("C", "null" if payload["C"] is None else len(payload["C"]) > 0))
        for relation in payload["relations"] or ():
            seen.add(("pointwise", relation["pointwise"]))
            seen.add(("constant", relation["constant"] is None))
            seen.add(("pi_exponents past 64", max(map(abs, relation["pi_exponents"])) > 64))
            seen.add(("k_exponent p/q", any("/" in k for k in relation["k_exponents"])))
    # the corpus writes both values of each bool, ints past the shared text
    # table, p/q k_exponents, null and symbolic constants, an n x 0 E, and C
    # as null, with no rows and with rows
    assert seen == {
        (field, value)
        for field, values in [
            ("scale_invariant", (True, False)),
            ("E", ("n x 0", "n x d")),
            ("C", ("null", False, True)),
            ("pointwise", (True, False)),
            ("constant", (True, False)),
            ("pi_exponents past 64", (True, False)),
            ("k_exponent p/q", (True, False)),
        ]
        for value in values
    }


def test_json_report_escapes_every_name_and_label(drag_text):
    """Dimension and quantity names reach the labels; each string of the
    report is escaped as json.dumps escapes it."""
    real = analyze(parse_model(drag_text))
    fields = {name: getattr(real, name) for name in AnalysisReport.__slots__}
    fields["dimensions"] = ['M"\x7f', "L\\", "T\x00\u2028\ud800"]
    fields["quantities"] = ['F"D', "rho\\", "U\x1f", "L\u2028", "\xe9", "\U0001f600"]
    report = AnalysisReport(**fields)
    payload = _report_payload(report)
    assert payload["pi_groups"][0]["label"] == 'F"D/(rho\\*U\x1f^2*L\u2028^2)'
    assert render_report(report, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "char", ['"', "\\", "\n", "\x7f", "\xe9", "\u2028", "\U0001f600", "\ud800"], ids=ascii
)
def test_json_string_list_with_one_item_to_escape(char):
    """Each string list of a report (names, warnings, k_exponents) with one
    item to escape, at each place, is written as json.dumps writes it."""
    real = analyze(parse_model(_SMALL_MODELS[-1]))
    for at in range(3):
        items = ["1/2", "-3", "pi1 / pi2 = 1"]
        items[at] = f"a{char}b"
        payload = _report_payload(real)
        payload["dimensions"] = items
        payload["quantities"] = items[::-1]
        payload["warnings"] = items
        payload["relations"][0]["k_exponents"] = items
        assert report_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "items",
    [
        [1, True, 0, False, None],
        [1, True, 0, False],
        [True, False],
        [3, -2, 10**40],
        [64, 65, -64, -65, True],
        {"t": True, "z": 0, "x": 65, "f": False},
    ],
)
def test_json_int_list_keeps_bools_apart(items):
    """The ints of items fill the report's int lists and int fields, past
    the shared text table too; its bools fill scale_invariant and one
    relation's pointwise each, and a None makes the relation constants
    null. True hashes as 1, yet each bool is written true or false and each
    int by its digits. (A pi group's exponents are written from E's cells.)"""
    values = list(items.values()) if type(items) is dict else items
    ints = [v for v in values if type(v) is int]
    bools = [v for v in values if type(v) is bool]
    constant = None if None in values else "2"
    payload = _report_payload(analyze(parse_model(_SMALL_MODELS[-1])))
    relation = payload["relations"][0]
    payload["d_eff_formulas"] = dict(zip(payload["d_eff_formulas"], ints + [None] * 4))
    payload["selected"] = ints
    payload["relations"] = [
        dict(relation, pi_exponents=ints, pointwise=flag, constant=constant) for flag in bools
    ]
    for flag in bools:
        payload["scale_invariant"] = flag
        assert report_json(payload) == json.dumps(payload, indent=2)
    assert report_json(payload) == json.dumps(payload, indent=2)


# Schema-v1 payloads with any field values the writer takes. Strings hold
# characters that json escapes or passes through differently: quotes,
# backslashes, control characters, line and paragraph separators, non-ASCII
# and astral characters (written as surrogate pairs); then any code point,
# lone surrogates included. Ints reach past the shared text table; number
# cells are any Fraction as str prints it, and E's cells any int.
_TRICKY = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600\U0010ffff'
_chars = st.one_of(st.sampled_from(_TRICKY), st.integers(0, 0x10FFFF).map(chr))
_texts = st.text(_chars, max_size=12)
_ints = st.one_of(
    st.integers(),
    st.integers(-80, 80),
    st.integers(10**99, 10**130),
    st.integers(-(10**130), -(10**99)),
)
_int_lists = st.lists(_ints, max_size=4)
_cells = st.lists(st.fractions().map(str), max_size=4)
_matrices = st.integers(0, 3).flatmap(
    lambda cols: st.lists(
        st.lists(st.fractions().map(str), min_size=cols, max_size=cols), max_size=3
    )
)
def _ordered(mapping: dict) -> st.SearchStrategy[dict]:
    """fixed_dictionaries, with the keys in mapping's order, as the writer
    and json.dumps write them."""
    return st.fixed_dictionaries(mapping).map(lambda drawn: {key: drawn[key] for key in mapping})


_constraints = st.one_of(
    _ordered(
        {"kind": st.just("monomial"), "label": _texts, "exponents": _cells, "constant": _texts}
    ),
    _ordered({"kind": st.just("jacobian_row"), "label": _texts, "entries": _cells}),
)
_relations = _ordered(
    {
        "coeffs": _cells,
        "pi_exponents": _int_lists,
        "k_exponents": st.lists(_texts, max_size=4),
        "constant": st.none() | _texts,
        "pointwise": st.booleans(),
        "label": _texts,
    }
)
_int_matrices = st.integers(0, 3).flatmap(
    lambda cols: st.lists(st.lists(_ints.map(str), min_size=cols, max_size=cols), max_size=3)
)
_fields = _ordered(
    {
        **{key: _ints for key in ("schema", "n", "m", "ell", "d", "d_eff")},
        "scale_invariant": st.booleans(),
        "d_eff_formulas": _ordered(
            {
                key: st.none() | _ints
                for key in ("via_kernel_JE", "via_stacked_rank", "via_grassmann", "via_C_rank")
            }
        ),
        "dimensions": st.lists(_texts, max_size=4),
        "quantities": st.lists(_texts, max_size=4),
        "pi_groups": st.just([]),
        "constraints": st.lists(_constraints, max_size=3),
        **{key: _matrices for key in ("A", "J")},
        "E": _int_matrices,
        **{key: st.none() | _matrices for key in ("C", "rref_C")},
        "selected": st.none() | _int_lists,
        "relations": st.none() | st.lists(_relations, max_size=3),
        "warnings": st.lists(_texts, max_size=2),
    }
)


@st.composite
def _payloads(draw) -> dict:
    """A payload whose pi group k holds column k of its integer E."""
    payload = draw(_fields)
    payload["pi_groups"] = [
        {"label": draw(_texts), "exponents": list(map(int, column))}
        for column in zip(*payload["E"])
    ]
    return payload


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_payloads())
def test_json_writer_matches_json_dumps(payload):
    assert list(payload) == list(_report_payload(analyze(parse_model(_SMALL_MODELS[-1]))))
    assert report_json(payload) == json.dumps(payload, indent=2)


def test_golden_json_files_are_json_dumps_indent_2(repo_root):
    for path in sorted((repo_root / "tests" / "golden").glob("*.json")):
        golden = path.read_text(encoding="utf-8")
        assert golden == json.dumps(json.loads(golden), indent=2) + "\n", path.name
