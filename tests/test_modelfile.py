from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pim.model import DimensionSystem, Model, Quantity
from pim.modelfile import (
    ErrorCode,
    ModelFileError,
    _json,
    _matrix_cells,
    _report_payload,
    constraint_label,
    parse_dimexpr,
    parse_model,
    parse_monomial,
    render_model,
    render_report,
)
from pim.ratlin import RatMatrix
from pim.reduce import JacobianRowConstraint, MonomialConstraint, analyze

from oracles import DRAG_CLASSIC_BASIS, drag_model


def _parse_errors(text: str):
    with pytest.raises(ModelFileError) as excinfo:
        parse_model(text)
    return excinfo.value.errors


# ---------------------------------------------------------------------------
# successful parses


def test_parse_drag_model(drag_text):
    model = parse_model(drag_text)
    assert model == drag_model()
    assert model.basis_override == DRAG_CLASSIC_BASIS


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


def test_parse_basis_block_ends_at_keyword():
    text = (
        "dimensions: M\n"
        "quantity a = M\n"
        "quantity b = M\n"
        "basis_override:\n"
        "1, -1\n"
        "constraint a / b = 1\n"
    )
    model = parse_model(text)
    assert model.basis_override == RatMatrix.from_columns([[1, -1]])
    assert len(model.constraints) == 1


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
        f"dimensions: M\nquantity a = M\nbasis_override:\n1\n{indent}basis_override:\n"
        "   basis_override:\n"
    )
    assert [(e.span.line, e.span.column, e.span.length, e.message) for e in errors] == [
        (5, len(indent) + 1, len("basis_override"), "duplicate basis_override block"),
        (6, 4, len("basis_override"), "duplicate basis_override block"),
    ]


@pytest.mark.parametrize("line, code, column", [
    ("jacobian_row: 1, {}", ErrorCode.SYNTAX, 18),
    ("basis_override:\n 1, {}", ErrorCode.SYNTAX, 5),
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
    (_parse_errors, _A + "basis_override: x\n",
     [(3, 16, "unexpected text after 'basis_override:'")]),
    (_parse_errors, _A + "quantity b = M\nbasis_override:\n1\n",
     [(5, 1, "basis vector has 1 entries, expected 2")]),
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


def test_render_model_round_trip_of_a_zero_column_override():
    # d = 0: the override with no columns is the whole kernel basis
    model = Model(
        DimensionSystem(("M", "L")),
        (Quantity("a", (1, 0)), Quantity("b", (0, 1))),
        basis_override=RatMatrix.zero(2, 0),
    )
    rendered = render_model(model)
    assert rendered.endswith("\nbasis_override:\n")
    assert parse_model(rendered) == model
    report = analyze(model)
    assert (report.d, report.d_eff, report.pi_groups) == (0, 0, ())


# ---------------------------------------------------------------------------
# matrix cells and constraint labels, printed from integers


def test_matrix_cells_print_each_entry_as_its_fraction():
    rng = random.Random(1213)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        den = rng.choice([1, 2, 6, 12, 30, 36, 720, rng.randint(1, 10**12)])
        nums = [
            rng.choice([0, den, -den, rng.randint(-60, 60), rng.randint(-(10**20), 10**20)])
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
    assert constraint_label(("a", "b", "c"), constraint) == label
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


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(payload, indent=2), byte for byte


def test_json_report_is_json_dumps_of_its_payload(repo_root, gen):
    paths = sorted((repo_root / "models").glob("*.pim"))
    paths += sorted((repo_root / "tests" / "models").glob("*.pim"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    texts += [
        made.text
        for seed in (1, 2, 3)
        for pointwise in (False, True)
        for made in gen.ladder(seed, 1, pointwise)
    ]
    for text in texts:
        report = analyze(parse_model(text))
        expected = json.dumps(_report_payload(report), indent=2) + "\n"
        assert render_report(report, "json") == expected


def test_golden_json_files_are_json_dumps_indent_2(repo_root):
    for path in sorted((repo_root / "tests" / "golden").glob("*.json")):
        golden = path.read_text(encoding="utf-8")
        assert golden == json.dumps(json.loads(golden), indent=2) + "\n", path.name


# Characters that json escapes or passes through differently: quotes,
# backslashes, control characters, line and paragraph separators, non-ASCII
# and astral characters (written as surrogate pairs); then any code point,
# lone surrogates included.
_TRICKY = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600\U0010ffff'
_chars = st.one_of(st.sampled_from(_TRICKY), st.integers(0, 0x10FFFF).map(chr))
_strings = st.text(_chars, max_size=12)
_ints = st.one_of(
    st.integers(),
    st.integers(10**99, 10**130),
    st.integers(-(10**130), -(10**99)),
)
_scalars = st.one_of(_strings, _ints, st.booleans(), st.none())
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_strings, max_size=5),  # the all-string rows of a matrix
        st.dictionaries(_strings, inner, max_size=5),
    ),
    max_leaves=20,
)


@pytest.mark.parametrize(
    "char", ['"', "\\", "\n", "\x7f", "\xe9", "\u2028", "\U0001f600", "\ud800"], ids=ascii
)
def test_json_string_list_with_one_item_to_escape(char):
    for at in range(3):
        items = ["1/2", "-3", "pi1 / pi2 = 1"]
        items[at] = f"a{char}b"
        payload = {"row": items, "rows": [items, ["0", "1"]]}
        assert _json(payload, "") == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "items", [[1, True, 0, False, None], [1, True, 0, False], [True, False], [3, -2, 10**40]]
)
def test_json_int_list_keeps_bools_apart(items):
    payload = {"list": items, "nested": [items]}
    assert _json(payload, "") == json.dumps(payload, indent=2)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_payloads)
def test_json_writer_matches_json_dumps(payload):
    assert _json(payload, "") == json.dumps(payload, indent=2)
