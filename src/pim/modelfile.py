"""Parser for the ``.pim`` model text format, plus report rendering.

File format (line oriented, ``#`` starts a comment anywhere):

    dimensions: M, L, T
    quantity F_D = M L T^-2          # dimension expression, or "1"
    constraint nu * rho / mu = 1     # monomial = positive rational constant
    jacobian_row: 0, 1, 0, 0, -1, 1  # raw pointwise Jacobian row, length n
    basis_override:                  # optional; one kernel vector per line
    1, -1, -2, -2, 0, 0

Rationals are written ``p`` or ``p/q`` with an optional leading minus.
Parsing collects as many errors as it can before giving up; every error
carries a source span pointing inside the offending token.

Reports render as human-readable text or as JSON in which every matrix
entry is an exact ``"p/q"`` string (schema version 1, field order fixed).
"""

from __future__ import annotations

import json
import re
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .model import MAX_DIGITS, DimensionSystem, Model, Quantity
from .ratlin import RatMatrix, Value
from .reduce import (
    AnalysisReport,
    Constraint,
    JacobianRowConstraint,
    MonomialConstraint,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")
_KEYWORD_RE = re.compile(r"\s*(dimensions|quantity|constraint|jacobian_row|basis_override)\b")

SCHEMA_VERSION = 1


class ErrorCode(str, Enum):
    UNKNOWN_DIMENSION = "unknown-dimension"
    UNKNOWN_QUANTITY = "unknown-quantity"
    DUPLICATE_NAME = "duplicate-name"
    BAD_EXPONENT = "bad-exponent"
    BAD_CONSTANT = "bad-constant"
    SYNTAX = "syntax"


class SourceSpan(Value):
    """1-based line/column location of a token in the source text."""

    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int = 1) -> None:
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "length", length)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Value):
    __slots__ = ("span", "code", "message")

    def __init__(self, span: SourceSpan, code: ErrorCode, message: str) -> None:
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.span}: {self.code.value}: {self.message}"


class ModelFileError(ValueError):
    """Parse failure carrying every error that was collected."""

    def __init__(self, errors: Sequence[ParseError]):
        self.errors = tuple(errors)
        super().__init__("; ".join(str(e) for e in self.errors) or "parse failed")


def _err(
    errors: list[ParseError],
    line: int,
    column: int,
    length: int,
    code: ErrorCode,
    message: str,
) -> None:
    errors.append(ParseError(SourceSpan(line, column, max(length, 1)), code, message))


def _parse_rational_token(text: str) -> int | Fraction | None:
    """int from a `p` token, Fraction from a `p/q` token, or None when q is
    zero or the token is too long (see :func:`_too_long`)."""
    if _too_long(text):
        return None
    if "/" not in text:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return None


def _too_long(text: str) -> str | None:
    """Why a token's numerator or denominator has too many digits to read,
    or None. Gives the digit count, never the literal itself."""
    if len(text) <= MAX_DIGITS:
        return None
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    if digits <= MAX_DIGITS:
        return None
    return f"number has {digits} digits, more than the {MAX_DIGITS} allowed"


# ---------------------------------------------------------------------------
# expression parsing


def _parse_dimexpr(
    text: str,
    line: int,
    offset: int,
    dim_index: dict[str, int],
    errors: list[ParseError],
) -> list[int | Fraction] | None:
    """Whitespace-separated IDENT[^rational] terms; repeated names sum.

    `offset` is the 0-based position of `text` within its source line, so
    spans land on the original file coordinates.
    """
    m = len(dim_index)
    tokens = list(re.finditer(r"\S+", text))
    if not tokens:
        _err(errors, line, offset + 1, 1, ErrorCode.SYNTAX, "expected a dimension expression")
        return None
    if len(tokens) == 1 and tokens[0].group() == "1":
        return [0] * m
    exps: list[int | Fraction] = [0] * m
    ok = True
    for tok in tokens:
        word = tok.group()
        start = offset + tok.start()
        if word == "1":
            _err(errors, line, start + 1, 1, ErrorCode.SYNTAX,
                 "'1' must stand alone as a dimension expression")
            ok = False
            continue
        ident = _IDENT_RE.match(word)
        if not ident:
            _err(errors, line, start + 1, len(word), ErrorCode.SYNTAX,
                 f"expected a dimension name, got {word!r}")
            ok = False
            continue
        name = ident.group()
        rest = word[ident.end():]
        exp: int | Fraction = 1
        if rest:
            if not rest.startswith("^"):
                _err(errors, line, start + ident.end() + 1, len(rest), ErrorCode.SYNTAX,
                     f"unexpected {rest!r} after dimension name {name!r}")
                ok = False
                continue
            exp_text = rest[1:]
            value = (
                _parse_rational_token(exp_text)
                if _RATIONAL_RE.fullmatch(exp_text)
                else None
            )
            if value is None:
                _err(errors, line, start + ident.end() + 2, len(exp_text),
                     ErrorCode.BAD_EXPONENT, _too_long(exp_text)
                     or f"bad exponent {exp_text!r}: expected a rational like -2 or 1/2")
                ok = False
                continue
            exp = value
        if name not in dim_index:
            _err(errors, line, start + 1, len(name), ErrorCode.UNKNOWN_DIMENSION,
                 f"unknown dimension {name!r}")
            ok = False
            continue
        exps[dim_index[name]] += exp
    return exps if ok else None


class _MonomialAbort(Exception):
    pass


class _MonomialParser:
    """Recursive-descent parser for `factor (('*'|'/') factor)*` where a
    factor is IDENT[^rational] or a parenthesized monomial."""

    def __init__(
        self,
        text: str,
        line: int,
        offset: int,
        name_index: dict[str, int],
        errors: list[ParseError],
    ):
        self.text = text
        self.line = line
        self.offset = offset
        self.name_index = name_index
        self.errors = errors
        self.pos = 0
        self.failed = False
        self.exps: list[int | Fraction] = [0] * len(name_index)

    def parse(self) -> list[int | Fraction] | None:
        try:
            self._sequence(1)
            self._skip_ws()
            if self.pos != len(self.text):
                self._fail(self.pos, len(self.text) - self.pos, ErrorCode.SYNTAX,
                           f"unexpected {self.text[self.pos:].strip()!r} after monomial")
        except _MonomialAbort:
            pass
        return None if self.failed else self.exps

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, pos: int, length: int, code: ErrorCode, message: str) -> None:
        _err(self.errors, self.line, self.offset + pos + 1, length, code, message)
        self.failed = True

    def _sequence(self, sign: int) -> None:
        self._factor(sign)
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                self._factor(sign)
            elif ch == "/":
                self.pos += 1
                self._factor(-sign)
            else:
                return

    def _factor(self, sign: int) -> None:
        self._skip_ws()
        ch = self._peek()
        if not ch:
            self._fail(self.pos, 1, ErrorCode.SYNTAX, "expected a quantity name")
            raise _MonomialAbort
        if ch == "(":
            self.pos += 1
            self._sequence(sign)
            self._skip_ws()
            if self._peek() != ")":
                self._fail(self.pos, 1, ErrorCode.SYNTAX, "missing ')'")
                raise _MonomialAbort
            self.pos += 1
            return
        ident = _IDENT_RE.match(self.text, self.pos)
        if not ident:
            self._fail(self.pos, 1, ErrorCode.SYNTAX,
                       f"expected a quantity name, got {ch!r}")
            raise _MonomialAbort
        name = ident.group()
        name_pos = self.pos
        self.pos = ident.end()
        exp: int | Fraction = 1
        if self._peek() == "^":
            self.pos += 1
            m = _RATIONAL_RE.match(self.text, self.pos)
            if m:
                value = _parse_rational_token(m.group())
                if value is None:
                    self._fail(self.pos, len(m.group()), ErrorCode.BAD_EXPONENT,
                               _too_long(m.group())
                               or f"rational {m.group()!r} has a zero denominator")
                else:
                    exp = value
                self.pos = m.end()
            else:
                # skip the malformed exponent token, keep collecting errors
                bad = re.match(r"[^\s*/()^]*", self.text[self.pos:]).group()
                self._fail(self.pos, max(len(bad), 1), ErrorCode.BAD_EXPONENT,
                           "bad exponent: expected a rational like -2 or 1/2")
                self.pos += len(bad)
        if name not in self.name_index:
            self._fail(name_pos, len(name), ErrorCode.UNKNOWN_QUANTITY,
                       f"unknown quantity {name!r}")
            return
        self.exps[self.name_index[name]] += sign * exp


def _parse_monomial(
    text: str,
    line: int,
    offset: int,
    name_index: dict[str, int],
    errors: list[ParseError],
) -> list[int | Fraction] | None:
    return _MonomialParser(text, line, offset, name_index, errors).parse()


def _parse_rational_list(
    text: str, line: int, offset: int, errors: list[ParseError]
) -> list[int | Fraction] | None:
    """Comma-separated rationals with source positions."""
    values: list[int | Fraction] = []
    ok = True
    pos = 0
    for segment in text.split(","):
        token = segment.strip()
        start = offset + pos + (len(segment) - len(segment.lstrip()))
        if not token or not _RATIONAL_RE.fullmatch(token):
            _err(errors, line, start + 1, len(token), ErrorCode.SYNTAX,
                 f"expected a rational number, got {token!r}")
            ok = False
        else:
            value = _parse_rational_token(token)
            if value is None:
                _err(errors, line, start + 1, len(token), ErrorCode.SYNTAX,
                     _too_long(token) or f"rational {token!r} has a zero denominator")
                ok = False
            else:
                values.append(value)
        pos += len(segment) + 1
    return values if ok else None


# ---------------------------------------------------------------------------
# model file parsing


class _QuantityDecl:
    __slots__ = ("name", "name_span", "rhs", "rhs_offset", "line")

    def __init__(
        self, name: str, name_span: SourceSpan, rhs: str, rhs_offset: int, line: int
    ) -> None:
        self.name = name
        self.name_span = name_span
        self.rhs = rhs
        self.rhs_offset = rhs_offset
        self.line = line


class _ConstraintDecl:
    __slots__ = ("kind", "line", "lhs", "lhs_offset", "constant", "row", "span")

    def __init__(
        self, kind: str, line: int, lhs: str = "", lhs_offset: int = 0,
        constant: int | Fraction | None = None, row: list[int | Fraction] | None = None,
        span: SourceSpan | None = None,
    ) -> None:
        self.kind = kind  # "monomial" | "jacobian_row"
        self.line = line
        self.lhs = lhs
        self.lhs_offset = lhs_offset
        self.constant = constant
        self.row = row
        self.span = span


class _Parser:
    def __init__(self, text: str):
        self.errors: list[ParseError] = []
        # Only \r\n, \r and \n end a line; str.splitlines also splits at
        # \x0b, \x0c, \x1c-\x1e, U+0085, U+2028 and U+2029.
        self.lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        self.dim_names: list[tuple[str, SourceSpan]] | None = None
        self.quantities: list[_QuantityDecl] = []
        self.constraints: list[_ConstraintDecl] = []
        self.basis_rows: list[tuple[list[int | Fraction], SourceSpan]] = []
        self.seen_basis_block = False

    # -- scanning -----------------------------------------------------------

    def scan(self) -> None:
        in_basis = False
        for line_no, raw in enumerate(self.lines, start=1):
            cut = raw.find("#")
            line = raw if cut < 0 else raw[:cut]
            if not line.strip():
                continue
            kw = _KEYWORD_RE.match(line)
            if kw:
                in_basis = False
                word = kw.group(1)
                if word == "dimensions":
                    self._scan_dimensions(line, line_no, kw.end())
                elif word == "quantity":
                    self._scan_quantity(line, line_no, kw.end())
                elif word == "constraint":
                    self._scan_constraint(line, line_no, kw.end())
                elif word == "jacobian_row":
                    self._scan_jacobian_row(line, line_no, kw.end())
                else:
                    in_basis = self._scan_basis_header(line, line_no, kw.end())
                continue
            if in_basis:
                content = line.strip()
                col = len(line) - len(line.lstrip())
                values = _parse_rational_list(line, line_no, 0, self.errors)
                if values is not None:
                    span = SourceSpan(line_no, col + 1, len(content))
                    self.basis_rows.append((values, span))
                continue
            col = len(line) - len(line.lstrip()) + 1
            word = line.strip().split()[0]
            _err(self.errors, line_no, col, len(word), ErrorCode.SYNTAX,
                 "expected one of: dimensions:, quantity, constraint, "
                 "jacobian_row:, basis_override:")

    def _expect_colon(self, line: str, line_no: int, pos: int, keyword: str) -> int | None:
        while pos < len(line) and line[pos].isspace():
            pos += 1
        if pos >= len(line) or line[pos] != ":":
            _err(self.errors, line_no, pos + 1, 1, ErrorCode.SYNTAX,
                 f"expected ':' after '{keyword}'")
            return None
        return pos + 1

    def _scan_dimensions(self, line: str, line_no: int, pos: int) -> None:
        after = self._expect_colon(line, line_no, pos, "dimensions")
        if after is None:
            return
        if self.dim_names is not None:
            _err(self.errors, line_no, 1, len("dimensions"), ErrorCode.SYNTAX,
                 "duplicate dimensions declaration")
            return
        names: list[tuple[str, SourceSpan]] = []
        cursor = after
        for segment in line[after:].split(","):
            token = segment.strip()
            start = cursor + (len(segment) - len(segment.lstrip()))
            if not token or not _IDENT_RE.fullmatch(token):
                _err(self.errors, line_no, start + 1, len(token), ErrorCode.SYNTAX,
                     f"expected a dimension name, got {token!r}")
            else:
                names.append((token, SourceSpan(line_no, start + 1, len(token))))
            cursor += len(segment) + 1
        self.dim_names = names

    def _scan_quantity(self, line: str, line_no: int, pos: int) -> None:
        while pos < len(line) and line[pos].isspace():
            pos += 1
        ident = _IDENT_RE.match(line, pos)
        if not ident:
            _err(self.errors, line_no, pos + 1, 1, ErrorCode.SYNTAX,
                 "expected a quantity name after 'quantity'")
            return
        name = ident.group()
        name_span = SourceSpan(line_no, pos + 1, len(name))
        pos = ident.end()
        while pos < len(line) and line[pos].isspace():
            pos += 1
        if pos >= len(line) or line[pos] != "=":
            _err(self.errors, line_no, pos + 1, 1, ErrorCode.SYNTAX,
                 f"expected '=' after quantity name {name!r}")
            return
        rhs = line[pos + 1 :]
        if not rhs.strip():
            _err(self.errors, line_no, pos + 2, 1, ErrorCode.SYNTAX,
                 "expected a dimension expression after '='")
            return
        self.quantities.append(_QuantityDecl(name, name_span, rhs, pos + 1, line_no))

    def _scan_constraint(self, line: str, line_no: int, pos: int) -> None:
        eq = line.find("=", pos)
        if eq < 0:
            _err(self.errors, line_no, len(line.rstrip()) + 1, 1, ErrorCode.SYNTAX,
                 "expected '=' in constraint")
            return
        lhs = line[pos:eq]
        rhs = line[eq + 1 :]
        token = rhs.strip()
        start = eq + 1 + (len(rhs) - len(rhs.lstrip()))
        constant: int | Fraction | None = None
        if not token or not _RATIONAL_RE.fullmatch(token):
            _err(self.errors, line_no, start + 1, len(token), ErrorCode.BAD_CONSTANT,
                 f"expected a positive rational constant, got {token!r}")
        else:
            constant = _parse_rational_token(token)
            if constant is None or constant <= 0:
                _err(self.errors, line_no, start + 1, len(token), ErrorCode.BAD_CONSTANT,
                     _too_long(token) or f"constraint constant must be positive, got {token!r}")
                constant = None
        self.constraints.append(
            _ConstraintDecl("monomial", line_no, lhs=lhs, lhs_offset=pos, constant=constant)
        )

    def _scan_jacobian_row(self, line: str, line_no: int, pos: int) -> None:
        after = self._expect_colon(line, line_no, pos, "jacobian_row")
        if after is None:
            return
        rest = line[after:]
        content = rest.strip()
        col = after + (len(rest) - len(rest.lstrip()))
        values = _parse_rational_list(rest, line_no, after, self.errors)
        if values is not None:
            span = SourceSpan(line_no, col + 1, max(len(content), 1))
            self.constraints.append(
                _ConstraintDecl("jacobian_row", line_no, row=values, span=span)
            )

    def _scan_basis_header(self, line: str, line_no: int, pos: int) -> bool:
        after = self._expect_colon(line, line_no, pos, "basis_override")
        if after is None:
            return False
        if line[after:].strip():
            _err(self.errors, line_no, after + 1, len(line[after:].strip()),
                 ErrorCode.SYNTAX, "unexpected text after 'basis_override:'")
            return False
        if self.seen_basis_block:
            _err(self.errors, line_no, 1, len("basis_override"), ErrorCode.SYNTAX,
                 "duplicate basis_override block")
            return False
        self.seen_basis_block = True
        return True

    # -- resolution ---------------------------------------------------------

    def resolve(self) -> Model | None:
        if self.dim_names is None:
            _err(self.errors, 1, 1, 1, ErrorCode.SYNTAX, "missing dimensions declaration")
            return None

        dim_index: dict[str, int] = {}
        dim_names: list[str] = []
        for name, span in self.dim_names:
            if name in dim_index:
                _err(self.errors, span.line, span.column, span.length,
                     ErrorCode.DUPLICATE_NAME, f"duplicate dimension name {name!r}")
                continue
            dim_index[name] = len(dim_names)
            dim_names.append(name)
        if not dim_names:
            _err(self.errors, 1, 1, 1, ErrorCode.SYNTAX,
                 "dimension system declares no dimensions")
            return None

        name_index: dict[str, int] = {}
        quantities: list[Quantity] = []
        for decl in self.quantities:
            if decl.name in name_index:
                _err(self.errors, decl.name_span.line, decl.name_span.column,
                     decl.name_span.length, ErrorCode.DUPLICATE_NAME,
                     f"duplicate quantity name {decl.name!r}")
                continue
            exps = _parse_dimexpr(decl.rhs, decl.line, decl.rhs_offset, dim_index, self.errors)
            if exps is None:
                exps = [0] * len(dim_names)  # keep resolving other lines
            name_index[decl.name] = len(quantities)
            quantities.append(Quantity(decl.name, tuple(exps)))
        n = len(quantities)

        constraints: list[Constraint] = []
        for decl in self.constraints:
            if decl.kind == "jacobian_row":
                assert decl.row is not None and decl.span is not None
                if len(decl.row) != n:
                    _err(self.errors, decl.span.line, decl.span.column, decl.span.length,
                         ErrorCode.SYNTAX,
                         f"jacobian row has {len(decl.row)} entries, expected {n}")
                    continue
                constraints.append(JacobianRowConstraint(tuple(decl.row)))
                continue
            exps = _parse_monomial(decl.lhs, decl.line, decl.lhs_offset, name_index, self.errors)
            if exps is None or decl.constant is None:
                continue
            if all(e == 0 for e in exps):
                stripped = decl.lhs.strip()
                col = decl.lhs_offset + (len(decl.lhs) - len(decl.lhs.lstrip()))
                _err(self.errors, decl.line, col + 1, max(len(stripped), 1),
                     ErrorCode.SYNTAX,
                     "constraint monomial is trivial (all exponents cancel)")
                continue
            constraints.append(MonomialConstraint(tuple(exps), decl.constant))

        basis: RatMatrix | None = None
        if self.seen_basis_block:  # a block without vectors is an n x 0 override
            usable = []
            ok = True
            for values, span in self.basis_rows:
                if len(values) != n:
                    _err(self.errors, span.line, span.column, span.length,
                         ErrorCode.SYNTAX,
                         f"basis vector has {len(values)} entries, expected {n}")
                    ok = False
                    continue
                usable.append(values)
            if ok:
                basis = RatMatrix.from_columns(usable, rows=n)

        if self.errors:
            return None
        return Model(
            DimensionSystem(tuple(dim_names)),
            tuple(quantities),
            tuple(constraints),
            basis,
        )


def parse_model(text: str) -> Model:
    """Parse model source text; raises :class:`ModelFileError` with every
    collected :class:`ParseError` when the text is invalid."""
    parser = _Parser(text)
    parser.scan()
    model = parser.resolve()
    if parser.errors or model is None:
        raise ModelFileError(parser.errors)
    return model


def parse_dimexpr(text: str, dims: DimensionSystem) -> tuple[Fraction, ...]:
    """Parse a dimension expression such as ``M L T^-2`` against `dims`."""
    errors: list[ParseError] = []
    index = {name: i for i, name in enumerate(dims.names)}
    exps = _parse_dimexpr(text, 1, 0, index, errors)
    if errors or exps is None:
        raise ModelFileError(errors)
    return tuple(map(Fraction, exps))


def parse_monomial(text: str, names: Sequence[str]) -> tuple[Fraction, ...]:
    """Parse a monomial such as ``(rho*U*L)/mu`` into an exponent vector over
    `names`."""
    errors: list[ParseError] = []
    index = {name: i for i, name in enumerate(names)}
    exps = _parse_monomial(text, 1, 0, index, errors)
    if errors or exps is None:
        raise ModelFileError(errors)
    return tuple(map(Fraction, exps))


# ---------------------------------------------------------------------------
# model rendering


def _render_dimexpr(dim_names: Sequence[str], exps: Sequence[Fraction]) -> str:
    parts = []
    for name, e in zip(dim_names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _render_constraint_monomial(names: Sequence[str], exps: Sequence[Fraction]) -> str:
    num: list[str] = []
    den: list[tuple[str, Fraction]] = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        if e > 0:
            num.append(name if e == 1 else f"{name}^{e}")
        else:
            den.append((name, -e))
    if not num:
        # all exponents negative: keep them explicit so the text reparses
        return " * ".join(f"{name}^{-e}" for name, e in den)
    out = " * ".join(num)
    for name, e in den:
        out += " / " + (name if e == 1 else f"{name}^{e}")
    return out


def constraint_label(names: Sequence[str], constraint: Constraint) -> str:
    """Human-readable one-line form of a constraint."""
    if constraint.kind == "monomial":
        lhs = _render_constraint_monomial(names, constraint.exponents)
        return f"{lhs} = {constraint.constant}"
    entries = ", ".join(str(x) for x in constraint.entries)
    return f"jacobian row [{entries}] (pointwise)"


def render_model(model: Model) -> str:
    """Canonical model source text; reparsing it reproduces the model."""
    lines = [f"dimensions: {', '.join(model.dims.names)}"]
    for q in model.quantities:
        lines.append(f"quantity {q.name} = {_render_dimexpr(model.dims.names, q.dim_exponents)}")
    names = model.quantity_names
    for c in model.constraints:
        if c.kind == "monomial":
            lines.append("constraint " + constraint_label(names, c))
        else:
            lines.append("jacobian_row: " + ", ".join(str(x) for x in c.entries))
    if model.basis_override is not None:
        lines.append("basis_override:")
        for j in range(model.basis_override.cols):
            lines.append(", ".join(str(x) for x in model.basis_override.column(j)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report rendering


def _matrix_cells(matrix: RatMatrix) -> list[list[str]]:
    """Each entry as text, row by row; an integer matrix prints its
    numerators as they are."""
    den, cols = matrix.den, matrix.cols
    text = [str(x) if den == 1 else str(Fraction(x, den)) for x in matrix.nums]
    return [text[i * cols : (i + 1) * cols] for i in range(matrix.rows)]


def _report_payload(report: AnalysisReport) -> dict:
    constraints = []
    for c in report.constraints:
        label = constraint_label(report.quantities, c)
        if c.kind == "monomial":
            constraints.append({
                "kind": "monomial",
                "label": label,
                "exponents": [str(x) for x in c.exponents],
                "constant": str(c.constant),
            })
        else:
            constraints.append({
                "kind": "jacobian_row",
                "label": label,
                "entries": [str(x) for x in c.entries],
            })
    relations = None
    if report.relations is not None:
        relations = [
            {
                "coeffs": [str(x) for x in r.coeffs],
                "pi_exponents": list(r.pi_exponents),
                "k_exponents": [str(x) for x in r.k_exponents],
                "constant": None if r.constant is None else str(r.constant),
                "pointwise": r.pointwise,
                "label": r.label,
            }
            for r in report.relations
        ]
    return {
        "schema": SCHEMA_VERSION,
        "n": report.n,
        "m": report.m,
        "ell": report.ell,
        "d": report.d,
        "d_eff": report.d_eff,
        "scale_invariant": report.scale_invariant,
        "d_eff_formulas": {
            "via_kernel_JE": report.deff.via_kernel_JE,
            "via_stacked_rank": report.deff.via_stacked_rank,
            "via_grassmann": report.deff.via_grassmann,
            "via_C_rank": report.deff.via_C_rank,
        },
        "dimensions": list(report.dimensions),
        "quantities": list(report.quantities),
        "pi_groups": [
            {"label": g.label, "exponents": list(g.exponents)} for g in report.pi_groups
        ],
        "constraints": constraints,
        "A": _matrix_cells(report.A),
        "J": _matrix_cells(report.J),
        "E": _matrix_cells(report.E),
        "C": None if report.C is None else _matrix_cells(report.C),
        "rref_C": None if report.rref_C is None else _matrix_cells(report.rref_C),
        "selected": None if report.selected is None else list(report.selected),
        "relations": relations,
        "warnings": list(report.warnings),
    }


_ANSI = {"green": "\x1b[32m", "red": "\x1b[31m", "yellow": "\x1b[33m", "bold": "\x1b[1m"}


def _paint(text: str, style: str, color: bool) -> str:
    if not color:
        return text
    return f"{_ANSI[style]}{text}\x1b[0m"


def _matrix_lines(matrix: RatMatrix) -> list[str]:
    if matrix.rows == 0 or matrix.cols == 0:
        return ["  (empty)"]
    cells = _matrix_cells(matrix)
    widths = [max(len(cells[i][j]) for i in range(matrix.rows)) for j in range(matrix.cols)]
    return [
        "  [" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
        for row in cells
    ]


def _render_text(report: AnalysisReport, color: bool) -> str:
    lines: list[str] = []
    lines.append(f"quantities (n = {report.n}): {', '.join(report.quantities)}")
    lines.append(f"dimensions (m = {report.m}): {', '.join(report.dimensions)}")
    if report.constraints:
        lines.append(f"constraints (ell = {report.ell}):")
        for k, c in enumerate(report.constraints):
            lines.append(f"  {k + 1}: {constraint_label(report.quantities, c)}")
    else:
        lines.append("constraints (ell = 0): none")
    lines.append(f"A ({report.A.rows}x{report.A.cols}):")
    lines.extend(_matrix_lines(report.A))
    lines.append(f"d = {report.d}")
    if report.pi_groups:
        lines.append("pi groups:")
        for k, g in enumerate(report.pi_groups):
            lines.append(f"  pi{k + 1} = {g.label}")
    else:
        lines.append("pi groups: none")
    if report.constraints:
        lines.append(f"J ({report.J.rows}x{report.J.cols}):")
        lines.extend(_matrix_lines(report.J))
    verdict = "yes" if report.scale_invariant else "no"
    lines.append(
        "scale invariant: "
        + _paint(verdict, "green" if report.scale_invariant else "red", color)
    )
    for warning in report.warnings:
        lines.append(_paint(f"warning: {warning}", "yellow", color))
    lines.append(f"d_eff = {report.d_eff}")
    lines.append(f"  via kernel of J*E:  {report.deff.via_kernel_JE}")
    lines.append(f"  via stacked rank:   {report.deff.via_stacked_rank}")
    lines.append(f"  via grassmann:      {report.deff.via_grassmann}")
    via_c = "n/a" if report.deff.via_C_rank is None else str(report.deff.via_C_rank)
    lines.append(f"  via rank of C:      {via_c}")
    if report.scale_invariant and report.C is not None:
        lines.append(f"C ({report.C.rows}x{report.C.cols}):")
        lines.extend(_matrix_lines(report.C))
        lines.append(f"rref(C) ({report.rref_C.rows}x{report.rref_C.cols}):")
        lines.extend(_matrix_lines(report.rref_C))
        if report.relations:
            lines.append("relations among pi groups:")
            for r in report.relations:
                lines.append(f"  relation: {r.label}")
        else:
            lines.append("relations among pi groups: none")
        chosen = ", ".join(f"pi{k + 1}" for k in report.selected)
        lines.append(
            f"independent set ({len(report.selected)} of {report.d}): "
            + (chosen if chosen else "(empty)")
        )
    return "\n".join(lines) + "\n"


def render_report(report: AnalysisReport, format: str = "text", *, color: bool = False) -> str:
    """Render an analysis report as ``text`` or ``json``.

    Both formats are deterministic byte for byte for a given report; color
    (text only) adds ANSI escapes and is off by default.
    """
    if format == "json":
        return json.dumps(_report_payload(report), indent=2) + "\n"
    if format == "text":
        return _render_text(report, color)
    raise ValueError(f"unknown report format: {format!r}")
