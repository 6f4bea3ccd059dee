"""Parser for the ``.pim`` model text format, plus report rendering.

File format (line oriented, ``#`` starts a comment anywhere):

    dimensions: M, L, T
    quantity F_D = M L T^-2          # dimension expression, or "1"
    constraint nu * rho / mu = 1     # monomial = positive rational constant
    jacobian_row: 0, 1, 0, 0, -1, 1  # raw pointwise Jacobian row, length n
    repeating: rho, U, L             # optional; the pi basis's repeating quantities

Rationals are written ``p`` or ``p/q`` in ASCII digits with an optional
leading minus. One regex match reads a term ``NAME^p`` (the longest name,
then the longest rational after a ``^``) or a row of whole numbers. One
findall reads a whole dimension expression, or a whole monomial without
parentheses, when every term in it is a known name with no exponent or a
whole one of at most MAX_DIGITS characters; a lone ``1`` is read whole
too. What does not match is read term by term and token by token, to say
why: those readers make every diagnostic. They are the private
``pim._terms``, which the first expression that the one-regex readers
refuse imports. Parsing collects as many errors as it can; every error
carries a source span pointing inside the offending token. Every
directive is one line; a second ``dimensions:`` or ``repeating:`` line is
an error.

Reports render as human-readable text or as JSON in which every matrix
entry is an exact ``"p/q"`` string (schema version 1, field order fixed).
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import gcd

from .model import _IDENT_RE, MAX_DIGITS, DimensionSystem, Model, Quantity
from .ratlin import _INT_TEXT, RatMatrix, Value
from .reduce import (
    AnalysisReport,
    Constraint,
    JacobianRowConstraint,
    MonomialConstraint,
    Relation,
)

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/([0-9]+))?")
# A term NAME^p: the longest name, then what _RATIONAL_RE reads after a '^'
# (groups: the name, the exponent, the exponent's denominator).
_TERM = rf"({_IDENT_RE.pattern})(?:\^({_RATIONAL_RE.pattern}))?"
# A whitespace-separated word: a whole term (the name group set), or any other.
_WORD_RE = re.compile(_TERM + r"(?!\S)|\S+")
# An operator, a term and the space after it; or any other character (no
# group set), so that consecutive matches cover the whole text.
_FACTOR_RE = re.compile(rf"\s*([*/])\s*{_TERM}\s*|(?s:.)")
# Comma-separated ASCII integers of at most MAX_DIGITS digits each.
_INT = rf"[ \t]*-?[0-9]{{1,{MAX_DIGITS}}}[ \t]*"
_INTEGERS_RE = re.compile(f"{_INT}(?:,{_INT})*")
_DIGITS_RE = re.compile(r"[0-9]+")
_SPACE_RE = re.compile(r"\s*")
# Every directive, written as the error for a line that starts with none.
_DIRECTIVES = ("dimensions:", "quantity", "constraint", "jacobian_row:", "repeating:")
_KEYWORD_RE = re.compile(rf"\s*({'|'.join(d.rstrip(':') for d in _DIRECTIVES)})\b")
_NO_DIRECTIVE = "expected one of: " + ", ".join(_DIRECTIVES)

SCHEMA_VERSION = 1


class ErrorCode(str, Enum):
    UNKNOWN_DIMENSION = "unknown-dimension"
    UNKNOWN_QUANTITY = "unknown-quantity"
    DUPLICATE_NAME = "duplicate-name"
    BAD_EXPONENT = "bad-exponent"
    BAD_CONSTANT = "bad-constant"
    SYNTAX = "syntax"


class SourceSpan(Value):
    """1-based line/column location of a token in the source text, and the
    token's length."""

    __slots__ = ("line", "column", "length")
    _defaults = {"length": 1}

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Value):
    """One error of a parse: its SourceSpan, ErrorCode and message."""

    __slots__ = ("span", "code", "message")

    def __str__(self) -> str:
        return f"{self.span}: {self.code.value}: {self.message}"


class ModelFileError(ValueError):
    """Parse failure carrying every error that was collected."""

    def __init__(self, errors: Sequence[ParseError]):
        self.errors = tuple(errors)
        super().__init__("; ".join(str(e) for e in self.errors) or "parse failed")


class _Errors(list):
    """The errors of one parse, in order; new ones are reported on `line`."""

    line = 1

    def add(self, pos: int, length: int, code: ErrorCode, message: str) -> None:
        """Report an error at the 0-based position `pos` of the current line."""
        self.append(ParseError(SourceSpan(self.line, pos + 1, max(length, 1)), code, message))

    def rational(
        self, token: str, pos: int, code: ErrorCode, template: str
    ) -> int | Fraction | None:
        """int from a `p` token, Fraction from a `p/q` token, or None after
        reporting why the token at `pos` is not one: the length of a run of
        more than MAX_DIGITS digits in it, rational or not, `template`
        formatted with the token, or a zero denominator."""
        rational = _RATIONAL_RE.fullmatch(token)
        digits = 0
        if len(token) > MAX_DIGITS:
            digits = max(map(len, _DIGITS_RE.findall(token)), default=0)
        if digits > MAX_DIGITS:
            message = f"number has {digits} digits, more than the {MAX_DIGITS} allowed"
        elif rational is None:
            message = template.format(token)
        elif rational[1] is None:
            return int(token)
        elif int(rational[1]):
            return Fraction(token)
        else:
            message = f"rational {token!r} has a zero denominator"
        self.add(pos, len(token), code, message)
        return None


def _split_commas(text: str, pos: int) -> Iterator[tuple[str, int]]:
    """Each comma-separated token of `text[pos:]`, stripped, with its position."""
    for segment in text[pos:].split(","):
        token = segment.strip()
        yield token, pos + len(segment) - len(segment.lstrip())
        pos += len(segment) + 1


def _rationals(errors: _Errors, text: str, pos: int) -> list[int | Fraction] | None:
    """The comma-separated rationals of `text[pos:]`."""
    if _INTEGERS_RE.fullmatch(text, pos):
        return list(map(int, text[pos:].split(",")))
    before = len(errors)
    values = [
        errors.rational(token, at, ErrorCode.SYNTAX, "expected a rational number, got {!r}")
        for token, at in _split_commas(text, pos)
    ]
    return values if len(errors) == before else None


# ---------------------------------------------------------------------------
# expression parsing


def _dimexpr(
    errors: _Errors, text: str, pos: int, dim_index: dict[str, int]
) -> list[int | Fraction] | None:
    """Whitespace-separated IDENT[^rational] terms of `text[pos:]`; repeated
    names sum, and a lone "1" is dimensionless. One findall reads an
    expression of known names with short whole exponents; any other is read
    by pim._terms._dimexpr_terms, imported only then."""
    exps: list[int | Fraction] = [0] * len(dim_index)
    words = _WORD_RE.findall(text, pos)
    for name, exp, den in words:
        # a word that is not a whole term has the name '', which no dimension has
        if name not in dim_index or den or len(exp) > MAX_DIGITS:
            break
        exps[dim_index[name]] += int(exp) if exp else 1
    else:
        if words:
            return exps
    if text[pos:].split() == ["1"]:  # the one word that is no term, a dimensionless quantity
        return exps
    from ._terms import _dimexpr_terms

    return _dimexpr_terms(errors, text, pos, dim_index)


def _monomial(
    errors: _Errors, text: str, pos: int, end: int, name_index: dict[str, int]
) -> list[int | Fraction] | None:
    """`factor (('*'|'/') factor)*` in `text[pos:end]`, where a factor is
    IDENT[^rational] or a parenthesized monomial. One findall reads a
    monomial of known names with short whole exponents and no parentheses;
    any other is read by pim._terms._monomial_terms, imported only then."""
    exps: list[int | Fraction] = [0] * len(name_index)
    # With a '*' before it, every factor follows an operator. A character
    # that no factor reads has the name '', which no quantity has.
    for op, name, exp, den in _FACTOR_RE.findall("*" + text[pos:end]):
        if name not in name_index or den or len(exp) > MAX_DIGITS:
            from ._terms import _monomial_terms

            return _monomial_terms(errors, text, pos, end, name_index)
        value = int(exp) if exp else 1
        exps[name_index[name]] += value if op == "*" else -value
    return exps


# ---------------------------------------------------------------------------
# model file parsing


class _Parser:
    """Scan reads each line on its own; resolve then reads what refers to
    names, so a constraint may name a quantity declared after it."""

    def __init__(self, text: str):
        self.errors = _Errors()
        # Only \r\n, \r and \n end a line; str.splitlines also splits at
        # \x0b, \x0c, \x1c-\x1e, U+0085, U+2028 and U+2029.
        self.lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        # dimensions or repeating, each read from its one line: that line,
        # the keyword's position, and each name with its position
        self.once: dict[str, tuple[int, int, list[tuple[str, int]]]] = {}
        # line, name position, name, text, position of the expression
        self.quantities: list[tuple[int, int, str, str, int]] = []
        # line, text, start, end, value: a monomial in text[start:end] = value,
        # or with text None a row (_scan_row) of entries value at start..end
        self.constraints: list[tuple[int, str | None, int, int, object]] = []

    # -- scanning -----------------------------------------------------------

    def scan(self) -> None:
        errors = self.errors
        for line_no, raw in enumerate(self.lines, start=1):
            cut = raw.find("#")
            line = raw if cut < 0 else raw[:cut]
            if not line.strip():
                continue
            errors.line = line_no
            kw = _KEYWORD_RE.match(line)
            if not kw:
                errors.add(_SPACE_RE.match(line).end(), len(line.split()[0]), ErrorCode.SYNTAX,
                           _NO_DIRECTIVE)
                continue
            word = kw.group(1)
            if word == "quantity":
                self._scan_quantity(line, kw.end())
                continue
            if word == "constraint":
                self._scan_constraint(line, kw.end())
                continue
            after = _SPACE_RE.match(line, kw.end()).end()
            if after == len(line) or line[after] != ":":
                errors.add(after, 1, ErrorCode.SYNTAX, f"expected ':' after '{word}'")
            elif word == "jacobian_row":
                self._scan_row(line, after + 1)
            elif word in self.once:
                errors.add(kw.start(1), len(word), ErrorCode.DUPLICATE_NAME,
                           f"duplicate {word} declaration")
            else:
                what = "dimension" if word == "dimensions" else "quantity"
                self.once[word] = (line_no, kw.start(1), self._names(line, after + 1, what))

    def _scan_row(self, line: str, pos: int) -> None:
        """Append the comma-separated rationals of `line[pos:]` to the
        constraints as (line, None, start, end, values), the span of their
        stripped text."""
        values = _rationals(self.errors, line, pos)
        if values is not None:
            start = _SPACE_RE.match(line, pos).end()
            self.constraints.append((self.errors.line, None, start, len(line.rstrip()), values))

    def _names(self, line: str, pos: int, what: str) -> list[tuple[str, int]]:
        """The comma-separated names of `line[pos:]`, each with its position;
        any other token is an error."""
        names = []
        for token, at in _split_commas(line, pos):
            if _IDENT_RE.fullmatch(token):
                names.append((token, at))
            else:
                self.errors.add(at, len(token), ErrorCode.SYNTAX,
                                f"expected a {what} name, got {token!r}")
        return names

    def _scan_quantity(self, line: str, pos: int) -> None:
        pos = _SPACE_RE.match(line, pos).end()
        ident = _IDENT_RE.match(line, pos)
        if not ident:
            self.errors.add(pos, 1, ErrorCode.SYNTAX, "expected a quantity name after 'quantity'")
            return
        eq = _SPACE_RE.match(line, ident.end()).end()
        if eq == len(line) or line[eq] != "=":
            self.errors.add(eq, 1, ErrorCode.SYNTAX,
                            f"expected '=' after quantity name {ident.group()!r}")
        elif not line[eq + 1 :].strip():
            self.errors.add(eq + 1, 1, ErrorCode.SYNTAX,
                            "expected a dimension expression after '='")
        else:
            self.quantities.append((self.errors.line, pos, ident.group(), line, eq + 1))

    def _scan_constraint(self, line: str, pos: int) -> None:
        eq = line.find("=", pos)
        if eq < 0:
            self.errors.add(len(line.rstrip()), 1, ErrorCode.SYNTAX, "expected '=' in constraint")
            return
        token = line[eq + 1 :].strip()
        start = _SPACE_RE.match(line, eq + 1).end()
        constant = self.errors.rational(token, start, ErrorCode.BAD_CONSTANT,
                                        "expected a positive rational constant, got {!r}")
        if constant is not None and constant <= 0:
            self.errors.add(start, len(token), ErrorCode.BAD_CONSTANT,
                            f"constraint constant must be positive, got {token!r}")
            constant = None
        self.constraints.append((self.errors.line, line, pos, eq, constant))

    # -- resolution ---------------------------------------------------------

    def resolve(self) -> Model | None:
        errors = self.errors
        if "dimensions" not in self.once:
            errors.line = 1
            errors.add(0, 1, ErrorCode.SYNTAX, "missing dimensions declaration")
            return None
        errors.line, keyword, names = self.once["dimensions"]
        dim_index: dict[str, int] = {}
        for name, pos in names:
            if name in dim_index:
                errors.add(pos, len(name), ErrorCode.DUPLICATE_NAME,
                           f"duplicate dimension name {name!r}")
            else:
                dim_index[name] = len(dim_index)
        if not dim_index:
            errors.add(keyword, len("dimensions"), ErrorCode.SYNTAX,
                       "dimension system declares no dimensions")
            return None

        name_index: dict[str, int] = {}
        quantities: list[Quantity] = []
        # each loop below sets the line that errors are reported on
        for errors.line, pos, name, text, start in self.quantities:
            if name in name_index:
                errors.add(pos, len(name), ErrorCode.DUPLICATE_NAME,
                           f"duplicate quantity name {name!r}")
                continue
            exps = _dimexpr(errors, text, start, dim_index)
            if exps is None:
                exps = [0] * len(dim_index)  # keep resolving other lines
            name_index[name] = len(quantities)
            quantities.append(Quantity(name, exps))
        n = len(quantities)

        constraints: list[Constraint] = []
        for errors.line, text, start, end, value in self.constraints:
            if text is None:
                if len(value) != n:
                    errors.add(start, end - start, ErrorCode.SYNTAX,
                               f"jacobian row has {len(value)} entries, expected {n}")
                else:
                    constraints.append(JacobianRowConstraint(value))
                continue
            exps = _monomial(errors, text, start, end, name_index)
            if exps is None or value is None:
                continue
            if not any(exps):
                lead = _SPACE_RE.match(text, start, end).end()
                errors.add(lead, len(text[start:end].strip()), ErrorCode.SYNTAX,
                           "constraint monomial is trivial (all exponents cancel)")
                continue
            constraints.append(MonomialConstraint(exps, value))

        repeating: list[str] = []
        errors.line, _, names = self.once.get("repeating", (0, 0, ()))
        for name, pos in names:
            if name not in name_index:
                errors.add(pos, len(name), ErrorCode.UNKNOWN_QUANTITY,
                           f"unknown quantity {name!r}")
            elif name in repeating:
                errors.add(pos, len(name), ErrorCode.DUPLICATE_NAME,
                           f"duplicate repeating quantity {name!r}")
            else:
                repeating.append(name)
        if errors:
            return None
        return Model(DimensionSystem(dim_index), quantities, constraints, repeating)


def parse_model(text: str) -> Model:
    """Parse model source text; raises :class:`ModelFileError` with every
    collected :class:`ParseError` when the text is invalid."""
    parser = _Parser(text)
    parser.scan()
    model = parser.resolve()
    if model is None:
        raise ModelFileError(parser.errors)
    return model


def _read_exponents(read, text: str, names: Sequence[str], *end: int) -> tuple[Fraction, ...]:
    """What `read` (_dimexpr or _monomial) finds in `text`, or ModelFileError."""
    errors = _Errors()
    exps = read(errors, text, 0, *end, {name: i for i, name in enumerate(names)})
    if exps is None:
        raise ModelFileError(errors)
    return tuple(map(Fraction, exps))


def parse_dimexpr(text: str, dims: DimensionSystem) -> tuple[Fraction, ...]:
    """Parse a dimension expression such as ``M L T^-2`` against `dims`."""
    return _read_exponents(_dimexpr, text, dims.names)


def parse_monomial(text: str, names: Sequence[str]) -> tuple[Fraction, ...]:
    """Parse a monomial such as ``(rho*U*L)/mu`` into an exponent vector over
    `names`."""
    return _read_exponents(_monomial, text, names, len(text))


# ---------------------------------------------------------------------------
# model rendering


def _render_dimexpr(dim_names: Sequence[str], exps: Sequence[Fraction]) -> str:
    parts = []
    for name, e in zip(dim_names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _render_constraint_monomial(names: Sequence[str], exps: Sequence[str]) -> str:
    """The monomial with exponents `exps`, each as str(Fraction) prints it."""
    num: list[str] = []
    den: list[tuple[str, str]] = []
    for name, e in zip(names, exps):
        if e == "0":
            continue
        if e[0] == "-":
            den.append((name, e))
        else:
            num.append(name if e == "1" else f"{name}^{e}")
    if not num:
        # all exponents negative: keep them explicit so the text reparses
        return " * ".join(f"{name}^{e}" for name, e in den)
    out = " * ".join(num)
    for name, e in den:
        out += " / " + (name if e == "-1" else f"{name}^{e[1:]}")
    return out


def format_monomial(
    names: Sequence[str],
    exponents: Sequence[int],
    *,
    spaced: bool = False,
) -> str:
    """Render an integer exponent vector as monomial text, e.g.
    ``(rho*U*L)/mu``: the label of a pi group, a column of a report's E.

    Positive exponents go to the numerator, negative to the denominator,
    factors in declaration order. With ``spaced=True`` operators get spaces
    (used for relations among pi groups: ``pi2 / pi3``).
    """
    num: list[str] = []
    den: list[str] = []
    for name, e in compress(zip(names, exponents), exponents):
        if e > 0:
            num.append(name if e == 1 else f"{name}^{_INT_TEXT[e]}")
        else:
            den.append(name if e == -1 else f"{name}^{_INT_TEXT[-e]}")
    sep = " * " if spaced else "*"
    slash = " / " if spaced else "/"
    num_txt = sep.join(num) if num else "1"
    if num and len(num) > 1 and den and not spaced:
        num_txt = f"({num_txt})"
    if not den:
        return num_txt
    den_txt = sep.join(den)
    if len(den) > 1:
        den_txt = f"({den_txt})"
    return f"{num_txt}{slash}{den_txt}"


def _format_constants_monomial(k_exponents: Sequence[str]) -> str:
    """prod_k K_k ** k_exponents[k], each exponent as str(Fraction) prints
    it, e.g. ``K1^(-1/2) * K2``."""
    parts = []
    for idx, exp in enumerate(k_exponents, 1):
        if exp == "0":
            continue
        if exp == "1":
            parts.append(f"K{idx}")
        elif exp[0] == "-" or "/" in exp:
            parts.append(f"K{idx}^({exp})")
        else:
            parts.append(f"K{idx}^{exp}")
    return " * ".join(parts) if parts else "1"


def _constraint_entry(names: Sequence[str], c: Constraint, vector: list[str]) -> dict:
    """The schema-v1 entry of a constraint: its kind, its one-line label,
    then its exponents and constant or its entries. `vector` is c.vector
    as str(Fraction) prints it; the constant is formatted here, once, and
    the label is built from those strings."""
    if c.kind == "monomial":
        constant = str(c.constant)
        label = f"{_render_constraint_monomial(names, vector)} = {constant}"
        return {"kind": c.kind, "label": label, "exponents": vector, "constant": constant}
    label = f"jacobian row [{', '.join(vector)}] (pointwise)"
    return {"kind": c.kind, "label": label, "entries": vector}


def render_model(model: Model) -> str:
    """Canonical model source text; reparsing it reproduces the model."""
    lines = [f"dimensions: {', '.join(model.dims.names)}"]
    for q in model.quantities:
        lines.append(f"quantity {q.name} = {_render_dimexpr(model.dims.names, q.dim_exponents)}")
    names = model.quantity_names
    for c in model.constraints:
        entry = _constraint_entry(names, c, [str(x) for x in c.vector])
        if c.kind == "monomial":
            lines.append("constraint " + entry["label"])
        else:
            lines.append("jacobian_row: " + ", ".join(entry["entries"]))
    if model.repeating:
        lines.append("repeating: " + ", ".join(model.repeating))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report rendering


def _matrix_cells(matrix: RatMatrix) -> list[list[str]]:
    """Each entry as text, row by row, as str(Fraction(x, den)) prints it.
    den > 0 and gcd(0, den) == den, so a zero prints as 0. Every cell
    matches -?[0-9]+(/[0-9]+)?, so the JSON writer quotes it unescaped."""
    den = matrix.den
    if den == 1:
        return [list(map(_INT_TEXT.__getitem__, row)) for row in matrix.nums]

    def cell(x: int) -> str:
        g = gcd(x, den)
        if g == den:
            return _INT_TEXT[x // g]
        return f"{_INT_TEXT[x // g]}/{_INT_TEXT[den // g]}"

    return [list(map(cell, row)) for row in matrix.nums]


def _relation_entry(pi_names: Sequence[str], r: Relation, coeffs: list[str]) -> dict:
    """The schema-v1 entry of a relation. `coeffs` is its row of rref(C) as
    cells; its k_exponents and constant are formatted here, once, and the
    label is built from those strings."""
    k_exponents = [str(x) for x in r.k_exponents]
    constant = None if r.constant is None else str(r.constant)
    if r.pointwise:
        right = "const (pointwise)"
    elif constant is not None:
        right = constant
    else:
        right = _format_constants_monomial(k_exponents)
    return {
        "coeffs": coeffs,
        "pi_exponents": list(r.pi_exponents),
        "k_exponents": k_exponents,
        "constant": constant,
        "pointwise": r.pointwise,
        "label": f"{format_monomial(pi_names, r.pi_exponents, spaced=True)} = {right}",
    }


_NOT_INVARIANT = (
    "constraints are not scale-invariant (J @ A^T != 0); "
    "the C-based elimination of redundant pi groups is skipped"
)


def _report_payload(report: AnalysisReport) -> dict:
    """The schema-v1 payload. Each number of a matrix is formatted once, as
    a cell: row k of J is constraint k's vector and row i of rref(C) is
    relation i's coeffs, so those share the cells' strings. Pi group k is
    column k of E, an integer matrix.

    ``d_eff_formulas`` prints the report's one d_eff in four forms, each
    equal to it by an identity. For any J, E maps R^d onto ker A, so
    dim ker(J E) (``via_kernel_JE``) is dim(ker A meet ker J) =
    n - rank [A; J] (``via_stacked_rank``), and by Grassmann's formula that
    is n - rank A - rank J + dim(rowspace A meet rowspace J)
    (``via_grassmann``). ``via_C_rank``, d - rank C, exists only for
    scale-invariant constraints and is None otherwise; there J = C E^T with
    E of full column rank, so rank C = rank J = rank(J E).
    """
    d_eff = report.d_eff
    j_cells = _matrix_cells(report.J)
    rref_cells = None if report.rref_C is None else _matrix_cells(report.rref_C)
    relations = None
    if report.relations is not None:
        pi_names = [f"pi{k}" for k in range(1, report.d + 1)]
        relations = [
            _relation_entry(pi_names, r, coeffs)
            for r, coeffs in zip(report.relations, rref_cells)
        ]
    return {
        "schema": SCHEMA_VERSION,
        "n": report.n,
        "m": report.m,
        "ell": report.ell,
        "d": report.d,
        "d_eff": d_eff,
        "scale_invariant": report.scale_invariant,
        "d_eff_formulas": {
            "via_kernel_JE": d_eff,
            "via_stacked_rank": d_eff,
            "via_grassmann": d_eff,
            "via_C_rank": d_eff if report.scale_invariant else None,
        },
        "dimensions": list(report.dimensions),
        "quantities": list(report.quantities),
        "pi_groups": [
            {"label": format_monomial(report.quantities, column), "exponents": list(column)}
            for column in zip(*report.E.nums)
        ],
        "constraints": [
            _constraint_entry(report.quantities, c, row)
            for c, row in zip(report.constraints, j_cells)
        ],
        "A": _matrix_cells(report.A),
        "J": j_cells,
        "E": _matrix_cells(report.E),
        "C": None if report.C is None else _matrix_cells(report.C),
        "rref_C": rref_cells,
        "selected": None if report.selected is None else list(report.selected),
        "relations": relations,
        "warnings": [] if report.scale_invariant else [_NOT_INVARIANT],
    }


_ANSI = {"green": "\x1b[32m", "red": "\x1b[31m", "yellow": "\x1b[33m"}
# the formats render_report writes, which are the CLI's --format choices
_FORMATS = ("text", "json")


def _paint(text: str, style: str, color: bool) -> str:
    if not color:
        return text
    return f"{_ANSI[style]}{text}\x1b[0m"


def _matrix_lines(name: str, cells: list[list[str]], rows: int, cols: int) -> list[str]:
    """The heading ``name (rows x cols):`` and the cell rows, each column
    right-aligned."""
    heading = f"{name} ({rows}x{cols}):"
    if rows == 0 or cols == 0:
        return [heading, "  (empty)"]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return [heading] + [
        "  [" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
        for row in cells
    ]


def _section(title: str, lines: list[str]) -> list[str]:
    """A titled block of lines, or its title and none if it has no lines."""
    return [f"{title}:", *lines] if lines else [f"{title}: none"]


def _render_text(payload: dict, color: bool) -> str:
    """The text report, read off the JSON payload only."""
    n, m, ell, d = payload["n"], payload["m"], payload["ell"], payload["d"]
    constraints, groups = payload["constraints"], payload["pi_groups"]
    lines = [
        f"quantities (n = {n}): {', '.join(payload['quantities'])}",
        f"dimensions (m = {m}): {', '.join(payload['dimensions'])}",
    ]
    numbered = [f"  {k}: {c['label']}" for k, c in enumerate(constraints, 1)]
    lines += _section(f"constraints (ell = {ell})", numbered)
    lines += _matrix_lines("A", payload["A"], m, n)
    lines.append(f"d = {d}")
    lines += _section("pi groups", [f"  pi{k} = {g['label']}" for k, g in enumerate(groups, 1)])
    if constraints:
        lines += _matrix_lines("J", payload["J"], ell, n)
    invariant = payload["scale_invariant"]
    verdict = _paint("yes", "green", color) if invariant else _paint("no", "red", color)
    lines.append(f"scale invariant: {verdict}")
    lines.extend(_paint(f"warning: {w}", "yellow", color) for w in payload["warnings"])
    forms = payload["d_eff_formulas"]
    via_c = forms["via_C_rank"]
    lines += [
        f"d_eff = {payload['d_eff']}",
        f"  via kernel of J*E:  {forms['via_kernel_JE']}",
        f"  via stacked rank:   {forms['via_stacked_rank']}",
        f"  via grassmann:      {forms['via_grassmann']}",
        f"  via rank of C:      {'n/a' if via_c is None else via_c}",
    ]
    if payload["C"] is not None:
        lines += _matrix_lines("C", payload["C"], ell, d)
        lines += _matrix_lines("rref(C)", payload["rref_C"], ell, d)
        relations = [f"  relation: {r['label']}" for r in payload["relations"]]
        lines += _section("relations among pi groups", relations)
        selected = payload["selected"]
        chosen = ", ".join(f"pi{k + 1}" for k in selected)
        lines.append(f"independent set ({len(selected)} of {d}): {chosen or '(empty)'}")
    return "\n".join(lines) + "\n"


def render_report(report: AnalysisReport, format: str = "text", *, color: bool = False) -> str:
    """Render an analysis report as ``text`` or ``json``.

    Both formats print the one schema-v1 payload of the report, so they
    agree on every label and cell. Both are deterministic byte for byte for
    a given report; color (text only) adds ANSI escapes and is off by
    default. The JSON report is json.dumps(payload, indent=2) plus a
    newline, as ``pim._jsonwriter`` writes it.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown report format: {format!r}")
    payload = _report_payload(report)
    if format == "json":
        from ._jsonwriter import report_json  # only a JSON report loads it

        return report_json(payload) + "\n"
    return _render_text(payload, color)
