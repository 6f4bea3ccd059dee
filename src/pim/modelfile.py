"""Parser for the ``.pim`` model text format, plus report rendering.

File format (line oriented, ``#`` starts a comment anywhere):

    dimensions: M, L, T
    quantity F_D = M L T^-2          # dimension expression, or "1"
    constraint nu * rho / mu = 1     # monomial = positive rational constant
    jacobian_row: 0, 1, 0, 0, -1, 1  # raw pointwise Jacobian row, length n
    basis_override:                  # optional; one kernel vector per line
    1, -1, -2, -2, 0, 0

Rationals are written ``p`` or ``p/q`` in ASCII digits with an optional
leading minus.
Parsing collects as many errors as it can before giving up; every error
carries a source span pointing inside the offending token.

Reports render as human-readable text or as JSON in which every matrix
entry is an exact ``"p/q"`` string (schema version 1, field order fixed).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Iterator, Sequence

from .model import _IDENT_RE, MAX_DIGITS, DimensionSystem, Model, Quantity
from .ratlin import RatMatrix, Value
from .reduce import (
    AnalysisReport,
    Constraint,
    JacobianRowConstraint,
    MonomialConstraint,
)

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/([0-9]+))?")
_DIGITS_RE = re.compile(r"[0-9]+")
_SPACE_RE = re.compile(r"\s*")
_WORD_RE = re.compile(r"\S+")
_BAD_EXPONENT_RE = re.compile(r"[^\s*/()^]*")
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
    names sum."""
    words = list(_WORD_RE.finditer(text, pos))
    if not words:
        errors.add(pos, 1, ErrorCode.SYNTAX, "expected a dimension expression")
        return None
    exps: list[int | Fraction] = [0] * len(dim_index)
    if len(words) == 1 and words[0].group() == "1":
        return exps
    before = len(errors)
    for word in words:
        start, end = word.span()
        if word.group() == "1":
            errors.add(start, 1, ErrorCode.SYNTAX, "'1' must stand alone as a dimension expression")
            continue
        ident = _IDENT_RE.match(text, start, end)
        if not ident:
            errors.add(start, end - start, ErrorCode.SYNTAX,
                       f"expected a dimension name, got {word.group()!r}")
            continue
        name, at = ident.group(), ident.end()
        exp: int | Fraction | None = 1
        if at < end:
            if text[at] != "^":
                errors.add(at, end - at, ErrorCode.SYNTAX,
                           f"unexpected {text[at:end]!r} after dimension name {name!r}")
                continue
            exp = errors.rational(text[at + 1 : end], at + 1, ErrorCode.BAD_EXPONENT,
                                  "bad exponent {!r}: expected a rational like -2 or 1/2")
            if exp is None:
                continue
        if name in dim_index:
            exps[dim_index[name]] += exp
        else:
            errors.add(start, len(name), ErrorCode.UNKNOWN_DIMENSION,
                       f"unknown dimension {name!r}")
    return exps if len(errors) == before else None


def _monomial(
    errors: _Errors, text: str, pos: int, end: int, name_index: dict[str, int]
) -> list[int | Fraction] | None:
    """`factor (('*'|'/') factor)*` in `text[pos:end]`, where a factor is
    IDENT[^rational] or a parenthesized monomial. Read left to right:
    `signs` holds the sign of each open parenthesis, and `sign` that of the
    next factor, so nesting depth costs no stack frames."""
    exps: list[int | Fraction] = [0] * len(name_index)
    before = len(errors)
    signs = [1]
    sign = 1
    while True:
        pos = _SPACE_RE.match(text, pos, end).end()
        if pos < end and text[pos] == "(":
            signs.append(sign)
            pos += 1
            continue
        ident = _IDENT_RE.match(text, pos, end)
        if not ident:
            errors.add(pos, 1, ErrorCode.SYNTAX, f"expected a quantity name, got {text[pos]!r}"
                       if pos < end else "expected a quantity name")
            return None
        name, pos = ident.group(), ident.end()
        exp: int | Fraction | None = 1
        if pos < end and text[pos] == "^":
            pos += 1
            # a malformed exponent is skipped up to the next operator, so
            # errors after it are collected too
            token = _RATIONAL_RE.match(text, pos, end) or _BAD_EXPONENT_RE.match(text, pos, end)
            exp = errors.rational(token.group(), pos, ErrorCode.BAD_EXPONENT,
                                  "bad exponent: expected a rational like -2 or 1/2")
            pos = token.end()
        if name not in name_index:
            errors.add(ident.start(), len(name), ErrorCode.UNKNOWN_QUANTITY,
                       f"unknown quantity {name!r}")
        elif exp is not None:
            exps[name_index[name]] += sign * exp
        while True:  # after a factor: an operator, a ')' or the end
            pos = _SPACE_RE.match(text, pos, end).end()
            if pos < end and text[pos] in "*/":
                sign = signs[-1] if text[pos] == "*" else -signs[-1]
                pos += 1
                break
            if len(signs) == 1:
                if pos == end:
                    return exps if len(errors) == before else None
                errors.add(pos, end - pos, ErrorCode.SYNTAX,
                           f"unexpected {text[pos:end].strip()!r} after monomial")
                return None
            if pos == end or text[pos] != ")":
                errors.add(pos, 1, ErrorCode.SYNTAX, "missing ')'")
                return None
            signs.pop()
            pos += 1


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
        self.dims: list[tuple[str, int]] | None = None  # name, position
        self.dims_at = (0, 0)  # line and position of the dimensions keyword
        # line, name position, name, text, position of the expression
        self.quantities: list[tuple[int, int, str, str, int]] = []
        # line, text, start, end, value: a monomial in text[start:end] = value,
        # or with text None a jacobian row of entries value at start..end
        self.constraints: list[tuple[int, str | None, int, int, object]] = []
        self.basis_rows: list[tuple[int, int, int, list[int | Fraction]]] = []
        self.seen_basis_block = False

    # -- scanning -----------------------------------------------------------

    def scan(self) -> None:
        errors = self.errors
        in_basis = False
        for line_no, raw in enumerate(self.lines, start=1):
            cut = raw.find("#")
            line = raw if cut < 0 else raw[:cut]
            if not line.strip():
                continue
            errors.line = line_no
            kw = _KEYWORD_RE.match(line)
            if kw:
                in_basis = False
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
                elif word == "dimensions":
                    self._scan_dimensions(line, kw.start(1), after + 1)
                elif word == "jacobian_row":
                    values = _rationals(errors, line, after + 1)
                    if values is not None:
                        start = _SPACE_RE.match(line, after + 1).end()
                        self.constraints.append(
                            (line_no, None, start, len(line.rstrip()), values))
                else:
                    in_basis = self._scan_basis_header(line, kw.start(1), after + 1)
                continue
            start = _SPACE_RE.match(line).end()
            if in_basis:
                values = _rationals(errors, line, 0)
                if values is not None:
                    self.basis_rows.append((line_no, start, len(line.rstrip()), values))
                continue
            errors.add(start, len(line.split()[0]), ErrorCode.SYNTAX,
                       "expected one of: dimensions:, quantity, constraint, "
                       "jacobian_row:, basis_override:")

    def _scan_dimensions(self, line: str, keyword: int, pos: int) -> None:
        if self.dims is not None:
            self.errors.add(keyword, len("dimensions"), ErrorCode.SYNTAX,
                            "duplicate dimensions declaration")
            return
        self.dims = []
        self.dims_at = (self.errors.line, keyword)
        for token, at in _split_commas(line, pos):
            if _IDENT_RE.fullmatch(token):
                self.dims.append((token, at))
            else:
                self.errors.add(at, len(token), ErrorCode.SYNTAX,
                                f"expected a dimension name, got {token!r}")

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

    def _scan_basis_header(self, line: str, keyword: int, pos: int) -> bool:
        rest = line[pos:].strip()
        if rest:
            self.errors.add(pos, len(rest), ErrorCode.SYNTAX,
                            "unexpected text after 'basis_override:'")
            return False
        if self.seen_basis_block:
            self.errors.add(keyword, len("basis_override"), ErrorCode.SYNTAX,
                            "duplicate basis_override block")
            return False
        self.seen_basis_block = True
        return True

    # -- resolution ---------------------------------------------------------

    def resolve(self) -> Model | None:
        errors = self.errors
        if self.dims is None:
            errors.line = 1
            errors.add(0, 1, ErrorCode.SYNTAX, "missing dimensions declaration")
            return None
        errors.line, keyword = self.dims_at
        dim_index: dict[str, int] = {}
        for name, pos in self.dims:
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
            quantities.append(Quantity(name, tuple(exps)))
        n = len(quantities)

        constraints: list[Constraint] = []
        for errors.line, text, start, end, value in self.constraints:
            if text is None:
                if len(value) != n:
                    errors.add(start, end - start, ErrorCode.SYNTAX,
                               f"jacobian row has {len(value)} entries, expected {n}")
                else:
                    constraints.append(JacobianRowConstraint(tuple(value)))
                continue
            exps = _monomial(errors, text, start, end, name_index)
            if exps is None or value is None:
                continue
            if not any(exps):
                lead = _SPACE_RE.match(text, start, end).end()
                errors.add(lead, len(text[start:end].strip()), ErrorCode.SYNTAX,
                           "constraint monomial is trivial (all exponents cancel)")
                continue
            constraints.append(MonomialConstraint(tuple(exps), value))

        if self.seen_basis_block:
            for errors.line, start, end, values in self.basis_rows:
                if len(values) != n:
                    errors.add(start, end - start, ErrorCode.SYNTAX,
                               f"basis vector has {len(values)} entries, expected {n}")
        if errors:
            return None
        basis = None
        if self.seen_basis_block:  # a block without vectors is an n x 0 override
            basis = RatMatrix.from_columns([row for *_, row in self.basis_rows], rows=n)
        return Model(
            DimensionSystem(tuple(dim_index)),
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
    if model is None:
        raise ModelFileError(parser.errors)
    return model


def parse_dimexpr(text: str, dims: DimensionSystem) -> tuple[Fraction, ...]:
    """Parse a dimension expression such as ``M L T^-2`` against `dims`."""
    errors = _Errors()
    exps = _dimexpr(errors, text, 0, {name: i for i, name in enumerate(dims.names)})
    if exps is None:
        raise ModelFileError(errors)
    return tuple(map(Fraction, exps))


def parse_monomial(text: str, names: Sequence[str]) -> tuple[Fraction, ...]:
    """Parse a monomial such as ``(rho*U*L)/mu`` into an exponent vector over
    `names`."""
    errors = _Errors()
    exps = _monomial(errors, text, 0, len(text), {name: i for i, name in enumerate(names)})
    if exps is None:
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
        p, q = e.as_integer_ratio()
        if p == 0:
            continue
        if q == 1:
            e = p  # a whole exponent compares and prints as an int
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
    """Each entry as text, row by row, as str(Fraction(x, den)) prints it.
    den > 0 and gcd(0, den) == den, so a zero prints as 0."""
    den, cols = matrix.den, matrix.cols
    if den == 1:
        text = list(map(str, matrix.nums))
    else:
        text = []
        for x in matrix.nums:
            g = gcd(x, den)
            text.append(str(x // g) if g == den else f"{x // g}/{den // g}")
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


def _render_text(payload: dict, color: bool) -> str:
    """The text report, read off the JSON payload only."""
    n, m, ell, d = payload["n"], payload["m"], payload["ell"], payload["d"]
    constraints, groups = payload["constraints"], payload["pi_groups"]
    lines = [
        f"quantities (n = {n}): {', '.join(payload['quantities'])}",
        f"dimensions (m = {m}): {', '.join(payload['dimensions'])}",
    ]
    if constraints:
        lines.append(f"constraints (ell = {ell}):")
        lines.extend(f"  {k}: {c['label']}" for k, c in enumerate(constraints, 1))
    else:
        lines.append("constraints (ell = 0): none")
    lines += _matrix_lines("A", payload["A"], m, n)
    lines.append(f"d = {d}")
    if groups:
        lines.append("pi groups:")
        lines.extend(f"  pi{k} = {g['label']}" for k, g in enumerate(groups, 1))
    else:
        lines.append("pi groups: none")
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
    if invariant and payload["C"] is not None:
        lines += _matrix_lines("C", payload["C"], ell, d)
        lines += _matrix_lines("rref(C)", payload["rref_C"], ell, d)
        if payload["relations"]:
            lines.append("relations among pi groups:")
            lines.extend(f"  relation: {r['label']}" for r in payload["relations"])
        else:
            lines.append("relations among pi groups: none")
        selected = payload["selected"]
        chosen = ", ".join(f"pi{k + 1}" for k in selected)
        lines.append(f"independent set ({len(selected)} of {d}): {chosen or '(empty)'}")
    return "\n".join(lines) + "\n"


def _json(value: object, pad: str) -> str:
    """value as json.dumps(value, indent=2) writes it, byte for byte, for
    the payload's types: dict with str keys, list, str, int, bool and None.
    pad is the indent of the line that value starts on.

    With an indent, json.dumps runs the pure-Python encoder; this writer
    calls the same C string encoder, and writes a list of only strings
    (every matrix row) or only ints in one join, quoting the strings itself
    when none of them needs an escape.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join(
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    types = set(map(type, value))
    if types == {str}:
        joined = "".join(value)
        # the encoder escapes character by character, so no item needs it
        if encode_basestring_ascii(joined)[1:-1] == joined:
            body = '"' + ('"' + sep + '"').join(value) + '"'
        else:
            body = sep.join(map(encode_basestring_ascii, value))
    elif types == {int}:  # not bool, which writes true and false
        body = sep.join(map(int.__repr__, value))
    else:
        body = sep.join([_json(x, inner) for x in value])
    return f"[\n{inner}{body}\n{pad}]"


def render_report(report: AnalysisReport, format: str = "text", *, color: bool = False) -> str:
    """Render an analysis report as ``text`` or ``json``.

    Both formats print the one schema-v1 payload of the report, so they
    agree on every label and cell. Both are deterministic byte for byte for
    a given report; color (text only) adds ANSI escapes and is off by
    default.
    """
    if format not in ("text", "json"):
        raise ValueError(f"unknown report format: {format!r}")
    payload = _report_payload(report)
    if format == "json":
        return _json(payload, "") + "\n"
    return _render_text(payload, color)
