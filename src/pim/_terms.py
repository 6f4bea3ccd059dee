"""The term-by-term readers of dimension expressions and monomials. They
read what the one-regex readers in ``pim.modelfile`` refuse, and they make
every diagnostic of an expression. It is its own module so that only such
an expression imports it: ``modelfile._dimexpr`` and ``modelfile._monomial``
import it where they fall through, so a model that the one-regex readers
take compiles none of this.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .model import _IDENT_RE
from .modelfile import _SPACE_RE, _TERM, _WORD_RE, ErrorCode, _Errors

_TERM_RE = re.compile(r"\s*" + _TERM)
_BAD_EXPONENT_RE = re.compile(r"[^\s*/()^]*")


def _exponent(errors: _Errors, term: re.Match) -> int | Fraction | None:
    """The exponent of a term read by _TERM_RE or _WORD_RE: 1 if it has
    none, else what `errors.rational` makes of it."""
    token = term[2]
    if token is None:
        return 1
    return errors.rational(token, term.start(2), ErrorCode.BAD_EXPONENT, "")  # not malformed


def _dimexpr_terms(
    errors: _Errors, text: str, pos: int, dim_index: dict[str, int]
) -> list[int | Fraction] | None:
    """What _dimexpr reads, word by word, reporting each error."""
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
        name = word[1]
        if name is None:  # not a whole term: say why
            ident = _IDENT_RE.match(text, start, end)
            at = ident.end() if ident else start
            if word.group() == "1":
                errors.add(start, 1, ErrorCode.SYNTAX,
                           "'1' must stand alone as a dimension expression")
            elif not ident:
                errors.add(start, end - start, ErrorCode.SYNTAX,
                           f"expected a dimension name, got {word.group()!r}")
            elif text[at] != "^":
                errors.add(at, end - at, ErrorCode.SYNTAX,
                           f"unexpected {text[at:end]!r} after dimension name {ident.group()!r}")
            else:
                errors.rational(text[at + 1 : end], at + 1, ErrorCode.BAD_EXPONENT,
                                "bad exponent {!r}: expected a rational like -2 or 1/2")
            continue
        exp = _exponent(errors, word)
        if exp is None:
            continue
        if name in dim_index:
            exps[dim_index[name]] += exp
        else:
            errors.add(start, len(name), ErrorCode.UNKNOWN_DIMENSION,
                       f"unknown dimension {name!r}")
    return exps if len(errors) == before else None


def _monomial_terms(
    errors: _Errors, text: str, pos: int, end: int, name_index: dict[str, int]
) -> list[int | Fraction] | None:
    """What _monomial reads, term by term, reporting each error. Read left
    to right: `signs` holds the sign of each open parenthesis, and `sign`
    that of the next factor, so nesting depth costs no stack frames."""
    exps: list[int | Fraction] = [0] * len(name_index)
    before = len(errors)
    signs = [1]
    sign = 1
    while True:
        term = _TERM_RE.match(text, pos, end)
        if not term:
            pos = _SPACE_RE.match(text, pos, end).end()
            if pos < end and text[pos] == "(":
                signs.append(sign)
                pos += 1
                continue
            errors.add(pos, 1, ErrorCode.SYNTAX, f"expected a quantity name, got {text[pos]!r}"
                       if pos < end else "expected a quantity name")
            return None
        name, pos = term[1], term.end()
        if term[2] is None and pos < end and text[pos] == "^":
            # a malformed exponent is skipped up to the next operator, so
            # errors after it are collected too
            token = _BAD_EXPONENT_RE.match(text, pos + 1, end)
            exp = errors.rational(token.group(), pos + 1, ErrorCode.BAD_EXPONENT,
                                  "bad exponent: expected a rational like -2 or 1/2")
            pos = token.end()
        else:
            exp = _exponent(errors, term)
        if name not in name_index:
            errors.add(term.start(1), len(name), ErrorCode.UNKNOWN_QUANTITY,
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
