"""The JSON report writer. It is its own module so that only rendering a
JSON report imports it: ``pim.modelfile`` imports it inside
``render_report``. The encoder is the C function that ``json.encoder``
uses, taken from ``_json`` so that no report imports the ``json`` package;
only an interpreter without ``_json`` loads ``json.encoder`` for it.

The writer knows schema v1: it writes the fields of the payload that
``modelfile._report_payload`` builds, in that order, as
``json.dumps(payload, indent=2)`` writes them, byte for byte. Only
``_object``, ``_list`` and ``_cells`` write a bracket, brace or indent. Every
string is escaped except the number cells (matrix entries, a constraint's
exponents or entries, a relation's coeffs): each matches
``-?[0-9]+(/[0-9]+)?`` and so needs no escape.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii as _string
except ImportError:
    from json.encoder import encode_basestring_ascii as _string

from .ratlin import _INT_TEXT

# An object or list is written with `pad`, the newline and indent of its
# closing bracket, its items two spaces deeper: the payload's fields close at
# _TOP, an item of a field's list at _ITEM, and a field of that item at _NESTED.
_TOP = "\n  "
_ITEM = "\n    "
_NESTED = "\n      "


def _object(fields: list[tuple[str, str]], pad: str) -> str:
    """(key, JSON text) pairs, at least one, whose keys need no escape."""
    inner = f'{pad}  "'
    body = f",{inner}".join(map('": '.join, fields))
    return f"{{{inner}{body}{pad}}}"


def _list(items: list[str] | tuple[str, ...], pad: str) -> str:
    """items, each already JSON text, as json.dumps writes their list."""
    if not items:
        return "[]"
    inner = f"{pad}  "
    return f"[{inner}{f',{inner}'.join(items)}{pad}]"


def _cells(row: list[str], pad: str) -> str:
    """A row of number cells, quoted with no escape."""
    if not row:
        return "[]"
    inner = f'{pad}  "'
    body = f'",{inner}'.join(row)
    return f'[{inner}{body}"{pad}]'


def _strings(values: list[str], pad: str) -> str:
    return _list(list(map(_string, values)), pad)


def _ints(values: list[int] | None, pad: str) -> str:
    return "null" if values is None else _list(list(map(_INT_TEXT.__getitem__, values)), pad)


def _matrix(cells: list[list[str]] | None) -> str:
    return "null" if cells is None else _list([_cells(row, _ITEM) for row in cells], _TOP)


def _constraint(entry: dict) -> str:
    fields = [("kind", _string(entry["kind"])), ("label", _string(entry["label"]))]
    if entry["kind"] == "monomial":
        fields.append(("exponents", _cells(entry["exponents"], _NESTED)))
        return _object([*fields, ("constant", _string(entry["constant"]))], _ITEM)
    return _object([*fields, ("entries", _cells(entry["entries"], _NESTED))], _ITEM)


def _relation(entry: dict) -> str:
    return _object([
        ("coeffs", _cells(entry["coeffs"], _NESTED)),
        ("pi_exponents", _ints(entry["pi_exponents"], _NESTED)),
        ("k_exponents", _strings(entry["k_exponents"], _NESTED)),
        ("constant", "null" if entry["constant"] is None else _string(entry["constant"])),
        ("pointwise", "true" if entry["pointwise"] else "false"),
        ("label", _string(entry["label"])),
    ], _ITEM)


def report_json(payload: dict) -> str:
    """The schema-v1 payload as json.dumps(payload, indent=2) writes it. Pi
    group k's exponents are written from column k of payload["E"]: E has
    den 1, so each of its cells is an int literal."""
    # the pi groups share one layout: _object writes it once, with %s slots
    group = _object([("label", "%s"), ("exponents", "%s")], _ITEM)
    groups = [
        group % (_string(g["label"]), _list(col, _NESTED))
        for g, col in zip(payload["pi_groups"], zip(*payload["E"]))
    ]
    forms = payload["d_eff_formulas"]
    counts = [(key, "null" if count is None else _INT_TEXT[count]) for key, count in forms.items()]
    relations = payload["relations"]
    fields = [
        *[(key, _INT_TEXT[payload[key]]) for key in ("schema", "n", "m", "ell", "d", "d_eff")],
        ("scale_invariant", "true" if payload["scale_invariant"] else "false"),
        ("d_eff_formulas", _object(counts, _TOP)),
        ("dimensions", _strings(payload["dimensions"], _TOP)),
        ("quantities", _strings(payload["quantities"], _TOP)),
        ("pi_groups", _list(groups, _TOP)),
        ("constraints", _list(list(map(_constraint, payload["constraints"])), _TOP)),
        *[(key, _matrix(payload[key])) for key in ("A", "J", "E", "C", "rref_C")],
        ("selected", _ints(payload["selected"], _TOP)),
        ("relations", "null" if relations is None else _list(list(map(_relation, relations)), _TOP)),
        ("warnings", _strings(payload["warnings"], _TOP)),
    ]
    return _object(fields, "\n")
