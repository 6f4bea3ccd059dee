"""The JSON report writer. It is its own module so that only rendering a
JSON report imports it: ``pim.modelfile`` imports it inside
``render_report``. The encoder is the C function that ``json.encoder``
uses, taken from ``_json`` so that no report imports the ``json`` package;
only an interpreter without ``_json`` loads ``json.encoder`` for it.

The writer knows schema v1: it writes the fields of the payload that
``modelfile._report_payload`` builds, in that order, as
``json.dumps(payload, indent=2)`` writes them, byte for byte. It escapes
every string except the number cells: the entries of the matrices, of a
constraint's exponents or entries and of a relation's coeffs. Each cell
matches ``-?[0-9]+(/[0-9]+)?``, so none needs an escape, and each matrix
is written in one nested join of its rows.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .ratlin import _INT_TEXT

# Each list below is written with the newline and indent of its closing
# bracket, `pad`; its items are indented two spaces more. The payload's
# fields close at _TOP; those of a pi group, constraint or relation, an item
# of a field's list, at _NESTED.
_TOP = "\n  "
_NESTED = "\n      "


def _int(value: int | None) -> str:
    return "null" if value is None else _INT_TEXT[value]


def _list(items: list[str], pad: str) -> str:
    """items, each already JSON text, as json.dumps writes their list."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[{inner}" + f",{inner}".join(items) + f"{pad}]"


def _strings(values: list[str], pad: str) -> str:
    return _list(list(map(encode_basestring_ascii, values)), pad)


def _ints(values: list[int], pad: str) -> str:
    return _list(list(map(_INT_TEXT.__getitem__, values)), pad)


def _cells(row: list[str], pad: str) -> str:
    """A row of number cells, quoted with no escape."""
    if not row:
        return "[]"
    inner = pad + "  "
    return f'[{inner}"' + f'",{inner}"'.join(row) + f'"{pad}]'


def _matrix(cells: list[list[str]] | None) -> str:
    """A field's matrix of number cells in one nested join of its rows. The
    rows all have one length; a matrix with no columns writes each as []."""
    if cells is None:
        return "null"
    if not cells:
        return "[]"
    if not cells[0]:
        return _list(["[]"] * len(cells), _TOP)
    row = '",\n      "'.join
    return '[\n    [\n      "' + '"\n    ],\n    [\n      "'.join(map(row, cells)) + '"\n    ]\n  ]'


def _pi_group(group: dict, exponents: tuple[str, ...]) -> str:
    return (
        '{\n      "label": ' + encode_basestring_ascii(group["label"])
        + ',\n      "exponents": ' + _list(list(exponents), _NESTED)
        + "\n    }"
    )


def _constraint(entry: dict) -> str:
    head = (
        '{\n      "kind": ' + encode_basestring_ascii(entry["kind"])
        + ',\n      "label": ' + encode_basestring_ascii(entry["label"])
    )
    if entry["kind"] == "monomial":
        return (
            head + ',\n      "exponents": ' + _cells(entry["exponents"], _NESTED)
            + ',\n      "constant": ' + encode_basestring_ascii(entry["constant"])
            + "\n    }"
        )
    return head + ',\n      "entries": ' + _cells(entry["entries"], _NESTED) + "\n    }"


def _relation(entry: dict) -> str:
    constant = entry["constant"]
    return (
        '{\n      "coeffs": ' + _cells(entry["coeffs"], _NESTED)
        + ',\n      "pi_exponents": ' + _ints(entry["pi_exponents"], _NESTED)
        + ',\n      "k_exponents": ' + _strings(entry["k_exponents"], _NESTED)
        + ',\n      "constant": '
        + ("null" if constant is None else encode_basestring_ascii(constant))
        + ',\n      "pointwise": ' + ("true" if entry["pointwise"] else "false")
        + ',\n      "label": ' + encode_basestring_ascii(entry["label"])
        + "\n    }"
    )


def _items(write, entries: list[dict] | None) -> str:
    """A field's list of objects, each written by write."""
    if entries is None:
        return "null"
    return _list(list(map(write, entries)), _TOP)


def report_json(payload: dict) -> str:
    """The schema-v1 payload as json.dumps(payload, indent=2) writes it. Pi
    group k's exponents are written from column k of payload["E"]: E has
    den 1, so each of its cells is an int literal."""
    forms = payload["d_eff_formulas"]
    groups = [_pi_group(g, col) for g, col in zip(payload["pi_groups"], zip(*payload["E"]))]
    selected = payload["selected"]
    fields = [f'"{key}": {_int(payload[key])}' for key in ("schema", "n", "m", "ell", "d", "d_eff")]
    fields += [
        '"scale_invariant": ' + ("true" if payload["scale_invariant"] else "false"),
        '"d_eff_formulas": {\n    '
        + ",\n    ".join([f'"{key}": {_int(count)}' for key, count in forms.items()])
        + "\n  }",
        '"dimensions": ' + _strings(payload["dimensions"], _TOP),
        '"quantities": ' + _strings(payload["quantities"], _TOP),
        '"pi_groups": ' + _list(groups, _TOP),
        '"constraints": ' + _items(_constraint, payload["constraints"]),
    ]
    fields += [f'"{key}": {_matrix(payload[key])}' for key in ("A", "J", "E", "C", "rref_C")]
    fields += [
        '"selected": ' + ("null" if selected is None else _ints(selected, _TOP)),
        '"relations": ' + _items(_relation, payload["relations"]),
        '"warnings": ' + _strings(payload["warnings"], _TOP),
    ]
    return "{\n  " + ",\n  ".join(fields) + "\n}"
