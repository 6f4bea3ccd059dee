"""The JSON report writer. It is its own module so that only rendering a
JSON report imports it: ``pim.modelfile`` imports it inside
``render_report``, and the recursion below reads the encoder as a module
global, with no per-call check. The encoder is the C function that
``json.encoder`` uses, taken from ``_json`` so that no report imports the
``json`` package; only an interpreter without ``_json`` loads
``json.encoder`` for it.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .ratlin import _INT_TEXT


def json_text(value: object, pad: str) -> str:
    """value as json.dumps(value, indent=2) writes it, byte for byte, for
    the payload's types: dict with str keys, list, str, int, bool and None.
    pad is the indent of the line that value starts on.

    With an indent, json.dumps runs the pure-Python encoder; this writer
    calls the same C string encoder, and writes a list of only strings
    (every matrix row) or only ints in one join, quoting the strings itself
    when none of them needs an escape. It dispatches on the exact type, so
    a str or int dict value is written in place, without a call; the ints
    of an int list or dict value are read from the shared text table. A
    list or dict must be exactly that type; a subclass of str or int is
    written as json.dumps writes it, by the checks at the end.
    """
    kind = type(value)
    if kind is not list and kind is not dict:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        return int.__repr__(value)
    if not value:
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        items = []
        for k, v in value.items():
            if type(v) is str:
                text = encode_basestring_ascii(v)
            elif type(v) is int:
                text = _INT_TEXT[v]
            else:
                text = json_text(v, inner)
            items.append(f"{encode_basestring_ascii(k)}: {text}")
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    types = set(map(type, value))
    if types == {str}:
        joined = "".join(value)
        # the encoder escapes character by character, so no item needs it
        if encode_basestring_ascii(joined)[1:-1] == joined:
            body = '"' + ('"' + sep + '"').join(value) + '"'
        else:
            body = sep.join(map(encode_basestring_ascii, value))
    elif types == {int}:  # not bool, which writes true and false
        body = sep.join(map(_INT_TEXT.__getitem__, value))
    else:
        body = sep.join([json_text(x, inner) for x in value])
    return f"[\n{inner}{body}\n{pad}]"
