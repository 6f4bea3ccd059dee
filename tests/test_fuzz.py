"""A fuzz of the command line's `run` on generated `.pim` text.

Inputs are shipped models mutated token by token, small models built from
the grammar with exponents up to 10^12 and constraints sometimes nested in
2,000 parentheses, and soups of grammar tokens, with literals up to and
past CPython's 4,300-digit limit. The run is derandomized and takes
about 2 s. Every input, through analyze (text and JSON) and check, must
end in a documented exit code other than 3 (an engine bug), with empty
stdout whenever the exit code is nonzero.
"""

from __future__ import annotations

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pim.cli import CliConfig, run

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "models").glob("*.pim"))]

CONFIGS = (
    CliConfig(command="analyze", input_path="fuzz.pim", format="text"),
    CliConfig(command="analyze", input_path="fuzz.pim", format="json"),
    CliConfig(command="check", input_path="fuzz.pim"),
)

NAMES = ("M", "L", "T", "x", "y", "z", "rho", "mu", "nu", "U", "F_D")
KEYWORDS = (
    "dimensions:", "quantity", "constraint", "jacobian_row:", "repeating:", "basis_override:"
)
PUNCTUATION = ("=", "*", "/", "^", "-", ",", ":", "#", " ", "\n", "(", ")", "1/0", "0/1")

digits = st.sampled_from((1, 2, 12, 4299, 4300, 4301, 5000))
long_literal = st.builds(lambda k, d: d * k, digits, st.sampled_from("1379"))
exponent = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**12), 10**12),
    st.sampled_from((10**12, -(10**12))),
).map(str)
rational = st.one_of(
    exponent,
    st.builds(lambda p, q: f"{p}/{q}", exponent, st.integers(1, 10**12)),
    long_literal,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 9), long_literal),
)
positive = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(1, 10**12), st.sampled_from((1, 2, 3, 4, 9, 10**12))
)
piece = st.one_of(
    st.sampled_from(NAMES + KEYWORDS + PUNCTUATION),
    rational,
    st.sampled_from([line for text in SHIPPED for line in text.splitlines()]),
)


@st.composite
def mutated_model(draw) -> str:
    tokens = re.split(r"(\s+|[=*/^,:])", draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or i == len(tokens):
            tokens.insert(i, draw(piece))
        elif op == "replace":
            tokens[i] = draw(piece)
        else:
            del tokens[i]
    return "".join(tokens)


def _monomial(draw, names: list[str], sep: str) -> str:
    used = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    return sep.join(f"{name}^{draw(exponent)}" for name in used)


@st.composite
def grammar_model(draw) -> str:
    dims = draw(st.lists(st.sampled_from(("M", "L", "T")), min_size=1, max_size=3, unique=True))
    names = ["x", "y", "z", "w"][: draw(st.integers(1, 4))]
    lines = [f"dimensions: {', '.join(dims)}"]
    for name in names:
        expr = _monomial(draw, dims, " ") if draw(st.booleans()) else "1"
        lines.append(f"quantity {name} = {expr}")
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            constant = draw(st.one_of(positive, rational))
            depth = draw(st.sampled_from((0, 0, 0, 2000)))
            monomial = "(" * depth + _monomial(draw, names, " * ") + ")" * depth
            lines.append(f"constraint {monomial} = {constant}")
        else:
            row = ", ".join(draw(rational) for _ in names)
            lines.append(f"jacobian_row: {row}")
    if draw(st.booleans()):
        repeating = draw(st.lists(st.sampled_from(names + ["v"]), max_size=3))
        lines.append(f"repeating: {', '.join(repeating)}")
    return "\n".join(lines) + "\n"


token_soup = st.lists(piece, max_size=30).map("".join)


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.one_of(mutated_model(), grammar_model(), token_soup))
def test_every_input_ends_in_a_documented_exit_code(text: str):
    for config in CONFIGS:
        code, out, err = run(config, text)
        assert code in (0, 1, 2), (config.command, err)
        if code:
            assert out == "" and err
