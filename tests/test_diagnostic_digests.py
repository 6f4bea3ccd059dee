"""What the CLI prints for malformed and mutated models, pinned by digest.

Each seed mutates four fixed model files (BASE_FILES: three shipped models
and one under tests/models) and one round of both benchmark ladders
(gen.ladder(1, 1, ...)) a fixed number of times: characters are inserted,
replaced, deleted, swapped and doubled, mostly next to exponents,
operators, commas and digits, with pieces that the term lexer must refuse
or read exactly (``^2^3``, ``^1/0``, ``²``, ``٣``, ``1_0``, non-ASCII
whitespace, 4,301-digit literals). Every mutant runs through cli.run as
analyze JSON, and one SHA-256 per seed covers the exit codes, outputs and
diagnostics of its mutants. A lexer change that must not change any
output keeps every digest. A few cases are pinned by their exact
diagnostics as well.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src:tests python tests/test_diagnostic_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from pim.cli import CliConfig, run

from oracles import load_bench

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "diagnostic_digests.json"
SEEDS = range(40)
MUTANTS_PER_SEED = 100
CONFIG = CliConfig("analyze", "model.pim", "json")

LONG = "9" * 4301
PIECES = (
    "^", "^2", "^-1", "^1/2", "^1/0", "^0", "^^", "^2^3", "^-", "/", "/0", "*", "-", "--",
    ",", ", ,", " ", "\t", "\u00a0", "\x1c", "\u2028", "\n", "0", "1", "7", "²", "٣", "_",
    "1_0", "(", ")", "=", "#", ":", ".", "+", "e3", "x", "L", "q1", "D1", LONG, "1/" + LONG,
)
# positions next to these are where the lexer decides most
HOT = set("^/*,=-0123456789")


# the mutated files, named one by one so that a model added later changes
# no digest
BASE_FILES = ("models/drag.pim", "models/drag_auto.pim", "models/pendulum.pim",
              "tests/models/large_constant.pim")


def _bases() -> list[str]:
    texts = [(ROOT / name).read_text(encoding="utf-8") for name in BASE_FILES]
    gen = load_bench("gen")
    texts += [made.text for pointwise in (False, True) for made in gen.ladder(1, 1, pointwise)]
    return texts


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        hot = [i for i, ch in enumerate(text) if ch in HOT]
        at = rng.choice(hot) if hot and rng.random() < 0.7 else rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == 1:
            text = text[:at] + rng.choice(PIECES) + text[at + 1 :]
        elif op == 2:
            text = text[:at] + text[at + rng.randint(1, 3) :]
        elif op == 3:
            text = text[:at] + text[at + 1 : at + 2] + text[at : at + 1] + text[at + 2 :]
        else:
            text = text[:at] + text[at : at + rng.randint(1, 4)] * 2 + text[at + 4 :]
    return text


def _digest(seed: int, bases: list[str]) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(MUTANTS_PER_SEED):
        code, out, err = run(CONFIG, _mutate(rng, rng.choice(bases)))
        h.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
    return h.hexdigest()


def _digests() -> dict[str, str]:
    bases = _bases()
    return {str(seed): _digest(seed, bases) for seed in SEEDS}


def test_every_mutant_keeps_its_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _digests()
    assert sorted(actual) == sorted(golden), "the seed set changed"
    changed = [seed for seed in golden if actual[seed] != golden[seed]]
    assert changed == [], f"diagnostics changed for seeds: {', '.join(changed)}"


BASE = """\
dimensions: L, T
quantity x = L
quantity y = L
quantity t = T
constraint x / y = 2
"""


def _with(old: str, new: str) -> str:
    assert old in BASE
    return BASE.replace(old, new)


PINNED = {
    "x^2^3": (_with("constraint x / y = 2", "constraint x^2^3 / y^6 = 1"),
              "model.pim:5:15: error[syntax]: unexpected '^3 / y^6' after monomial\n"),
    "x^1^3": (_with("constraint x / y = 2", "constraint x^1^3 / y = 1"),
              "model.pim:5:15: error[syntax]: unexpected '^3 / y' after monomial\n"),
    "L^2^3": (_with("quantity x = L\n", "quantity x = L^2^3\n"),
              "model.pim:2:16: error[bad-exponent]: bad exponent '2^3': expected a rational"
              " like -2 or 1/2\n"),
    "x^1/0": (_with("constraint x / y = 2", "constraint x^1/0 / y = 1"),
              "model.pim:5:14: error[bad-exponent]: rational '1/0' has a zero denominator\n"),
    "L^²": (_with("quantity x = L\n", "quantity x = L^²\n"),
            "model.pim:2:16: error[bad-exponent]: bad exponent '²': expected a rational"
            " like -2 or 1/2\n"),
    "= ٣": (_with("= 2", "= ٣"),
            "model.pim:5:20: error[bad-constant]: expected a positive rational constant,"
            " got '٣'\n"),
    "= 1_0": (_with("= 2", "= 1_0"),
              "model.pim:5:20: error[bad-constant]: expected a positive rational constant,"
              " got '1_0'\n"),
    "4,301-digit exponent": (_with("quantity x = L\n", f"quantity x = L^{LONG}\n"),
                             "model.pim:2:16: error[bad-exponent]: number has 4301 digits,"
                             " more than the 4300 allowed\n"),
    "trailing comma in jacobian_row": (
        BASE + "jacobian_row: 1, -1, 0,\n",
        "model.pim:6:24: error[syntax]: expected a rational number, got ''\n"),
    "1_0 in jacobian_row": (
        BASE + "jacobian_row: 1_0, 1, 0\n",
        "model.pim:6:15: error[syntax]: expected a rational number, got '1_0'\n"),
    "٣ in jacobian_row": (
        BASE + "jacobian_row: 1, ٣, 0\n",
        "model.pim:6:18: error[syntax]: expected a rational number, got '٣'\n"),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_malformed_terms_keep_their_diagnostics(name: str):
    text, diagnostics = PINNED[name]
    assert run(CONFIG, text) == (1, "", diagnostics)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
