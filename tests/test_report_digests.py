"""Every report the CLI prints, pinned by one SHA-256 per model.

The models are the shipped ones, those under tests/models, and about sixty
that this module builds from fixed seeds with the helpers in oracles.py:
scale-invariant monomial models with random positive constants (so relation
constants come out evaluated, symbolic and fractional), pointwise models
with jacobian_row constraints, and the invariant models again with a
random valid repeating set, which chooses another pi basis. Each built model
is rendered to text with render_model; every model then runs through
cli.run as analyze text, analyze JSON and check. A refactor that must not
change any output keeps every digest.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src:tests python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from pim.cli import CliConfig, run
from pim.model import Model
from pim.modelfile import parse_model, render_model
from pim.ratlin import RatMatrix
from pim.reduce import analyze

from oracles import (
    model_from_matrices,
    random_int_matrix,
    random_invariant_jacobian,
    random_positive_fraction,
    repeating_pivots,
    textbook_kernel,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "report_digests.json"

# Perfect powers give evaluated constants under fractional exponents, the
# rest symbolic ones; 1 is the ladder's and drag's constant.
_CONSTANTS = tuple(
    map(Fraction, ("1", "1", "2", "3/2", "4", "9/4", "8", "27/8", "16/81", "64"))
)


def _kernel(rng: random.Random, m: int, n: int) -> tuple[RatMatrix, RatMatrix]:
    """A random m x n dimension matrix whose kernel has dimension at least 2,
    and that kernel's textbook basis."""
    while True:
        a = random_int_matrix(rng, m, n, -2, 2)
        kernel = textbook_kernel(a.to_rows(), n)
        if len(kernel) >= 2:
            return a, RatMatrix.from_columns(kernel, rows=n)


def _nonzero_rows(rng: random.Random, kernel: RatMatrix, ell: int) -> RatMatrix:
    while True:
        j = random_invariant_jacobian(rng, kernel, ell)
        if all(any(j.row(i)) for i in range(ell)):
            return j


def _invariant(seed: int):
    """A monomial model whose constraints are combinations of kernel columns,
    with constants drawn from _CONSTANTS or at random, and its generator."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    a, kernel = _kernel(rng, m, rng.randint(m + 2, m + 6))
    j = _nonzero_rows(rng, kernel, rng.randint(1, kernel.cols))
    constants = [
        random_positive_fraction(rng) if rng.random() < 0.3 else rng.choice(_CONSTANTS)
        for _ in range(j.rows)
    ]
    return model_from_matrices(a, j, constants=constants), rng


def _pointwise(seed: int):
    """jacobian_row constraints: inside the kernel (invariant, pointwise
    relations) for even seeds, arbitrary integer rows for odd ones."""
    rng = random.Random(1000 + seed)
    m = rng.randint(1, 3)
    a, kernel = _kernel(rng, m, rng.randint(m + 2, m + 6))
    ell = rng.randint(1, kernel.cols)
    if seed % 2:
        j = random_int_matrix(rng, ell, a.cols)
        while not all(any(j.row(i)) for i in range(ell)):
            j = random_int_matrix(rng, ell, a.cols)
    else:
        j = _nonzero_rows(rng, kernel, ell)
    return model_from_matrices(a, j)


def _built_models() -> dict[str, str]:
    texts = {}
    for seed in range(1, 21):
        model, rng = _invariant(seed)
        texts[f"invariant-{seed}"] = render_model(model)
        repeating = repeating_pivots(model, rng.sample(range(model.n), model.n))
        texts[f"repeating-{seed}"] = render_model(
            Model(model.dims, model.quantities, model.constraints, repeating)
        )
    for seed in range(1, 21):
        texts[f"pointwise-{seed}"] = render_model(_pointwise(seed))
    return texts


def _all_models() -> dict[str, str]:
    texts = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for folder in (ROOT / "models", ROOT / "tests" / "models")
        for path in sorted(folder.glob("*.pim"))
    }
    texts.update(_built_models())
    return texts


def _digest(text: str) -> str:
    """SHA-256 of the exit code, output and diagnostics of the three runs."""
    h = hashlib.sha256()
    for command, fmt in (("analyze", "text"), ("analyze", "json"), ("check", "text")):
        code, out, err = run(CliConfig(command, "model.pim", fmt), text)
        h.update(f"{command} {fmt} {code}\n".encode())
        h.update(f"{len(out)}\n{out}{len(err)}\n{err}".encode())
    return h.hexdigest()


def _digests() -> dict[str, str]:
    return {name: _digest(text) for name, text in _all_models().items()}


def test_every_report_keeps_its_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _digests()
    assert sorted(actual) == sorted(golden), "the model set changed"
    changed = [name for name in golden if actual[name] != golden[name]]
    assert changed == [], f"reports changed for: {', '.join(changed)}"


def test_built_models_reach_every_kind_of_relation():
    # Guards the model set itself: it must keep exercising what it pins.
    runs = {
        name: run(CliConfig("analyze", "model.pim", "json"), text)
        for name, text in _built_models().items()
    }
    assert all(code == 0 for code, _, _ in runs.values())
    other_bases = [
        seed for seed in range(1, 21)
        if json.loads(runs[f"repeating-{seed}"][1])["E"]
        != json.loads(runs[f"invariant-{seed}"][1])["E"]
    ]
    assert len(other_bases) >= 15  # of the 20 repeating sets
    reports = list(runs.values())
    relations = [
        r for _, out, _ in reports for r in json.loads(out)["relations"] or ()
    ]
    constants = [r["constant"] for r in relations]
    assert any(r["pointwise"] for r in relations)
    assert any(c is None and not r["pointwise"] for c, r in zip(constants, relations))
    assert any(c is not None and "/" in c for c in constants)
    assert any(c not in (None, "1") and "/" not in c for c in constants)
    assert any(
        "/" in t for r in relations if r["constant"] not in (None, "1") for t in r["k_exponents"]
    )


def test_relation_coeffs_are_the_rows_of_rref_c():
    # coeffs is derived from pi_exponents, not stored: it must still be
    # row i of rref(C) for relation i of every pinned report
    checked = 0
    for text in _all_models().values():
        report = analyze(parse_model(text))
        for i, relation in enumerate(report.relations or ()):
            assert relation.coeffs == report.rref_C.row(i)
            assert [type(x) for x in relation.coeffs] == [Fraction] * report.d
            checked += 1
    assert checked >= 100


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
