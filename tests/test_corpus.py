"""Classical constrained problems, with answers derived by hand.

Each model named in ANSWERS (models/<name>.pim) works its answers out in
its comments, from the definitions of its quantities and not from pim's
formulas: forced convection, pipe flow with roughness, the same pipe with
its constraint also stated squared (accepted, with the same answers), and
free fall, which is not scale invariant. The test holds those answers as
literals: d, d_eff, the scale-invariance verdict, the size of the kept
set, and each relation as the monomial of the quantities that its pi
groups multiply out to (E p for the relation's pi exponents p), with its
constant. A relation and its inverse say the same, so relations compare up
to sign. Like every shipped model, each also has golden reports
(tests/test_cli.py) and a pinned digest (tests/test_report_digests.py).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from pim.cli import CliConfig, run

MODELS = Path(__file__).resolve().parent.parent / "models"

# the viscosity and the thermal diffusivity as their definitions say them
NU = {"rho": 1, "mu": -1, "nu": 1}  # nu*rho/mu = 1
ALPHA = {"rho": 1, "k": -1, "c_p": 1, "alpha": 1}  # alpha*rho*c_p/k = 1

# (d, d_eff, scale invariant, kept-set size, relations as (monomial, constant))
ANSWERS = {
    "forced_convection": (5, 3, True, 3, [(NU, 1), (ALPHA, 1)]),
    "pipe_roughness": (5, 4, True, 4, [(NU, 1)]),
    "pipe_roughness_squared": (5, 4, True, 4, [(NU, 1)]),
    "free_fall": (1, 0, False, None, None),
}


def _report(name: str) -> dict:
    path = MODELS / f"{name}.pim"
    config = CliConfig(command="analyze", input_path=str(path), format="json")
    code, out, err = run(config, path.read_text(encoding="utf-8"))
    assert (code, err) == (0, "")
    return json.loads(out)


def _up_to_sign(monomial: dict[str, int], constant: Fraction) -> tuple:
    """The relation monomial = constant, or its inverse, whichever has a
    positive exponent on the first of its quantities by name."""
    items = sorted((name, x) for name, x in monomial.items() if x)
    if items[0][1] < 0:
        items, constant = [(name, -x) for name, x in items], 1 / constant
    return tuple(items), constant


def _relations(report: dict) -> set | None:
    if report["relations"] is None:
        return None
    found = set()
    for relation in report["relations"]:
        exponents = [0] * report["n"]
        for p, group in zip(relation["pi_exponents"], report["pi_groups"]):
            exponents = [x + p * e for x, e in zip(exponents, group["exponents"])]
        monomial = dict(zip(report["quantities"], exponents))
        found.add(_up_to_sign(monomial, Fraction(relation["constant"])))
    return found


@pytest.mark.parametrize("name", ANSWERS)
def test_corpus_models_have_their_hand_derived_answers(name: str):
    d, d_eff, invariant, kept, relations = ANSWERS[name]
    report = _report(name)
    assert (report["d"], report["d_eff"], report["scale_invariant"]) == (d, d_eff, invariant)
    assert (None if report["selected"] is None else len(report["selected"])) == kept
    if relations is not None:
        relations = {_up_to_sign(m, Fraction(k)) for m, k in relations}
    assert _relations(report) == relations


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_free_falls_relation_is_reported():
    # dividing h/t^2 = 49/10 by v/t = 49/5 gives h/(t*v) = 1/2
    assert _relations(_report("free_fall")) == {
        _up_to_sign({"h": 1, "t": -1, "v": -1}, Fraction(1, 2))
    }
