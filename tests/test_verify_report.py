"""verify_report, the check of a whole report that does not run pim's own
elimination kernel: every report of the digest corpus (the models whose
reports tests/test_report_digests.py pins) and of the benchmark's ladder
passes it, and each of its claims fails on a report mutated to break that
claim."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pim import (
    AnalysisReport,
    JacobianRowConstraint,
    ModelError,
    ModelFileError,
    RatMatrix,
    Relation,
    analyze,
    parse_model,
)

import test_report_digests
from oracles import drag_model, verify_report

TWO_RELATIONS = """\
dimensions: M
quantity a = M
quantity b = M
quantity c = M
constraint a / b = 2
constraint b / c = 3
"""


def test_every_report_of_the_corpus_and_the_ladder_holds(gen):
    texts = list(test_report_digests._all_models().values())
    texts += [
        made.text
        for seed in (1, 2, 3)
        for pointwise in (False, True)
        for made in gen.ladder(seed, 1, pointwise)
    ]
    verified = 0
    for text in texts:
        try:
            model = parse_model(text)
            report = analyze(model)
        except (ModelFileError, ModelError):
            continue  # the CLI refuses this model
        assert verify_report(model, report) == [], text
        verified += 1
    assert verified == 110


def _doubled(matrix: RatMatrix) -> RatMatrix:
    return RatMatrix.from_rows([[2 * x for x in row] for row in matrix.to_rows()])


def _with_entry(matrix: RatMatrix, i: int, j: int, value: int) -> RatMatrix:
    rows = matrix.to_rows()
    rows[i][j] = Fraction(value)
    return RatMatrix.from_rows(rows, cols=matrix.cols)


def _drag():
    return drag_model()


def _pointwise():
    return drag_model(extra_constraints=(JacobianRowConstraint((1, 0, 0, 0, 0, 0)),))


def _two_relations():
    return parse_model(TWO_RELATIONS)


def _false_relation(r: AnalysisReport) -> dict:
    (relation,) = r.relations
    fields = dict(zip(Relation.__slots__, relation._fields()))
    return {"relations": (Relation(**{**fields, "constant": Fraction(2)}),)}


# claim -> (model, the report fields that a mutation of its report replaces)
MUTATIONS = {
    "A is the model's dimension matrix": (_drag, lambda r: {"A": _with_entry(r.A, 0, 0, 2)}),
    "J holds the model's constraint rows": (_drag, lambda r: {"J": _with_entry(r.J, 0, 0, 1)}),
    "A E = 0": (_drag, lambda r: {"E": _with_entry(r.E, 1, 0, 0)}),
    "E has full column rank": (
        _drag,
        lambda r: {"E": RatMatrix.from_columns([r.E.column(0), r.E.column(0), r.E.column(2)])},
    ),
    "d = n - rank A": (_drag, lambda r: {"d": r.d + 1}),
    "scale_invariant is J A^T == 0": (_drag, lambda r: {"scale_invariant": False}),
    "d_eff is n - rank [A; J]": (_drag, lambda r: {"d_eff": r.d_eff + 1}),
    "C, rref_C, selected and relations are None": (_pointwise, lambda r: {"selected": ()}),
    "C E^T = J": (_drag, lambda r: {"C": _doubled(r.C)}),
    "rref_C is the RREF of C": (_drag, lambda r: {"rref_C": _doubled(r.rref_C)}),
    "selected is the free columns of rref(C), d_eff of them": (
        _drag,
        lambda r: {"selected": r.selected[:1]},
    ),
    # drag's C is [0, 1, -1]: leaving out pi1 instead of pi2 leaves out a zero column
    "C on the columns not selected has rank C": (_drag, lambda r: {"selected": (1, 2)}),
    "one relation per pivot, in pivot order": (
        _two_relations,
        lambda r: {"relations": r.relations[::-1]},
    ),
    "no relation is false": (_drag, _false_relation),
}


@pytest.mark.parametrize("claim", MUTATIONS)
def test_each_claim_fails_on_its_mutation(claim: str):
    build, mutate = MUTATIONS[claim]
    model = build()
    report = analyze(model)
    assert verify_report(model, report) == []
    fields = dict(zip(AnalysisReport.__slots__, report._fields()))
    failed = verify_report(model, AnalysisReport(**{**fields, **mutate(report)}))
    assert claim in failed
