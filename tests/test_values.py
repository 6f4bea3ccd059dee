"""Value semantics of the public value types: immutable, slotted, equal and
hashed by their fields within one class, constructible by position or by
keyword with their defaults, and refusing a bad call with TypeError."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from pim import (
    AnalysisReport,
    DimensionSystem,
    EffectiveCounts,
    JacobianRowConstraint,
    Model,
    MonomialConstraint,
    ParseError,
    PiGroup,
    Quantity,
    RatMatrix,
    Relation,
    SourceSpan,
    analyze,
    parse_model,
)
from pim.cli import CliConfig
from pim.modelfile import ErrorCode, parse_dimexpr, parse_monomial
from pim.ratlin import RrefResult, Value

from oracles import drag_model


def _matrix() -> RatMatrix:
    return RatMatrix(rows=1, cols=2, entries=(Fraction(1), Fraction(-1, 2)))


def _dims() -> DimensionSystem:
    return DimensionSystem(names=("M",))


def _report_fields() -> dict:
    report = analyze(drag_model())
    return dict(zip(AnalysisReport.__slots__, report._fields()))


# (type, its constructor's arguments by name, fields left to their defaults);
# each value is built by keyword and, from the same arguments, by position
CASES = {
    "RatMatrix": (RatMatrix, lambda: {"rows": 1, "cols": 2, "entries": (1, Fraction(-1, 2))}, {}),
    "RrefResult": (RrefResult, lambda: {"rref": _matrix(), "pivot_cols": (0,)}, {}),
    "DimensionSystem": (DimensionSystem, lambda: {"names": ("M",)}, {}),
    "Quantity": (Quantity, lambda: {"name": "x", "dim_exponents": (1,)}, {}),
    "Model": (
        Model,
        lambda: {"dims": _dims(), "quantities": (Quantity("x", (0,)),)},
        {"constraints": (), "basis_override": None},
    ),
    "PiGroup": (PiGroup, lambda: {"exponents": (1, -1), "label": "x/y"}, {}),
    "MonomialConstraint": (MonomialConstraint, lambda: {"exponents": (1, -1)}, {"constant": 1}),
    "JacobianRowConstraint": (JacobianRowConstraint, lambda: {"entries": (1, 2)}, {}),
    "EffectiveCounts": (
        EffectiveCounts,
        lambda: {"via_kernel_JE": 2, "via_stacked_rank": 2, "via_grassmann": 2},
        {"via_C_rank": None},
    ),
    "Relation": (
        Relation,
        lambda: {
            "coeffs": (Fraction(1), Fraction(-1)), "pi_exponents": (1, -1),
            "k_exponents": (Fraction(1),), "constant": Fraction(1), "pointwise": False,
            "label": "pi1 / pi2 = 1",
        },
        {},
    ),
    "AnalysisReport": (AnalysisReport, _report_fields, {}),
    "SourceSpan": (SourceSpan, lambda: {"line": 1, "column": 2}, {"length": 1}),
    "ParseError": (
        ParseError,
        lambda: {"span": SourceSpan(1, 2), "code": ErrorCode.SYNTAX, "message": "m"},
        {},
    ),
    "CliConfig": (
        CliConfig,
        lambda: {"command": "analyze", "input_path": "-"},
        {"format": "text", "strict": False, "color": False},
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_semantics(name: str):
    cls, arguments, defaults = CASES[name]
    value, twin = cls(**arguments()), cls(*arguments().values())
    assert type(value).__name__ == name
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert not hasattr(value, "__dict__")
    for field, default in defaults.items():
        assert getattr(value, field) == default and getattr(twin, field) == default
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    for other, (other_cls, other_arguments, _) in CASES.items():
        if other != name:
            assert value != other_cls(**other_arguments())
    assert value != tuple(getattr(value, f) for f in type(value).__slots__)
    assert repr(value) == repr(twin) and repr(value).startswith(name + "(")
    assert pickle.loads(pickle.dumps(value)) == value
    given = arguments()
    first = next(iter(given))
    for bad, message in (
        (lambda: cls(), "missing"),
        (lambda: cls(**given, unknown_field=1), "unexpected keyword argument 'unknown_field'"),
        (lambda: cls(*given.values(), **{first: 0}), f"multiple values for argument '{first}'"),
        (lambda: cls(*range(len(cls.__slots__) + 1)), "positional arguments"),
    ):
        with pytest.raises(TypeError, match=message):
            bad()


def test_equal_fields_in_another_class_differ():
    class Twin(Value):
        __slots__ = ("entries",)

    row = JacobianRowConstraint((1, 2))
    twin = Twin(row.entries)
    assert twin._fields() == row._fields()
    assert row != twin and twin != row


def test_value_repr_names_every_field():
    assert repr(SourceSpan(3, 4)) == "SourceSpan(line=3, column=4, length=1)"
    assert repr(EffectiveCounts(1, 1, 1, 1)) == (
        "EffectiveCounts(via_kernel_JE=1, via_stacked_rank=1, via_grassmann=1, via_C_rank=1)"
    )


MIXED_EXPONENTS = """\
dimensions: M, L
quantity a = M
quantity b = M^2
quantity c = L^1/2
quantity e = L M^0
constraint a^2 / b = 4
constraint c / e^1/2 = 3/2
jacobian_row: 2, -1, 0, 0
"""


def test_public_values_hold_fractions_not_ints():
    # int == Fraction passes for equal values, but int / int is a float, so
    # check the type of every value a library user can read.
    model = parse_model(MIXED_EXPONENTS)
    report = analyze(model)
    values = [x for q in model.quantities for x in q.dim_exponents]
    monomials = [c for c in report.constraints if c.kind == "monomial"]
    (row,) = [c for c in report.constraints if c.kind == "jacobian_row"]
    assert len(monomials) == 2
    for c in monomials:
        values += [*c.exponents, c.constant]
    values += row.entries
    values += parse_dimexpr("M^2 L^1/2 M", DimensionSystem(("M", "L")))
    values += parse_monomial("a^2 / b * c^1/2", ("a", "b", "c"))
    for matrix in (report.A, report.J, report.E, report.C, report.rref_C):
        values += matrix.entries
        values += [x for i in range(matrix.rows) for x in matrix.row(i)]
        values += [x for j in range(matrix.cols) for x in matrix.column(j)]
        values += [matrix[i, j] for i in range(matrix.rows) for j in range(matrix.cols)]
    assert len(report.relations) == 2
    for relation in report.relations:
        values += [*relation.coeffs, *relation.k_exponents]
    assert len(values) > 100
    assert [type(x) for x in values] == [Fraction] * len(values)
