"""Value semantics of the public value types: immutable, slotted, equal and
hashed by their fields within one class, constructible by keyword with
their defaults."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from pim import (
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
    RescaleVector,
    SourceSpan,
    analyze,
)
from pim.cli import CliConfig
from pim.modelfile import ErrorCode
from pim.ratlin import RrefResult

from oracles import drag_model


def _matrix() -> RatMatrix:
    return RatMatrix(rows=1, cols=2, entries=(Fraction(1), Fraction(-1, 2)))


def _dims() -> DimensionSystem:
    return DimensionSystem(names=("M",))


# (constructor by keyword, fields left to their defaults)
CASES = {
    "RatMatrix": (_matrix, {}),
    "RrefResult": (lambda: RrefResult(rref=_matrix(), pivot_cols=(0,)), {}),
    "DimensionSystem": (_dims, {}),
    "Quantity": (lambda: Quantity(name="x", dim_exponents=(1,)), {}),
    "Model": (
        lambda: Model(dims=_dims(), quantities=(Quantity("x", (0,)),)),
        {"constraints": (), "basis_override": None},
    ),
    "PiGroup": (lambda: PiGroup(exponents=(1, -1), label="x/y"), {}),
    "RescaleVector": (lambda: RescaleVector(scales=(1, 2)), {}),
    "MonomialConstraint": (lambda: MonomialConstraint((1, -1)), {"constant": 1}),
    # the same field values as RescaleVector above, in another class
    "JacobianRowConstraint": (lambda: JacobianRowConstraint(entries=(1, 2)), {}),
    "EffectiveCounts": (lambda: EffectiveCounts(2, 2, 2), {"via_C_rank": None}),
    "Relation": (
        lambda: Relation(
            coeffs=(Fraction(1), Fraction(-1)), pi_exponents=(1, -1),
            k_exponents=(Fraction(1),), constant=Fraction(1), pointwise=False,
            label="pi1 / pi2 = 1",
        ),
        {},
    ),
    "AnalysisReport": (lambda: analyze(drag_model()), {}),
    "SourceSpan": (lambda: SourceSpan(line=1, column=2), {"length": 1}),
    "ParseError": (
        lambda: ParseError(span=SourceSpan(1, 2), code=ErrorCode.SYNTAX, message="m"), {}
    ),
    "CliConfig": (
        lambda: CliConfig(command="analyze", input_path="-"),
        {"format": "text", "strict": False, "color": False},
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_semantics(name: str):
    make, defaults = CASES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert not hasattr(value, "__dict__")
    for field, default in defaults.items():
        assert getattr(value, field) == default
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    for other, (make_other, _) in CASES.items():
        if other != name:
            assert value != make_other()
    assert value != tuple(getattr(value, f) for f in type(value).__slots__)
    assert repr(value) == repr(twin) and repr(value).startswith(name + "(")
    assert pickle.loads(pickle.dumps(value)) == value


def test_value_repr_names_every_field():
    assert repr(SourceSpan(3, 4)) == "SourceSpan(line=3, column=4, length=1)"
    assert repr(EffectiveCounts(1, 1, 1, 1)) == (
        "EffectiveCounts(via_kernel_JE=1, via_stacked_rank=1, via_grassmann=1, via_C_rank=1)"
    )
