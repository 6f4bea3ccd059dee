"""Dimensional analysis with monomial constraints, in exact rational arithmetic.

Given named base dimensions, quantities with rational dimension exponents,
and constraints (monomials equal to positive constants, or raw pointwise
Jacobian rows), this package computes the candidate dimensionless groups,
the effective number of independent groups under the constraints (one
count, which render_report prints in four forms), and a mechanically
selected independent subset, together with the relations that make the
remaining groups redundant.

The package namespace, ``__all__``, holds the documented entry points
(``parse_model``, ``analyze``, ``render_report``); the model and constraint
types (``Model``, ``DimensionSystem``, ``Quantity``, ``Constraint``,
``MonomialConstraint``, ``JacobianRowConstraint``); the report types
(``AnalysisReport``, ``Relation``), which hold numbers and verdicts only,
while ``render_report`` writes every label;
``RatMatrix``, the type of a report's matrices; ``ParseError``,
``SourceSpan`` and ``ErrorCode``, which describe one parse error; and the
error types (``ModelError``, ``ModelFileError``, ``InvariantViolation``,
``ScaleInvarianceError``, ``ShapeError``). The building blocks live in the
submodules.
"""

from .model import (
    DimensionSystem,
    Model,
    ModelError,
    Quantity,
)
from .modelfile import (
    ErrorCode,
    ModelFileError,
    ParseError,
    SourceSpan,
    parse_model,
    render_report,
)
from .ratlin import RatMatrix, ShapeError
from .reduce import (
    AnalysisReport,
    Constraint,
    InvariantViolation,
    JacobianRowConstraint,
    MonomialConstraint,
    Relation,
    ScaleInvarianceError,
    analyze,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Constraint",
    "DimensionSystem",
    "ErrorCode",
    "InvariantViolation",
    "JacobianRowConstraint",
    "Model",
    "ModelError",
    "ModelFileError",
    "MonomialConstraint",
    "ParseError",
    "Quantity",
    "RatMatrix",
    "Relation",
    "ScaleInvarianceError",
    "ShapeError",
    "SourceSpan",
    "analyze",
    "parse_model",
    "render_report",
]
