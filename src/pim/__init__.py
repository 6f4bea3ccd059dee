"""Dimensional analysis with monomial constraints, in exact rational arithmetic.

Given named base dimensions, quantities with rational dimension exponents,
and constraints (monomials equal to positive constants, or raw pointwise
Jacobian rows), this package computes the candidate dimensionless groups,
the effective number of independent groups under the constraints (by four
cross-checked formulas), and a mechanically selected independent subset,
together with the relations that make the remaining groups redundant.

The package namespace holds the documented entry points (``parse_model``,
``analyze``, ``render_report``), the model and constraint types, and the
error types; the building blocks live in the submodules.
"""

from .model import (
    DimensionSystem,
    Model,
    ModelError,
    PiGroup,
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
    EffectiveCounts,
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
    "EffectiveCounts",
    "ErrorCode",
    "InvariantViolation",
    "JacobianRowConstraint",
    "Model",
    "ModelError",
    "ModelFileError",
    "MonomialConstraint",
    "ParseError",
    "PiGroup",
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
