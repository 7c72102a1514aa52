"""Numerics for time-dependent mechanics on Lie affgebroids.

A model is a coordinate chart plus structure functions (anchors and bracket
coefficients) for an affine bundle sitting inside its bidual Lie algebroid.
On top of that the package provides Lagrangian and Hamiltonian dynamics,
Legendre duality in both directions, the canonical involution and the
associated dynamics-as-submanifold checks, and reduction of trivial principal
bundle connections to such models.
"""

from .atiyah import AtiyahSpec
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    JacobiViolation,
    NewtonDivergence,
    NonFiniteState,
    ParseError,
    SingularLagrangian,
    StepUnderflow,
    UnknownFunctionError,
    UnknownVariableError,
)
from .expressions import ScalarField, constant_field, derive_field, parse
from .flow import integrate_rk4, integrate_rk45
from .hamiltonian import HamiltonianSystem, hamilton_vector_field
from .lagrangian import LagrangianSystem, el_vector_field
from .legendre import InducedHamiltonian, leg, leg_inverse
from .model import (
    AffgebroidModel,
    APoint,
    Chart,
    JetPoint,
    PhasePoint,
    VStarPoint,
    from_lie_algebroid,
    validate_structure,
)

__all__ = [
    "APoint",
    "AffgebroidModel",
    "AtiyahSpec",
    "Chart",
    "ConfigError",
    "DomainError",
    "EvaluationError",
    "HamiltonianSystem",
    "InducedHamiltonian",
    "JacobiViolation",
    "JetPoint",
    "LagrangianSystem",
    "NewtonDivergence",
    "NonFiniteState",
    "ParseError",
    "PhasePoint",
    "ScalarField",
    "SingularLagrangian",
    "StepUnderflow",
    "UnknownFunctionError",
    "UnknownVariableError",
    "VStarPoint",
    "constant_field",
    "derive_field",
    "el_vector_field",
    "from_lie_algebroid",
    "hamilton_vector_field",
    "integrate_rk4",
    "integrate_rk45",
    "leg",
    "leg_inverse",
    "parse",
    "validate_structure",
]
