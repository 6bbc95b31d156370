"""Perpetual American options under maximum- and drawdown-dependent coefficients.

The model: a price diffusion whose dividend and volatility fields read the
running maximum and the running maximum drawdown, priced by free-boundary
analysis on each frozen (maximum, drawdown) line and verified by simulating
the stopped process.
"""

from .coefficients import (
    CoefficientField,
    ModelSpec,
    RootPair,
    StateTriple,
    eval_fields,
    generator_residual,
    roots,
    roots_arrays,
)
from .config import RunConfig, build_config, load_config, parse_flat
from .errors import (
    ConfigError,
    ConstraintBreach,
    DomainError,
    NonConvergence,
    NonPositiveCoefficient,
    ResolutionWarning,
    StepError,
    UnderdeterminedRegion,
)
from .montecarlo import (
    SimConfig,
    SimResult,
    VerificationReport,
    audit_solution,
    rule_from_solution,
    simulate_stopped_payoff,
    simulate_stopped_payoffs,
    verify_solution,
)
from .reflection_pde import (
    CoefficientGrid,
    ColumnClosure,
    RegionSpec,
    RowClosure,
    pde_residuals,
    residual_grids,
    solve_reflection_region,
)
from .solver2d import (
    BoundaryCurve,
    CallSolution2D,
    PutSolution2D,
    call_boundary_2d,
    detect_switch_points,
    put_boundary_2d,
)
from .solver3d import (
    BoundarySurface,
    CallSolution3D,
    PutSolution3D,
    build_call_surface,
    build_put_surface,
    call_boundary_slice,
    put_boundary_slice,
)

__all__ = [
    "BoundaryCurve",
    "BoundarySurface",
    "CallSolution2D",
    "CallSolution3D",
    "CoefficientField",
    "CoefficientGrid",
    "ColumnClosure",
    "ConfigError",
    "ConstraintBreach",
    "DomainError",
    "ModelSpec",
    "NonConvergence",
    "NonPositiveCoefficient",
    "PutSolution2D",
    "PutSolution3D",
    "RegionSpec",
    "ResolutionWarning",
    "RootPair",
    "RowClosure",
    "RunConfig",
    "SimConfig",
    "SimResult",
    "StateTriple",
    "StepError",
    "UnderdeterminedRegion",
    "VerificationReport",
    "audit_solution",
    "build_call_surface",
    "build_config",
    "build_put_surface",
    "call_boundary_2d",
    "call_boundary_slice",
    "detect_switch_points",
    "eval_fields",
    "generator_residual",
    "load_config",
    "parse_flat",
    "pde_residuals",
    "put_boundary_2d",
    "put_boundary_slice",
    "residual_grids",
    "roots",
    "roots_arrays",
    "rule_from_solution",
    "simulate_stopped_payoff",
    "simulate_stopped_payoffs",
    "solve_reflection_region",
    "verify_solution",
]

__version__ = "0.1.0"
