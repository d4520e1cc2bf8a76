"""Optimal control of a two-field phase segregation model.

Forward implicit solver, exact tangent and adjoint sensitivities,
projected gradient descent under box control constraints, and a
verification suite with independent oracles.
"""

from .checks import (bounds_check, duality_gap_check, fd_gradient_check,
                     ode_oracle_check, random_control, stability_ratio_check,
                     tangent_remainder_check)
from .config import RunConfig, build_problem, parse_config
from .forward import (Diagnostics, ProblemData, SolverConfig, StateTrajectory,
                      residual_norms, solve_state, step_mu, step_rho)
from .mesh import Grid, TimeGrid
from .optimize import (OptimizeResult, OptimizerConfig, cost, cost_parts,
                       kkt_residual, project_control,
                       projected_gradient_descent, reduced_gradient)
from .potential import Potential
from .sensitivity import (AdjointTrajectory, TangentTrajectory,
                          duality_pairing, solve_adjoint, solve_tangent)

__all__ = [
    "AdjointTrajectory", "Diagnostics", "Grid", "OptimizeResult",
    "OptimizerConfig", "Potential", "ProblemData", "RunConfig",
    "SolverConfig", "StateTrajectory", "TangentTrajectory", "TimeGrid",
    "bounds_check", "build_problem", "cost", "cost_parts",
    "duality_gap_check", "duality_pairing", "fd_gradient_check",
    "kkt_residual", "ode_oracle_check", "parse_config", "project_control",
    "projected_gradient_descent", "random_control", "reduced_gradient",
    "residual_norms", "solve_adjoint", "solve_state", "solve_tangent",
    "stability_ratio_check", "step_mu", "step_rho",
    "tangent_remainder_check",
]

__version__ = "0.1.0"
