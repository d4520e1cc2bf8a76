"""Exception types shared across the package.

Solver failures raised inside a time loop carry the failing step index in
the ``step`` attribute, the number of steps in ``steps`` and the records of
the levels solved before it in ``diagnostics``, so callers can report
where and how a run died.
"""


class PhasectlError(Exception):
    """Base class for all package errors."""


class UnsupportedDimension(PhasectlError, ValueError):
    """Spatial dimension outside {1, 2}."""


class ShapeMismatch(PhasectlError, ValueError):
    """Array shape inconsistent with the grid or time grid."""


class DomainViolation(PhasectlError, ValueError):
    """Potential evaluated at or outside the endpoints of (0, 1)."""


class SolverStepError(PhasectlError, RuntimeError):
    """Failure inside a time step; ``step`` is the failing step index."""

    def __init__(self, message, step=None, steps=None):
        super().__init__(message)
        self.step = step
        self.steps = steps
        self.diagnostics = None


class NewtonDivergence(SolverStepError):
    """Newton iteration failed to reach the tolerance within the budget."""


class LinearSolveFailure(SolverStepError):
    """Linear system solve failed or its residual exceeded the tolerance."""


class NonpositiveCoefficient(SolverStepError):
    """Chemical-potential step coefficient lost positivity."""


class InfeasibleControl(PhasectlError, ValueError):
    """Control violates the box constraint beyond the stated tolerance."""


class ConfigError(PhasectlError, ValueError):
    """Run configuration could not be parsed or validated."""


class MissingKey(ConfigError):
    """Mandatory configuration key absent."""


class ValidationError(ConfigError):
    """Configuration value violates a stated condition."""
