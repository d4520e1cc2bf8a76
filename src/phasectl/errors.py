"""Exception types shared across the package.

Solver failures raised inside a time loop (the forward, tangent or adjoint
march) carry the failing step index in ``step`` and the number of steps in
``steps``.  The forward march adds the records of the levels solved before
it in ``diagnostics``, so callers can report where and how a run died.  A
failed order-parameter Newton iteration also carries its residual norms
in ``newton_residuals`` and the minimum of its last Newton shift times
the step length, the units of ``Diagnostics.min_newton_shift``, in
``min_newton_shift``; a potential step that lost positivity carries the
minimum of its diagonal times the step length, the units of
``Diagnostics.min_coefficient``, in ``min_coefficient``.

Each object checks its own fields with ``require``; ``renamed_keys``
rewrites the field a ValidationError names to the config key or option.
"""

from contextlib import contextmanager


class PhasectlError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(PhasectlError, ValueError):
    """Array shape inconsistent with the grid or time grid."""


class DomainViolation(PhasectlError, ValueError):
    """Potential evaluated at or outside the endpoints of (0, 1)."""


class SolverStepError(PhasectlError, RuntimeError):
    """Failure inside a time step; ``step`` is the failing step index."""

    step = None
    steps = None
    diagnostics = None
    newton_residuals = None
    min_coefficient = None
    min_newton_shift = None


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
    """Value violates a stated condition; ``key``, if set, names it."""

    key = None


class UnsupportedDimension(ValidationError):
    """Spatial dimension outside {1, 2}."""


def require(cond, key: str, condition: str, value,
            error=ValidationError) -> None:
    """Raise error("<key>: requires <condition>, got <value>")."""
    if not cond:
        exc = error(
            "%s: requires %s, got %r" % (key, condition, value))
        exc.key = key
        raise exc


@contextmanager
def renamed_keys(names: dict):
    """Rename the key of a ValidationError raised inside through ``names``."""
    try:
        yield
    except ValidationError as exc:
        if exc.key in names:
            exc.args = (names[exc.key] + str(exc)[len(exc.key):],)
            exc.key = names[exc.key]
        raise
