"""Three-stage Radau IIA collocation for small stiff ODE systems.

The method (Hairer & Wanner, *Solving Ordinary Differential Equations
II*, Springer 1996, section IV.8) has order 5 and is L-stable.  Its
nodes are (4 - sqrt 6)/10, (4 + sqrt 6)/10 and 1.  The coefficient
matrix integrates the Lagrange basis on those nodes, and the weights of
the embedded order-3 error estimate solve its order conditions on the
same nodes and 0; both are computed from the nodes below.

``integrate_levels`` steps to each time level in turn and carries its
step size across levels.  A step solves the stacked stage equations by
Newton's method with the Jacobian at the start of the step, evaluating
the right-hand side at all three stages in one call.  The error
estimate is filtered through (I - h gamma J)^-1, so it stays bounded
on stiff components, as the method does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainViolation, SolverStepError

NODES = np.array([(4.0 - math.sqrt(6.0)) / 10.0,
                  (4.0 + math.sqrt(6.0)) / 10.0, 1.0])


def _tableau(c):
    """The coefficient matrix A, its real eigenvalue gamma, and the
    weights e with y_hat - y = h gamma f(y0) + sum_i e_i Z_i, where
    Z = h (A x I) F are the stage increments."""
    k = np.arange(len(c))
    vander = c[:, None] ** k
    a = (c[:, None] ** (k + 1) / (k + 1)) @ np.linalg.inv(vander)
    gamma = min(np.linalg.eigvals(a), key=lambda z: abs(z.imag)).real
    b_hat = np.linalg.solve(vander.T, 1.0 / (k + 1) - gamma * (k == 0))
    return a, gamma, np.linalg.solve(a.T, b_hat - a[-1])


# numpy.linalg's first calls, here, add about 2 MB of resident memory:
# phasectl imports this module only when the ODE oracle runs.
A, GAMMA, ERR_WEIGHTS = _tableau(NODES)

# Newton fails after NEWTON_MAX iterations or at a contraction rate of
# 1 or more.  Bounds of the factor by which one step changes the step.
NEWTON_MAX = 6
MIN_FACTOR, MAX_FACTOR = 0.2, 10.0


def _rms(v):
    return math.sqrt(float(np.vdot(v, v)) / v.size)


def _newton(fun, y, p, h, f0, jac, scale, tol):
    """Stage increments Z, shape (3, n), of a step of length h from y,
    where fun equals f0 and has Jacobian jac, or None and the reason
    Newton failed.

    Starts from the explicit Euler increments and stops once the
    distance to the solution that the contraction rate predicts is below
    ``tol`` in units of ``scale``.
    """
    n = len(y)
    m_inv = np.linalg.inv(np.eye(3 * n) - h * (
        A[:, None, :, None] * jac[None, :, None, :]).reshape(3 * n, 3 * n))
    z = np.outer(NODES * h, f0)
    old = None
    for _ in range(NEWTON_MAX):
        try:
            f = fun(y + z, p)
        except DomainViolation as exc:
            return None, "a stage left the domain: %s" % exc
        dz = (m_inv @ (z - h * (A @ f)).ravel()).reshape(z.shape)
        z = z - dz
        norm = _rms(dz / scale)
        if norm == 0.0:
            return z, None
        if old is not None:
            rate = norm / old
            if not rate < 1.0:
                return None, "Newton diverged"
            if rate / (1.0 - rate) * norm < tol:
                return z, None
        old = norm
    return None, "Newton did not converge in %d iterations" % NEWTON_MAX


def integrate_levels(fun, jac, y0, times, params, rtol, atol, max_steps):
    """The solution at each of ``times``, shape (len(times), n).

    ``fun(Y, p)`` returns the right-hand side at each row of Y,
    ``jac(y, f)`` its Jacobian at y, where it equals f, and
    ``params[k]`` is p on [times[k], times[k + 1]].  A step is accepted
    when the root mean square of its error estimate over
    atol + rtol max(|y_old|, |y_new|) is at most 1.  Raises
    SolverStepError when a failed step leaves a step size below ten
    ulps of the time, or at the attempt after ``max_steps``.
    """
    y = np.array(y0, dtype=float)
    eye = np.eye(len(y))
    # As in Hairer & Wanner: well below the tolerance, above round-off.
    newton_tol = max(10.0 * np.finfo(float).eps / rtol,
                     min(0.03, math.sqrt(rtol)))
    out = np.empty((len(times), len(y)))
    out[0] = y
    h = times[1] - times[0]
    attempts = 0
    for k in range(len(times) - 1):
        t, t_end, p = times[k], times[k + 1], params[k]
        f0 = None
        while t < t_end:
            if attempts == max_steps:
                raise SolverStepError(
                    "step budget of %d attempts exhausted at t=%.17g"
                    % (max_steps, t))
            attempts += 1
            if f0 is None:
                f0 = fun(y[None], p)[0]
                jac0 = jac(y, f0)
            parts = math.ceil((t_end - t) / h)
            dt = (t_end - t) / parts
            z, reason = _newton(fun, y, p, dt, f0, jac0,
                                atol + rtol * np.abs(y), newton_tol)
            if z is None:
                h = 0.5 * dt
            else:
                y_new = y + z[-1]
                err = np.linalg.solve(eye - dt * GAMMA * jac0,
                                      dt * GAMMA * f0 + ERR_WEIGHTS @ z)
                err = _rms(err / (atol + rtol * np.maximum(np.abs(y),
                                                           np.abs(y_new))))
                # The estimate is O(h^4); 0.9 keeps the next step clear
                # of rejection.
                factor = MAX_FACTOR if err == 0.0 else 0.9 * err ** -0.25
                factor = min(MAX_FACTOR, factor) if factor >= MIN_FACTOR \
                    else MIN_FACTOR
                if err <= 1.0:
                    # A step cut short to land on a level does not lower
                    # the step size the next level starts with.
                    h = dt * factor if factor < 1.0 else max(h, dt * factor)
                    y, f0 = y_new, None
                    t = t_end if parts == 1 else t + dt
                    continue
                h = dt * factor
                reason = "error estimate %.3g times the tolerance" % err
            if h < 10.0 * np.spacing(t_end):
                raise SolverStepError("step size %.3g at t=%.17g: %s"
                                      % (h, t, reason))
        out[k + 1] = y
    return out
