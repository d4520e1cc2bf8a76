"""Reduced cost, gradient machinery and projected gradient descent.

The reduced gradient at a control is beta2 * u + q with q the potential
adjoint, so one adjoint solve prices every pointwise component.  Descent
uses projection onto the box [0, u_max] with a backtracking step rule
measured along the projection arc.  Stationarity is the space-time norm
of the pointwise violation of the first-order conditions, with the usual
case split at the bounds; with beta2 = 0 that measure encodes the
bang-bang rule (control at the lower bound where q is positive, at the
upper bound where q is negative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import mesh
from .errors import (DomainViolation, InfeasibleControl, SolverStepError,
                     require)
from .forward import BOUND_TOL, ProblemData, StateTrajectory, solve_state
from .mesh import as_trajectory
from .sensitivity import AdjointTrajectory, solve_adjoint

TERMINATION_STATIONARY = "Stationary"
TERMINATION_MAX_ITERS = "MaxIters"
TERMINATION_STALLED = "Stalled"

# The line search's sufficient-decrease factor and per-miss step shrink.
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    step0: float = 1.0
    stat_tol: float = 1e-6
    min_step: float = 1e-12

    def __post_init__(self):
        require(self.max_iters >= 0, "max_iters", "max_iters >= 0",
                self.max_iters)
        require(self.step0 > 0.0, "step0", "step0 > 0", self.step0)
        require(self.stat_tol >= 0.0, "stat_tol", "stat_tol >= 0",
                self.stat_tol)
        require(self.min_step > 0.0, "min_step", "min_step > 0",
                self.min_step)


@dataclass
class OptimizeResult:
    u: np.ndarray
    state: StateTrajectory
    adjoint: AdjointTrajectory
    gradient: np.ndarray
    J_history: list
    kkt_history: list
    step_history: list
    iter_seconds: list
    termination: str
    iterations: int
    rejected_trials: int
    step_source: list
    trials: list


def cost_parts(problem: ProblemData, state: StateTrajectory, u) -> dict:
    """Terminal, tracking and control quadratic terms of the cost."""
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, u)
    terminal_diff = state.rho[tg.N] - problem.rho_target
    terminal = 0.5 * mesh.inner_h(grid, terminal_diff, terminal_diff)
    mu_diff = state.mu - problem.mu_target
    tracking = 0.5 * problem.beta1 * mesh.inner_q(tg, grid, mu_diff, mu_diff)
    control = 0.5 * problem.beta2 * mesh.inner_q(tg, grid, u, u)
    return {"terminal": terminal, "tracking": tracking, "control": control,
            "total": terminal + tracking + control}


def cost(problem: ProblemData, state: StateTrajectory, u) -> float:
    return cost_parts(problem, state, u)["total"]


def project_control(problem: ProblemData, u) -> np.ndarray:
    """Pointwise projection onto the box [0, u_max]."""
    u = as_trajectory(problem.tgrid, problem.grid, u)
    return np.minimum(problem.u_max, np.maximum(0.0, u))


def reduced_gradient(problem: ProblemData, u, state: StateTrajectory = None):
    """Gradient beta2 * u + q at a control, q from the discrete adjoint, so
    its Q pairing with a direction is the exact derivative of the discrete
    cost; reuses a state if given.

    Returns (gradient, adjoint, state).
    """
    u = as_trajectory(problem.tgrid, problem.grid, u)
    if state is None:
        state = solve_state(problem, u)
    adjoint = solve_adjoint(problem, state)
    return problem.beta2 * u + adjoint.q, adjoint, state


def kkt_residual(problem: ProblemData, u, gradient) -> float:
    """Space-time norm of the pointwise first-order violation.

    Interior cells contribute |g|, cells at the lower bound contribute
    max(0, -g), cells at the upper bound contribute max(0, g).  A cell
    within BOUND_TOL of a bound counts as lying on it.
    """
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, u)
    g = as_trajectory(tg, grid, gradient)
    upper = problem.u_max
    if np.min(u) < -BOUND_TOL or np.max(u - upper) > BOUND_TOL:
        raise InfeasibleControl(
            "control leaves [0, u_max] by more than %.1e" % BOUND_TOL)
    at_lo = u <= BOUND_TOL
    at_hi = u >= upper - BOUND_TOL
    viol = np.abs(g)
    viol = np.where(at_lo, np.maximum(0.0, -g), viol)
    # Cells with coincident bounds are fully constrained: no violation.
    viol = np.where(at_hi, np.where(at_lo, 0.0, np.maximum(0.0, g)), viol)
    return mesh.norm_q(tg, grid, viol)


def projected_gradient_descent(problem: ProblemData, u0=0.0,
                               opt: OptimizerConfig = OptimizerConfig(),
                               callback=None) -> OptimizeResult:
    """Minimize the reduced cost over the box by projected gradient.

    Each iteration prices the gradient with one discrete adjoint solve, then
    backtracks along the projection arc until the accepted point decreases
    the cost by at least ARMIJO_C / step * |u - u_new|_Q^2, shrinking the
    step by ARMIJO_SHRINK after each miss.  The search starts from the
    Barzilai-Borwein step <s,s>_Q / <s,y>_Q of the last control and
    gradient changes s, y (taken as 0 when <s,y>_Q <= 0), or from step0
    on the first iteration and when that step is not in [min_step, inf).
    Each search records its seed in ``step_source`` and its forward
    solves in ``trials``.  A trial whose forward solve fails
    (SolverStepError or DomainViolation) is rejected like one that misses
    the decrease, and counted in ``rejected_trials``.  Terminates when the
    stationarity measure falls to stat_tol (Stationary), the iteration
    budget is spent (MaxIters), or no step above min_step is acceptable
    (Stalled).  The returned adjoint, gradient and stationarity history
    always correspond to the returned control.
    """
    grid, tg = problem.grid, problem.tgrid
    u = project_control(problem, as_trajectory(tg, grid, u0))
    state = solve_state(problem, u)
    J = cost(problem, state, u)
    J_history = [J]
    kkt_history, step_history, iter_seconds = [], [], []
    iterations = 0
    rejected_trials = 0
    step_source, trials = [], []
    while True:
        tic = time.perf_counter()
        gradient, adjoint, _ = reduced_gradient(problem, u, state)
        kkt = kkt_residual(problem, u, gradient)
        kkt_history.append(kkt)
        if callback is not None:
            callback(iterations, u, J, kkt)
        if kkt <= opt.stat_tol:
            termination = TERMINATION_STATIONARY
            break
        if iterations >= opt.max_iters:
            termination = TERMINATION_MAX_ITERS
            break
        step, source = opt.step0, "step0"
        if iterations:
            s, y = u - u_prev, gradient - g_prev
            sy = mesh.inner_q(tg, grid, s, y)
            bb = mesh.inner_q(tg, grid, s, s) / sy if sy > 0.0 else 0.0
            if opt.min_step <= bb < np.inf:
                step, source = bb, "bb"
        step_source.append(source)
        trials.append(0)
        accepted = False
        while step >= opt.min_step:
            u_try = project_control(problem, u - step * gradient)
            diff = u - u_try
            decrease = mesh.inner_q(tg, grid, diff, diff)
            if decrease > 0.0:
                trials[-1] += 1
                try:
                    state_try = solve_state(problem, u_try)
                except (SolverStepError, DomainViolation):
                    rejected_trials += 1
                else:
                    J_try = cost(problem, state_try, u_try)
                    if J_try <= J - ARMIJO_C * decrease / step:
                        accepted = True
                        break
            step *= ARMIJO_SHRINK
        if not accepted:
            termination = TERMINATION_STALLED
            break
        u_prev, g_prev = u, gradient
        u, state, J = u_try, state_try, J_try
        J_history.append(J)
        step_history.append(step)
        iterations += 1
        iter_seconds.append(time.perf_counter() - tic)
    return OptimizeResult(u=u, state=state, adjoint=adjoint, gradient=gradient,
                          J_history=J_history, kkt_history=kkt_history,
                          step_history=step_history, iter_seconds=iter_seconds,
                          termination=termination, iterations=iterations,
                          rejected_trials=rejected_trials,
                          step_source=step_source, trials=trials)
