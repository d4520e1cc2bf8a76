"""Implicit time stepping for the coupled phase-field / potential system.

Each step advances the order parameter first and the chemical potential
second.  The order-parameter equation

    delta * (rho^{n+1} - rho^n) / tau - Lap rho^{n+1} + f'(rho^{n+1}) = mu^n

is solved by a damped Newton iteration whose steps are scaled to keep
every cell a fixed fraction of its current distance away from the
singular endpoints 0 and 1.  The chemical-potential equation is linear
once rho^{n+1} is known; the time derivative of the product mu * rho is
discretized as mu^{n+1} * (rho^{n+1} - rho^n) / tau, which folds into the
diagonal and preserves an M-matrix, hence nonnegativity of mu for
nonnegative data and sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh
from .errors import (NewtonDivergence, NonpositiveCoefficient,
                     SolverStepError, require)
from .mesh import Grid, TimeGrid, as_field, as_trajectory
from .potential import Potential


@dataclass
class ProblemData:
    """Everything defining one control problem instance.

    Initial data, targets and the box bound are normalized to new arrays
    on construction; scalars broadcast.  The order-parameter initial datum
    must be strictly inside (0, 1), and mu0 and u_max nonnegative.
    """

    grid: Grid
    tgrid: TimeGrid
    epsilon: float
    delta: float
    potential: Potential = Potential()
    rho0: np.ndarray = 0.5
    mu0: np.ndarray = 0.0
    u_max: np.ndarray = 1.0
    beta1: float = 1.0
    beta2: float = 1e-4
    rho_target: np.ndarray = 0.5
    mu_target: np.ndarray = 0.0

    # Array fields: None for a field, else a trajectory's snapshot base.
    ARRAY_FIELDS = {"rho0": None, "mu0": None, "u_max": "u",
                    "rho_target": None, "mu_target": "mu"}

    def __post_init__(self):
        require(self.epsilon > 0.0, "epsilon", "epsilon > 0", self.epsilon)
        require(self.delta > 0.0, "delta", "delta > 0", self.delta)
        require(self.beta1 >= 0.0, "beta1", "beta1 >= 0", self.beta1)
        require(self.beta2 >= 0.0, "beta2", "beta2 >= 0", self.beta2)
        for key, base in self.ARRAY_FIELDS.items():
            value = getattr(self, key)
            setattr(self, key, as_field(self.grid, value) if base is None
                    else as_trajectory(self.tgrid, self.grid, value))
        lo, hi = float(np.min(self.rho0)), float(np.max(self.rho0))
        require(lo > 0.0, "rho0", "inf rho0 > 0", lo)
        require(hi < 1.0, "rho0", "sup rho0 < 1", hi)
        for key in ("mu0", "u_max"):
            lo = float(np.min(getattr(self, key)))
            require(lo >= 0.0, key, "%s >= 0" % key, lo)


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    newton_max: int = 30
    boundary_margin: float = 0.1
    linear_tol: float = 1e-8
    bound_tol: float = 1e-10

    def __post_init__(self):
        require(self.newton_tol > 0.0, "newton_tol", "newton_tol > 0",
                self.newton_tol)
        require(self.newton_max >= 1, "newton_max", "newton_max >= 1",
                self.newton_max)
        require(0.0 < self.boundary_margin < 1.0, "boundary_margin",
                "0 < boundary_margin < 1", self.boundary_margin)
        require(self.linear_tol > 0.0, "linear_tol", "linear_tol > 0",
                self.linear_tol)
        require(self.bound_tol >= 0.0, "bound_tol", "bound_tol >= 0",
                self.bound_tol)


@dataclass
class Diagnostics:
    """Per-step and per-level records from one forward solve."""

    newton_iters: list
    newton_residuals: list
    min_coefficient: list
    rho_min: list
    rho_max: list
    mu_min: list
    mu_max: list
    bound_violations: int


@dataclass
class StateTrajectory:
    rho: np.ndarray
    mu: np.ndarray
    diagnostics: Diagnostics


def newton_shift(pot: Potential, delta: float, tau: float,
                 rho: np.ndarray) -> np.ndarray:
    """Diagonal of the order-parameter step Jacobian, delta/tau + f''(rho)."""
    return delta / tau + pot.d2(rho)


def mu_diagonal(epsilon: float, tau: float, rho_prev: np.ndarray,
                rho_new: np.ndarray) -> np.ndarray:
    """Diagonal of the potential step; it must stay positive."""
    return (epsilon + 3.0 * rho_new - rho_prev) / tau


def mu_carry(epsilon: float, tau: float, rho_new: np.ndarray) -> np.ndarray:
    """Weight of the previous potential on the right of the potential step."""
    return (epsilon + 2.0 * rho_new) / tau


def out_of_bounds(rho: np.ndarray, mu: np.ndarray, bound_tol: float) -> int:
    """Entries with rho outside (0, 1) or mu below -bound_tol; NaN counts."""
    return int(np.count_nonzero(~((rho > 0.0) & (rho < 1.0)))
               + np.count_nonzero(~(mu >= -bound_tol)))


def _rho_residual(grid, pot, delta, tau, rho_prev, rho, mu_prev):
    return (delta / tau) * (rho - rho_prev) - mesh.laplacian_apply(grid, rho) \
        + pot.d1(rho) - mu_prev


def _residual_norm(grid: Grid, res: np.ndarray):
    """Cell norm of a Newton residual, over max|res| if its square overflows.

    Called with overflow raising, as step_rho does.  The plain norm is
    kept whenever it is finite.
    """
    try:
        return mesh.norm_h(grid, res)
    except FloatingPointError:
        scale = np.abs(res).max()
        with np.errstate(over="ignore"):
            return scale * mesh.norm_h(grid, res / scale)


def _damping(rho: np.ndarray, step: np.ndarray, theta: float):
    """Largest factor in (0, 1] that keeps every cell at least theta times
    its current distance from the endpoint its step heads for."""
    dist = np.where(step < 0.0, rho, 1.0 - rho)
    # inf / 0 is inf and raises no divide-by-zero flag.
    dist[step == 0.0] = np.inf
    return min(1.0, (1.0 - theta) * (dist / np.abs(step)).min())


def step_rho(grid: Grid, pot: Potential, delta: float, tau: float,
             rho_prev: np.ndarray, mu_prev: np.ndarray, cfg: SolverConfig
             ) -> tuple:
    """Advance the order parameter by one implicit step.

    Newton iteration warm-started at the previous level.  Steps are
    scaled by the largest factor in (0, 1] that keeps every cell at
    least boundary_margin times its current distance from each endpoint,
    so iterates can approach 0 and 1 but never jump onto them.  Returns
    the new level and the residual norm of every iterate.  Raises
    NewtonDivergence if the residual norm fails to reach newton_tol
    within newton_max iterations or the Newton shift overflows; any
    SolverStepError raised here carries the residual norms so far in
    ``newton_residuals``.
    """
    theta = cfg.boundary_margin
    rho = rho_prev.copy()
    history = []
    try:
        for _ in range(cfg.newton_max + 1):
            res = _rho_residual(grid, pot, delta, tau, rho_prev, rho, mu_prev)
            # An overflowing norm is rescaled, an overflowing shift fails.
            with np.errstate(over="raise"):
                rnorm = _residual_norm(grid, res)
                history.append(rnorm)
                if rnorm <= cfg.newton_tol:
                    return rho, history
                try:
                    shift = newton_shift(pot, delta, tau, rho)
                except FloatingPointError:
                    raise NewtonDivergence(
                        "Newton shift delta/tau + f''(rho) overflows at "
                        "iterate %d" % (len(history) - 1)) from None
            step = mesh.solve_shifted(grid, shift, -res)
            rho = rho + _damping(rho, step, theta) * step
        raise NewtonDivergence(
            "Newton residual %.3e above tolerance %.3e after %d iterations"
            % (history[-1], cfg.newton_tol, cfg.newton_max))
    except SolverStepError as exc:
        exc.newton_residuals = history
        raise


def step_mu(grid: Grid, epsilon: float, tau: float, rho_prev: np.ndarray,
            rho_new: np.ndarray, mu_prev: np.ndarray, u_new: np.ndarray,
            cfg: SolverConfig) -> np.ndarray:
    """Advance the chemical potential by one linear implicit step."""
    diag = mu_diagonal(epsilon, tau, rho_prev, rho_new)
    lo = diag.min()
    if lo <= 0.0:
        raise NonpositiveCoefficient(
            "potential step diagonal min %.3e is nonpositive" % lo)
    rhs = u_new + mu_carry(epsilon, tau, rho_new) * mu_prev
    return mesh.solve_shifted(grid, diag, rhs, tol=cfg.linear_tol)


def _diagnose(problem: ProblemData, rho: np.ndarray, mu: np.ndarray,
             histories: list, bound_tol: float) -> Diagnostics:
    """Diagnostics of the levels ``rho``, ``mu`` reached by the steps
    whose Newton residual histories are given, one step per history."""
    eps, tau = problem.epsilon, problem.tgrid.tau
    # Recorded in the units of epsilon: the diagonal times tau.
    coeff = tau * mu_diagonal(eps, tau, rho[:-1], rho[1:]).min(axis=1)
    return Diagnostics(
        newton_iters=[len(h) - 1 for h in histories],
        newton_residuals=[h[-1] for h in histories],
        min_coefficient=coeff.tolist(),
        rho_min=rho.min(axis=1).tolist(), rho_max=rho.max(axis=1).tolist(),
        mu_min=mu.min(axis=1).tolist(), mu_max=mu.max(axis=1).tolist(),
        bound_violations=out_of_bounds(rho, mu, bound_tol))


def solve_state(problem: ProblemData, u, cfg: SolverConfig = SolverConfig()
                ) -> StateTrajectory:
    """March the coupled system from the initial data under control u.

    Per step: the order-parameter step against the previous potential,
    then the potential step.  Errors raised inside a step carry that
    step's index, the number of steps and the Diagnostics of the levels
    already solved.
    """
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, u)
    tau = tg.tau
    rho = np.zeros((tg.N + 1, grid.num_cells))
    mu = np.zeros_like(rho)
    rho[0] = problem.rho0
    mu[0] = problem.mu0
    histories = []
    for n in range(tg.N):
        try:
            rho[n + 1], hist = step_rho(grid, problem.potential, problem.delta,
                                        tau, rho[n], mu[n], cfg)
            mu[n + 1] = step_mu(grid, problem.epsilon, tau, rho[n], rho[n + 1],
                                mu[n], u[n + 1], cfg)
        except SolverStepError as exc:
            exc.step, exc.steps = n + 1, tg.N
            exc.diagnostics = _diagnose(problem, rho[:n + 1], mu[:n + 1],
                                       histories, cfg.bound_tol)
            raise
        histories.append(hist)
    return StateTrajectory(rho=rho, mu=mu, diagnostics=_diagnose(
        problem, rho, mu, histories, cfg.bound_tol))


def residual_norms(problem: ProblemData, u, state: StateTrajectory) -> dict:
    """Cell-norm residuals of both discrete equations on a trajectory.

    Uses the same stencils and the same staggering as the solver, so a
    freshly solved trajectory scores at the Newton and linear
    tolerances.  Returns arrays indexed by step 1..N.
    """
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, u)
    tau, eps = tg.tau, problem.epsilon
    rho, mu = state.rho, state.mu
    res1 = _rho_residual(grid, problem.potential, problem.delta, tau,
                         rho[:-1], rho[1:], mu[:-1])
    res2 = mu_diagonal(eps, tau, rho[:-1], rho[1:]) * mu[1:] \
        - mesh.laplacian_apply(grid, mu[1:]) - u[1:] \
        - mu_carry(eps, tau, rho[1:]) * mu[:-1]
    return {"rho": mesh.norm_h(grid, res1), "mu": mesh.norm_h(grid, res2)}

