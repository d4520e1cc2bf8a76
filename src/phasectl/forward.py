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

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import mesh
from .errors import (NewtonDivergence, NonpositiveCoefficient, ShapeMismatch,
                     SolverStepError)
from .fields import as_field, as_trajectory
from .mesh import Grid, TimeGrid
from .potential import Potential


@dataclass
class ProblemData:
    """Everything defining one control problem instance.

    Initial data, targets and the box bound are normalized to arrays on
    construction; scalars broadcast.  The order-parameter initial datum
    must be strictly inside (0, 1).
    """

    grid: Grid
    tgrid: TimeGrid
    epsilon: float
    delta: float
    potential: Potential
    rho0: np.ndarray
    mu0: np.ndarray
    u_max: np.ndarray
    beta1: float = 1.0
    beta2: float = 1e-4
    rho_target: np.ndarray = 0.5
    mu_target: np.ndarray = 0.0

    def __post_init__(self):
        if self.epsilon <= 0.0 or self.delta <= 0.0:
            raise ShapeMismatch("requires epsilon > 0 and delta > 0")
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise ShapeMismatch("requires beta1 >= 0 and beta2 >= 0")
        self.rho0 = as_field(self.grid, self.rho0)
        self.mu0 = as_field(self.grid, self.mu0)
        self.u_max = as_trajectory(self.tgrid, self.grid, self.u_max)
        if np.min(self.rho0) <= 0.0 or np.max(self.rho0) >= 1.0:
            raise ShapeMismatch(
                "requires 0 < rho0 < 1 cellwise, got range [%g, %g]"
                % (np.min(self.rho0), np.max(self.rho0)))
        if np.min(self.u_max) < 0.0:
            raise ShapeMismatch("requires u_max >= 0")
        self.rho_target = as_field(self.grid, self.rho_target)
        self.mu_target = as_trajectory(self.tgrid, self.grid, self.mu_target)


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    newton_max: int = 30
    boundary_margin: float = 0.1
    linear_tol: float = 1e-8
    bound_tol: float = 1e-10


@dataclass
class Diagnostics:
    """Per-step and per-level records from one forward solve."""

    newton_iters: list = dc_field(default_factory=list)
    newton_residuals: list = dc_field(default_factory=list)
    min_coefficient: list = dc_field(default_factory=list)
    m_matrix_ok: list = dc_field(default_factory=list)
    rho_min: list = dc_field(default_factory=list)
    rho_max: list = dc_field(default_factory=list)
    mu_min: list = dc_field(default_factory=list)
    mu_max: list = dc_field(default_factory=list)
    bound_violations: int = 0

    def record_level(self, rho, mu, bound_tol):
        self.rho_min.append(float(np.min(rho)))
        self.rho_max.append(float(np.max(rho)))
        self.mu_min.append(float(np.min(mu)))
        self.mu_max.append(float(np.max(mu)))
        self.bound_violations += int(
            np.count_nonzero(rho <= 0.0) + np.count_nonzero(rho >= 1.0)
            + np.count_nonzero(mu < -bound_tol))


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


def _rho_residual(grid, pot, delta, tau, rho_prev, rho, mu_prev):
    return (delta / tau) * (rho - rho_prev) - mesh.laplacian_apply(grid, rho) \
        + pot.d1(rho) - mu_prev


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
    within newton_max iterations; any SolverStepError raised here
    carries the residual norms so far in ``newton_residuals``.
    """
    theta = cfg.boundary_margin
    rho = rho_prev.copy()
    history = []
    try:
        for _ in range(cfg.newton_max + 1):
            res = _rho_residual(grid, pot, delta, tau, rho_prev, rho, mu_prev)
            rnorm = mesh.norm_h(grid, res)
            history.append(rnorm)
            if rnorm <= cfg.newton_tol:
                return rho, history
            step = mesh.solve_shifted(grid, newton_shift(pot, delta, tau, rho),
                                      -res)
            lam = 1.0
            down = step < 0.0
            if np.any(down):
                lam = min(lam, (1.0 - theta) * np.min(rho[down] / -step[down]))
            up = step > 0.0
            if np.any(up):
                lam = min(lam,
                          (1.0 - theta) * np.min((1.0 - rho[up]) / step[up]))
            rho = rho + lam * step
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
    if np.min(diag) <= 0.0:
        raise NonpositiveCoefficient(
            "potential step diagonal min %.3e is nonpositive" % np.min(diag))
    rhs = u_new + mu_carry(epsilon, tau, rho_new) * mu_prev
    return mesh.solve_shifted(grid, diag, rhs, tol=cfg.linear_tol)


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
    diag = Diagnostics()
    diag.record_level(rho[0], mu[0], cfg.bound_tol)
    for n in range(tg.N):
        try:
            rho[n + 1], hist = step_rho(grid, problem.potential, problem.delta,
                                        tau, rho[n], mu[n], cfg)
            mu[n + 1] = step_mu(grid, problem.epsilon, tau, rho[n], rho[n + 1],
                                mu[n], u[n + 1], cfg)
        except SolverStepError as exc:
            exc.step, exc.steps, exc.diagnostics = n + 1, tg.N, diag
            raise
        diag.newton_iters.append(len(hist) - 1)
        diag.newton_residuals.append(hist[-1])
        # Recorded in the units of epsilon: the diagonal times tau.
        coeff = tau * float(np.min(
            mu_diagonal(problem.epsilon, tau, rho[n], rho[n + 1])))
        diag.min_coefficient.append(coeff)
        diag.m_matrix_ok.append(coeff > 0.0)
        diag.record_level(rho[n + 1], mu[n + 1], cfg.bound_tol)
    return StateTrajectory(rho=rho, mu=mu, diagnostics=diag)


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
    rho_res = np.zeros(tg.N)
    mu_res = np.zeros(tg.N)
    for n in range(tg.N):
        res1 = _rho_residual(grid, problem.potential, problem.delta, tau,
                             rho[n], rho[n + 1], mu[n])
        res2 = mu_diagonal(eps, tau, rho[n], rho[n + 1]) * mu[n + 1] \
            - mesh.laplacian_apply(grid, mu[n + 1]) - u[n + 1] \
            - mu_carry(eps, tau, rho[n + 1]) * mu[n]
        rho_res[n] = mesh.norm_h(grid, res1)
        mu_res[n] = mesh.norm_h(grid, res2)
    return {"rho": rho_res, "mu": mu_res}


@dataclass(frozen=True)
class StepOperators:
    """The forward march linearized about a state, one step at a time.

    Step n maps level n to level n+1.  Its tangent reads

        (S - L) xi[n+1]  = d xi[n] + eta[n]
        (D - L) eta[n+1] = h[n+1] + a xi[n+1] + b xi[n] + C eta[n]

    with d = delta/tau, S the Newton shift at rho[n+1], D the potential
    diagonal, C its carry, a = (2 mu[n] - 3 mu[n+1])/tau and
    b = mu[n+1]/tau.  A step's coefficients are formed from the state
    when asked for, so no per-level copies are kept.
    """

    problem: ProblemData
    state: StateTrajectory

    def solved(self, n: int) -> tuple:
        """(S, D, a): the diagonals step n inverts and their coupling."""
        p, tau = self.problem, self.problem.tgrid.tau
        rho, mu = self.state.rho, self.state.mu
        return (newton_shift(p.potential, p.delta, tau, rho[n + 1]),
                mu_diagonal(p.epsilon, tau, rho[n], rho[n + 1]),
                (2.0 * mu[n] - 3.0 * mu[n + 1]) / tau)

    def carried(self, n: int) -> tuple:
        """(d, C, b): the weights of level n on the right of step n."""
        tau = self.problem.tgrid.tau
        return (self.problem.delta / tau,
                mu_carry(self.problem.epsilon, tau, self.state.rho[n + 1]),
                self.state.mu[n + 1] / tau)

    def tangent_step(self, n: int, xi: np.ndarray, eta: np.ndarray,
                     h_new: np.ndarray, tol: float) -> tuple:
        """Level n+1 of the tangent from level n and the direction."""
        shift, diag, a = self.solved(n)
        d, carry, b = self.carried(n)
        grid = self.problem.grid
        xi_new = mesh.solve_shifted(grid, shift, d * xi + eta, tol=tol)
        rhs = h_new + a * xi_new + b * xi + carry * eta
        return xi_new, mesh.solve_shifted(grid, diag, rhs, tol=tol)
