"""Tangent and adjoint solves around a stored state trajectory.

The tangent system is the exact derivative of the implemented stepping:
each step linearizes the order-parameter solve (same operator as the
final Newton Jacobian) and the potential solve (including the derivative
of its rho-dependent diagonal), with the same staggering as the forward
march and zero initial data.

Two adjoint constructions are provided.

``discrete``
    Transposes the tangent step by step and composes it with the cost
    derivatives, so the duality identity and the reduced-gradient
    pairing hold to solver precision.  The multiplier of the terminal
    potential equation is generally a small nonzero field, so the
    terminal levels carry the transposed values rather than the formal
    terminal conditions; they approach those conditions at first order
    in the step size.

``pde``
    Marches a backward scheme for the continuous adjoint system in
    which the couplings are delayed by one step, with the formal
    terminal conditions imposed exactly: q vanishes at the final level
    and delta * p equals the terminal tracking misfit there.

Both modes agree up to O(tau + h^2); the verification module measures
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh
from .errors import require
from .forward import (ProblemData, StateTrajectory, mu_carry, mu_diagonal,
                      newton_shift)
from .mesh import as_trajectory

ADJOINT_MODES = ("discrete", "pde")


def check_adjoint_mode(mode: str) -> str:
    """The mode, or ValidationError naming adjoint_mode."""
    require(mode in ADJOINT_MODES, "adjoint_mode",
            "adjoint_mode in {%s}" % ", ".join(ADJOINT_MODES), mode)
    return mode


@dataclass
class TangentTrajectory:
    """Directional state derivative: xi for rho, eta for mu."""

    xi: np.ndarray
    eta: np.ndarray


@dataclass
class AdjointTrajectory:
    """Adjoint pair: p for the order parameter, q for the potential."""

    p: np.ndarray
    q: np.ndarray


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


def solve_tangent(problem: ProblemData, state: StateTrajectory, h
                  ) -> TangentTrajectory:
    """Differentiate the forward march along control direction h."""
    grid, tg = problem.grid, problem.tgrid
    h = as_trajectory(tg, grid, h)
    ops = StepOperators(problem, state)
    xi = np.zeros_like(h)
    eta = np.zeros_like(h)
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for n in range(tg.N):
            solves.step = n + 1
            shift, diag, a = ops.solved(n)
            d, carry, b = ops.carried(n)
            xi[n + 1] = solves.solve(shift, d * xi[n] + eta[n])
            rhs = h[n + 1] + a * xi[n + 1] + b * xi[n] + carry * eta[n]
            eta[n + 1] = solves.solve(diag, rhs)
    return TangentTrajectory(xi=xi, eta=eta)


def solve_adjoint(problem: ProblemData, state: StateTrajectory, *,
                  mode: str = "discrete") -> AdjointTrajectory:
    """Solve the adjoint pair backward from the tracking misfits."""
    if check_adjoint_mode(mode) == "discrete":
        return _adjoint_discrete(problem, state)
    return _adjoint_pde(problem, state)


def _adjoint_discrete(problem, state):
    # Backward substitution through the transposed tangent steps.  x and
    # y are the multipliers of the two equations of each step, indexed
    # by the level that step solves for.  Both diagonal blocks are
    # symmetric, so each transposed solve reuses the forward operator.
    grid, tg = problem.grid, problem.tgrid
    tau = tg.tau
    ops = StepOperators(problem, state)
    c = tg.trap_weights()
    mu = state.mu
    y = np.zeros_like(mu)
    x = np.zeros_like(y)
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for k in range(tg.N, 0, -1):
            solves.step = k
            rhs_y = problem.beta1 * tau * c[k] * (mu[k] - problem.mu_target[k])
            if k == tg.N:
                rhs_x = state.rho[k] - problem.rho_target
            else:
                d, carry, b = ops.carried(k)
                rhs_y = rhs_y + x[k + 1] + carry * y[k + 1]
                rhs_x = d * x[k + 1] + b * y[k + 1]
            shift, diag, a = ops.solved(k - 1)
            y[k] = solves.solve(diag, rhs_y)
            x[k] = solves.solve(shift, a * y[k] + rhs_x)
    y[1:] /= tau * c[1:, None]
    x[1:] /= tau
    # No multiplier exists at level 0; pad with the adjacent level.
    x[0] = x[1]
    return AdjointTrajectory(p=x, q=y)


def _adjoint_pde(problem, state):
    grid, tg = problem.grid, problem.tgrid
    tau = tg.tau
    delta = problem.delta
    rho, mu = state.rho, state.mu
    q = np.zeros((tg.N + 1, grid.num_cells))
    p = np.zeros_like(q)
    p[tg.N] = (rho[tg.N] - problem.rho_target) / delta
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for n in range(tg.N - 1, -1, -1):
            solves.step = n + 1
            rho_t = (rho[n + 1] - rho[n]) / tau
            mu_t = (mu[n + 1] - mu[n]) / tau
            carry = mu_carry(problem.epsilon, tau, rho[n])
            rhs_q = carry * q[n + 1] + (1.0 + rho_t) * q[n + 1] \
                + p[n + 1] + problem.beta1 * (mu[n] - problem.mu_target[n])
            q[n] = solves.solve(carry + 1.0, rhs_q)
            rhs_p = (delta / tau) * p[n + 1] \
                + mu[n] * (q[n + 1] - q[n]) / tau - mu_t * q[n]
            p[n] = solves.solve(
                newton_shift(problem.potential, delta, tau, rho[n]), rhs_p)
    return AdjointTrajectory(p=p, q=q)


def adjoint_mode_gap(problem: ProblemData, state: StateTrajectory) -> float:
    """Largest per-level cell-norm gap between the two adjoint modes.

    Compared over the multiplier levels 1..N: level 0 of the discrete
    potential adjoint is a structural zero because the first control
    level never enters the dynamics, while the backward pde march
    integrates to t=0.  Over the compared levels the gap shrinks first
    order in tau on a fixed spatial grid.
    """
    qd = solve_adjoint(problem, state, mode="discrete").q
    qp = solve_adjoint(problem, state, mode="pde").q
    return float(np.max(mesh.norm_h(problem.grid, qd[1:] - qp[1:])))


def duality_pairing(problem: ProblemData, state: StateTrajectory,
                    tangent: TangentTrajectory, adjoint: AdjointTrajectory,
                    h) -> tuple:
    """Both sides of the tangent-adjoint duality identity.

    Left side pairs the tracking misfits with the tangent response;
    right side pairs the potential adjoint with the control direction.
    For the discrete mode the two agree to solver precision; for the pde
    mode the gap shrinks first order under refinement.
    """
    grid, tg = problem.grid, problem.tgrid
    h = as_trajectory(tg, grid, h)
    lhs = mesh.inner_h(grid, state.rho[tg.N] - problem.rho_target,
                       tangent.xi[tg.N])
    lhs += problem.beta1 * mesh.inner_q(tg, grid, state.mu - problem.mu_target,
                                        tangent.eta)
    rhs = mesh.inner_q(tg, grid, adjoint.q, h)
    return lhs, rhs
