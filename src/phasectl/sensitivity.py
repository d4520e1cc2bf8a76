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
from .mesh import check_trajectory

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


def _step_terms(problem, state, lo, hi):
    """The stacks (S, D, a, C, b) of steps lo..hi-1: the diagonals each
    step inverts, their coupling, and the weights of level n on the right
    of step n beside d.

    Step n maps level n to level n+1.  Its tangent reads

        (S - L) xi[n+1]  = d xi[n] + eta[n]
        (D - L) eta[n+1] = h[n+1] + a xi[n+1] + b xi[n] + C eta[n]

    with d = delta/tau, S the Newton shift at rho[n+1], D the potential
    diagonal, C its carry, a = (2 mu[n] - 3 mu[n+1])/tau and
    b = mu[n+1]/tau.  The marches form them a block of
    ``mesh.block_rows(grid, 2)`` steps at a time, half the budget of the
    residual check, with one call of each formula over the block.
    """
    tau, rho, mu = problem.tgrid.tau, state.rho, state.mu
    new = rho[lo + 1:hi + 1]
    return (newton_shift(problem, new), mu_diagonal(problem, rho[lo:hi], new),
            (2.0 * mu[lo:hi] - 3.0 * mu[lo + 1:hi + 1]) / tau,
            mu_carry(problem, new), mu[lo + 1:hi + 1] / tau)


def solve_tangent(problem: ProblemData, state: StateTrajectory, h
                  ) -> TangentTrajectory:
    """Differentiate the forward march along control direction h."""
    grid, tg = problem.grid, problem.tgrid
    h = check_trajectory(tg, grid, h)
    d = problem.delta / tg.tau
    xi = np.zeros(h.shape)
    eta = np.zeros(h.shape)
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for lo, hi in mesh.blocks(tg.N, mesh.block_rows(grid, 2)):
            shift, diag, a, carry, b = _step_terms(problem, state, lo, hi)
            for n in range(lo, hi):
                i = n - lo
                solves.step = n + 1
                xi[n + 1] = solves.solve(shift[i], d * xi[n] + eta[n])
                rhs = h[n + 1] + a[i] * xi[n + 1] + b[i] * xi[n] \
                    + carry[i] * eta[n]
                eta[n + 1] = solves.solve(diag[i], rhs)
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
    # Step n solves level n+1, then forms the right sides of step n-1
    # with its own C and b.
    grid, tg = problem.grid, problem.tgrid
    tau, d = tg.tau, problem.delta / tg.tau
    c = tg.trap_weights()
    w, mu, mu_target = problem.beta1 * tau * c, state.mu, problem.mu_target
    y = np.zeros_like(mu)
    x = np.zeros_like(y)
    rhs_y = w[tg.N] * (mu[tg.N] - mu_target[tg.N])
    rhs_x = state.rho[tg.N] - problem.rho_target
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for lo, hi in mesh.blocks(tg.N, mesh.block_rows(grid, 2),
                                  backward=True):
            shift, diag, a, carry, b = _step_terms(problem, state, lo, hi)
            for n in range(hi - 1, lo - 1, -1):
                i = n - lo
                solves.step = n + 1
                y[n + 1] = solves.solve(diag[i], rhs_y)
                x[n + 1] = solves.solve(shift[i], a[i] * y[n + 1] + rhs_x)
                rhs_y = w[n] * (mu[n] - mu_target[n]) + x[n + 1] \
                    + carry[i] * y[n + 1]
                rhs_x = d * x[n + 1] + b[i] * y[n + 1]
    y[1:] /= tau * c[1:, None]
    x[1:] /= tau
    # No multiplier exists at level 0; pad with the adjacent level.
    x[0] = x[1]
    return AdjointTrajectory(p=x, q=y)


def _pde_terms(problem, state, lo, hi):
    """The state-only terms of the pde adjoint march at levels lo..hi-1,
    (C, 1 + rho_t, beta1 (mu - mu_target), C + 1, mu_t, S) with C and S
    the carry and Newton shift at rho[n], which the march forms a block
    of ``mesh.block_rows(grid, 4)`` levels at a time."""
    tau, rho, mu = problem.tgrid.tau, state.rho, state.mu
    carry = mu_carry(problem, rho[lo:hi])
    return (carry, 1.0 + (rho[lo + 1:hi + 1] - rho[lo:hi]) / tau,
            problem.beta1 * (mu[lo:hi] - problem.mu_target[lo:hi]),
            carry + 1.0, (mu[lo + 1:hi + 1] - mu[lo:hi]) / tau,
            newton_shift(problem, rho[lo:hi]))


def _adjoint_pde(problem, state):
    grid, tg = problem.grid, problem.tgrid
    tau, delta, rho, mu = tg.tau, problem.delta, state.rho, state.mu
    q = np.zeros((tg.N + 1, grid.num_cells))
    p = np.zeros_like(q)
    p[tg.N] = (rho[tg.N] - problem.rho_target) / delta
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for lo, hi in mesh.blocks(tg.N, mesh.block_rows(grid, 4),
                                  backward=True):
            carry, one_rho_t, source, diag, mu_t, shift = _pde_terms(
                problem, state, lo, hi)
            for n in range(hi - 1, lo - 1, -1):
                i = n - lo
                solves.step = n + 1
                rhs_q = carry[i] * q[n + 1] + one_rho_t[i] * q[n + 1] \
                    + p[n + 1] + source[i]
                q[n] = solves.solve(diag[i], rhs_q)
                rhs_p = (delta / tau) * p[n + 1] \
                    + mu[n] * (q[n + 1] - q[n]) / tau - mu_t[i] * q[n]
                p[n] = solves.solve(shift[i], rhs_p)
    return AdjointTrajectory(p=p, q=q)


def duality_pairing(problem: ProblemData, state: StateTrajectory,
                    tangent: TangentTrajectory, adjoint: AdjointTrajectory,
                    h) -> tuple:
    """Both sides of the tangent-adjoint duality identity.

    Left side pairs the tracking misfits with the tangent response;
    right side pairs the potential adjoint with the control direction.
    For the discrete mode the two agree to solver precision; for the pde
    mode the gap shrinks first order under refinement.  The tracking
    misfit mu - mu_target is formed a block of ``mesh.block_rows`` levels
    at a time, each level paired as ``inner_q`` pairs it.
    """
    grid, tg = problem.grid, problem.tgrid
    h = check_trajectory(tg, grid, h)
    lhs = mesh.inner_h(grid, state.rho[tg.N] - problem.rho_target,
                       tangent.xi[tg.N])
    pairs = np.empty(tg.N + 1)
    for lo, hi in mesh.blocks(tg.N + 1, mesh.block_rows(grid)):
        pairs[lo:hi] = mesh.inner_h(grid, state.mu[lo:hi]
                                    - problem.mu_target[lo:hi],
                                    tangent.eta[lo:hi])
    lhs += problem.beta1 * (tg.tau * float(np.dot(tg.trap_weights(), pairs)))
    rhs = mesh.inner_q(tg, grid, adjoint.q, h)
    return lhs, rhs
