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
from functools import partial

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


class _Blocks:
    """Per-step rows of stacks, formed a block of steps at a time.

    ``form(lo, hi)`` yields stacks with one row per step lo..hi-1, of
    the ``count`` steps.  Asking for a step outside the current block
    forms a block of up to ``rows`` steps that ends at it when it lies
    below the block or is the last step, and starts at it otherwise, so
    the blocks follow a march up or down.  A block is formed one stack
    at a time in the buffer of the last, so a march holds one block;
    the rows handed out before are overwritten.
    """

    def __init__(self, form, count: int, rows: int):
        self.form, self.count, self.rows = form, count, min(rows, count)
        self.lo = self.hi = 0
        self.buf, self.steps = [], None

    def __getitem__(self, n: int) -> tuple:
        if not self.lo <= n < self.hi:
            self._fill(n)
        return self.steps[n - self.lo]

    def _fill(self, n: int) -> None:
        if n < self.lo or n == self.count - 1:
            self.lo, self.hi = max(0, n + 1 - self.rows), n + 1
        else:
            self.lo, self.hi = n, min(self.count, n + self.rows)
        size, view = self.hi - self.lo, []
        for i, stack in enumerate(self.form(self.lo, self.hi)):
            if i == len(self.buf):
                self.buf.append(np.empty((self.rows,) + stack.shape[1:]))
            self.buf[i][:size] = stack
            view.append(self.buf[i][:size])
        self.steps = list(zip(*view))


class StepOperators:
    """The forward march linearized about a state, one step at a time.

    Step n maps level n to level n+1.  Its tangent reads

        (S - L) xi[n+1]  = d xi[n] + eta[n]
        (D - L) eta[n+1] = h[n+1] + a xi[n+1] + b xi[n] + C eta[n]

    with d = delta/tau, S the Newton shift at rho[n+1], D the potential
    diagonal, C its carry, a = (2 mu[n] - 3 mu[n+1])/tau and
    b = mu[n+1]/tau.  The coefficients are formed from the state a block
    of steps at a time, with one call of each formula over the block's
    levels; a block holds as many steps as fit in half the budget of the
    residual check, ``mesh.block_rows(grid, 2)`` (16 steps at 64 cells,
    one at 32x32 and at 64x64), and follows the march up or down; the
    rows of a block stay valid until a step outside it is asked for.
    """

    def __init__(self, problem: ProblemData, state: StateTrajectory):
        self.problem, self.state = problem, state
        self._d = problem.delta / problem.tgrid.tau
        rows, N = mesh.block_rows(problem.grid, 2), problem.tgrid.N
        # The forms close over the problem and state, not over self, so
        # no reference cycle keeps the state alive after the march.
        self._solved = _Blocks(partial(_solved, problem, state), N, rows)
        self._carried = _Blocks(partial(_carried, problem, state), N, rows)

    def solved(self, n: int) -> tuple:
        """(S, D, a): the diagonals step n inverts and their coupling."""
        return self._solved[n]

    def carried(self, n: int) -> tuple:
        """(d, C, b): the weights of level n on the right of step n."""
        return (self._d,) + self._carried[n]


def _solved(problem, state, lo, hi):
    """The stacks S, D and a of steps lo..hi-1."""
    p, tau, rho, mu = problem, problem.tgrid.tau, state.rho, state.mu
    yield newton_shift(p.potential, p.delta, tau, rho[lo + 1:hi + 1])
    yield mu_diagonal(p.epsilon, tau, rho[lo:hi], rho[lo + 1:hi + 1])
    yield (2.0 * mu[lo:hi] - 3.0 * mu[lo + 1:hi + 1]) / tau


def _carried(problem, state, lo, hi):
    """The stacks C and b of steps lo..hi-1."""
    tau = problem.tgrid.tau
    yield mu_carry(problem.epsilon, tau, state.rho[lo + 1:hi + 1])
    yield state.mu[lo + 1:hi + 1] / tau


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


def _pde_terms(problem, state):
    """The state-only terms of the pde adjoint march at each level n < N,
    formed backward a block of levels at a time in a quarter of the
    residual check's budget: (C, 1 + rho_t, beta1 (mu - mu_target),
    C + 1, mu_t, S) with C and S the carry and Newton shift at rho[n]."""
    tau, rho, mu = problem.tgrid.tau, state.rho, state.mu

    def form(lo, hi):
        carry = mu_carry(problem.epsilon, tau, rho[lo:hi])
        yield carry
        yield 1.0 + (rho[lo + 1:hi + 1] - rho[lo:hi]) / tau
        yield problem.beta1 * (mu[lo:hi] - problem.mu_target[lo:hi])
        yield carry + 1.0
        yield (mu[lo + 1:hi + 1] - mu[lo:hi]) / tau
        yield newton_shift(problem.potential, problem.delta, tau, rho[lo:hi])

    return _Blocks(form, problem.tgrid.N, mesh.block_rows(problem.grid, 4))


def _adjoint_pde(problem, state):
    grid, tg = problem.grid, problem.tgrid
    tau = tg.tau
    delta = problem.delta
    rho, mu = state.rho, state.mu
    q = np.zeros((tg.N + 1, grid.num_cells))
    p = np.zeros_like(q)
    p[tg.N] = (rho[tg.N] - problem.rho_target) / delta
    terms = _pde_terms(problem, state)
    with mesh.CheckedSolves(grid, tg.N) as solves:
        for n in range(tg.N - 1, -1, -1):
            solves.step = n + 1
            carry, one_rho_t, source, diag, mu_t, shift = terms[n]
            rhs_q = carry * q[n + 1] + one_rho_t * q[n + 1] + p[n + 1] \
                + source
            q[n] = solves.solve(diag, rhs_q)
            rhs_p = (delta / tau) * p[n + 1] \
                + mu[n] * (q[n + 1] - q[n]) / tau - mu_t * q[n]
            p[n] = solves.solve(shift, rhs_p)
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
