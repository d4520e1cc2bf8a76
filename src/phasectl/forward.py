"""Implicit time stepping for the coupled phase-field / potential system.

Each step advances the order parameter first and the chemical potential
second.  The order-parameter equation

    delta * (rho^{n+1} - rho^n) / tau - Lap rho^{n+1} + f'(rho^{n+1}) = mu^n

is solved by a damped Newton iteration whose steps are scaled to keep
every cell a fixed fraction of its current distance away from the
singular endpoints 0 and 1.  Newton starts at the previous level rho^n,
or at the quadratic extrapolation rho^{n-2} + 3 (rho^n - rho^{n-1}),
damped as a Newton step is, when the step before needed two or more
Newton iterations, or itself extrapolated and needed at least one: where
the previous level converges in one iteration, extrapolating cannot
do better.  Where Newton fails from the extrapolated start, the step
runs it again from the previous level, and the step after starts there.
Newton stops at newton_tol, or at the residual's rounding floor
FLOOR_FACTOR |spacing(rho) (delta/tau + f''(rho))|_h where that is
larger, as it can be near rho = 1; Diagnostics.on_floor records the
steps that ended there.  Each iterate's domain is tested once, and its
least and greatest entries serve f', f'', the damping and a scalar
bound of that floor, so that the floor itself is formed only when the
residual is within the bound.

The chemical-potential equation is linear once rho^{n+1} is known; the
time derivative of the product mu * rho is discretized as
mu^{n+1} * (rho^{n+1} - rho^n) / tau, which folds into the diagonal and
preserves an M-matrix, hence nonnegativity of mu for nonnegative data
and sources.

Every step function and coefficient formula takes the ProblemData of
its instance, and reads delta, tau, epsilon, the potential and the
Newton settings there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt, ulp

import numpy as np

from . import mesh
from .errors import (DomainViolation, NewtonDivergence,
                     NonpositiveCoefficient, SolverStepError, require)
from .mesh import Grid, TimeGrid, as_field, as_trajectory, check_trajectory
from .potential import Potential, domain_bounds


@dataclass(frozen=True)
class SolverConfig:
    """The Newton iteration of the order-parameter step."""

    newton_tol: float = 1e-10
    newton_max: int = 30

    def __post_init__(self):
        require(self.newton_tol > 0.0, "newton_tol", "newton_tol > 0",
                self.newton_tol)
        require(self.newton_max >= 1, "newton_max", "newton_max >= 1",
                self.newton_max)


@dataclass
class ProblemData:
    """Everything defining one control problem instance, the Newton
    iteration of its order-parameter steps (``solver``) included.

    Initial data, targets and the box bound are normalized on
    construction to arrays the instance owns, so later writes to the
    caller's arrays do not reach it: new fields, and for u_max and
    mu_target new stacks, or, where the value is a scalar, a single
    field or a broadcast stack, a read-only broadcast of one new field
    over the time levels (``mesh.as_trajectory``).  The order-parameter
    initial datum must be strictly inside (0, 1), and mu0 and u_max
    nonnegative.
    """

    grid: Grid
    tgrid: TimeGrid
    epsilon: float
    delta: float
    potential: Potential = Potential()
    solver: SolverConfig = SolverConfig()
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
        # The step diagonals scale as delta / tau and (epsilon + 3) / tau.
        tau = self.tgrid.tau
        require(tau > 0.0 and max(self.delta, self.epsilon + 3.0) / tau
                < np.inf, "T", "delta / tau and (epsilon + 3) / tau finite at "
                "tau = T / N", tau)
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


# The share of its distance to 0 or 1 that a Newton step leaves each cell.
BOUNDARY_MARGIN = 0.1
# Newton also stops on a residual norm at most this many times
# |spacing(rho) * shift|_h, the rounding floor of the residual: near 1 the
# shift grows like c_log / (1 - rho) while the spacing of rho does not
# shrink, so that floor can lie above newton_tol.
FLOOR_FACTOR = 4.0
# The slack of the bounds mu >= 0 and 0 <= u <= u_max.
BOUND_TOL = 1e-10


@dataclass
class Diagnostics:
    """Per-step and per-level records from one forward solve."""

    newton_iters: list
    newton_residuals: list
    on_floor: list
    extrapolated: list
    fell_back: list
    min_coefficient: list
    min_newton_shift: list
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


def newton_shift(problem: ProblemData, rho: np.ndarray) -> np.ndarray:
    """Diagonal of the order-parameter step Jacobian, delta/tau + f''(rho)."""
    return problem.delta / problem.tgrid.tau + problem.potential.d2(rho)


def mu_diagonal(problem: ProblemData, rho_prev: np.ndarray,
                rho_new: np.ndarray) -> np.ndarray:
    """Diagonal of the potential step; it must stay positive."""
    return (problem.epsilon + 3.0 * rho_new - rho_prev) / problem.tgrid.tau


def mu_carry(problem: ProblemData, rho_new: np.ndarray) -> np.ndarray:
    """Weight of the previous potential on the right of the potential step."""
    return (problem.epsilon + 2.0 * rho_new) / problem.tgrid.tau


def out_of_bounds(rho: np.ndarray, mu: np.ndarray) -> int:
    """Entries with rho outside (0, 1) or mu below -BOUND_TOL; NaN counts."""
    return int(np.count_nonzero(~((rho > 0.0) & (rho < 1.0)))
               + np.count_nonzero(~(mu >= -BOUND_TOL)))


def _rho_residual(problem, rho_prev, rho, mu_prev, d1):
    """The order-parameter step residual, ``d1`` being f'(rho)."""
    return (problem.delta / problem.tgrid.tau) * (rho - rho_prev) \
        - mesh.laplacian_apply(problem.grid, rho) + d1 - mu_prev


def _floor_bound(problem, lo, hi):
    """An upper bound of FLOOR_FACTOR * |spacing(rho) * shift|_h from the
    least and greatest entries of rho: spacing(hi) bounds every spacing,
    the shift's size is at most delta/tau + 2 c_quad plus c_log over the
    least of r(1 - r), which lies at lo or at hi, and the cell norm of a
    field is at most sqrt(|Omega|) times its largest entry.  Doubled, so
    that rounding in the bound or in the floor cannot put the bound below
    the floor."""
    pot, grid = problem.potential, problem.grid
    least = min(lo * (1.0 - lo), hi * (1.0 - hi))
    size = problem.delta / problem.tgrid.tau + 2.0 * pot.c_quad \
        + pot.c_log / least
    return 2.0 * FLOOR_FACTOR * ulp(hi) * size * sqrt(
        grid.weight * grid.num_cells)


def _floor(grid, rho, shift):
    """FLOOR_FACTOR * |spacing(rho) * shift|_h, the rounding floor of the
    residual norm at ``rho``."""
    with np.errstate(over="ignore"):
        return FLOOR_FACTOR * mesh.scaled_norm(mesh.norm_h, grid,
                                               np.spacing(rho) * shift)


def _damping(rho: np.ndarray, step: np.ndarray, theta: float, lo: float,
             hi: float):
    """Largest factor in (0, 1] that keeps every cell at least theta times
    its current distance from the endpoint its step heads for; ``lo`` and
    ``hi`` are the least and greatest entries of rho.

    Returns 1.0 before any per-cell division when no step exceeds half of
    (1 - theta) times the least distance of rho to 0 or 1: each ratio
    below is then at least 2 / (1 - theta) up to rounding (at least
    1.5 / (1 - theta) where that bound is subnormal), so the full formula
    gives 1.0 too.  A NaN or infinite step takes the full formula.
    """
    bound = (1.0 - theta) * min(lo, 1.0 - hi)
    if 2.0 * np.abs(step).max() <= bound:
        return 1.0
    dist = np.where(step < 0.0, rho, 1.0 - rho)
    # inf / 0 is inf and raises no divide-by-zero flag; a subnormal step
    # may overflow a ratio to inf, its right value here.
    dist[step == 0.0] = np.inf
    with np.errstate(over="ignore"):
        ratio = dist / np.abs(step)
    return min(1.0, (1.0 - theta) * ratio.min())


def _extrapolate(levels: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The quadratic extrapolation of three levels, its increment over the
    last damped as a Newton step is, so it stays inside (0, 1); ``lo``
    and ``hi`` are the least and greatest entries of the last level."""
    step = levels[0] + 3.0 * (levels[2] - levels[1]) - levels[2]
    return levels[2] + _damping(levels[2], step, BOUNDARY_MARGIN, lo,
                                hi) * step


class NewtonHistory(list):
    """The residual norm of every Newton iterate of one order-parameter
    step, in order, and the number of Newton ``solves`` of its attempts.
    ``extrapolated`` is whether the step was given a start other than
    the previous level.  ``restart`` is 0, or the index of the first
    residual of the second attempt, the one from the previous level,
    when Newton from the given start failed.  ``on_floor`` is whether
    the level returned ended on the rounding floor above newton_tol, and
    ``bounds`` the least and greatest entries of the last iterate, the
    level returned."""

    extrapolated = False
    restart = 0
    solves = 0
    on_floor = False
    bounds = None


def step_rho(problem: ProblemData, rho_prev: np.ndarray, mu_prev: np.ndarray,
             start: np.ndarray = None) -> tuple:
    """Advance the order parameter by one implicit step.

    Newton iteration, with the settings of ``problem.solver``, started
    at ``start``, a level inside (0, 1), or at the previous level if
    ``start`` is None.  Steps are scaled by the largest factor in (0, 1]
    that keeps every cell at least BOUNDARY_MARGIN times its current
    distance from each endpoint, so iterates approach 0 and 1 but never
    step past them; one ulp from an endpoint, an iterate can still round
    onto it.  Returns the new level and its NewtonHistory.  If Newton
    from ``start`` raises NewtonDivergence, the step runs Newton again
    from the previous level; the history keeps the residuals of both
    attempts and marks where the second began.  Newton stops when the
    residual norm is at most newton_tol or FLOOR_FACTOR
    |spacing(rho) * shift|_h, its rounding floor; the history's
    ``on_floor`` records a stop above newton_tol.  Raises
    NewtonDivergence if the residual norm reaches neither within
    newton_max iterations (the message gives both), an iterate rounds
    onto 0 or 1, or f'(rho), the residual or the Newton shift overflows;
    any SolverStepError raised here carries the residual norms so far in
    ``newton_residuals`` and tau times the minimum of the last Newton
    shift formed, if any, in ``min_newton_shift``.
    """
    history = NewtonHistory()
    history.extrapolated = start is not None
    if start is not None:
        try:
            return _newton(problem, start, rho_prev, mu_prev, history), history
        except NewtonDivergence:
            history.restart = len(history)
    return _newton(problem, rho_prev, rho_prev, mu_prev, history), history


def _newton(problem, start, rho_prev, mu_prev, history):
    """The damped Newton iteration of step_rho from ``start``; appends the
    residual norm of every iterate to ``history``.  Each iterate's domain
    is tested once: its least and greatest entries serve f', f'', the
    damping and the floor bound."""
    grid, pot, cfg = problem.grid, problem.potential, problem.solver
    rho, shift = start.copy(), None
    try:
        for it in range(cfg.newton_max + 1):
            try:
                lo, hi = history.bounds = domain_bounds(rho)
            except DomainViolation as exc:
                # A cell rounded onto an endpoint the damping kept it off.
                raise NewtonDivergence("Newton iterate %d: %s"
                                       % (it, exc)) from None
            # An overflowing norm is rescaled; an overflowing f', residual
            # or shift fails, naming the term being formed.
            try:
                with np.errstate(over="raise"):
                    term = "residual term f'(rho)"
                    d1 = pot.d1_unchecked(rho)
                    term = "residual"
                    res = _rho_residual(problem, rho_prev, rho, mu_prev, d1)
                    rnorm = mesh.scaled_norm(mesh.norm_h, grid, res)
                    history.append(rnorm)
                    if rnorm <= cfg.newton_tol:
                        return rho
                    # newton_shift, on an iterate already tested.
                    term = "shift delta/tau + f''(rho)"
                    shift = problem.delta / problem.tgrid.tau \
                        + pot.d2_unchecked(rho)
            except FloatingPointError:
                raise NewtonDivergence("Newton %s overflows at iterate %d"
                                       % (term, it)) from None
            if rnorm <= _floor_bound(problem, lo, hi) \
                    and rnorm <= _floor(grid, rho, shift):
                history.on_floor = True
                return rho
            if it == cfg.newton_max:
                break
            history.solves += 1
            step = mesh.solve_shifted(grid, shift, -res)
            rho = rho + _damping(rho, step, BOUNDARY_MARGIN, lo, hi) * step
        raise NewtonDivergence(
            "Newton residual %.3e above tolerance %.3e and rounding floor "
            "%.3e after %d iterations" % (history[-1], cfg.newton_tol,
                                          _floor(grid, rho, shift),
                                          cfg.newton_max))
    except SolverStepError as exc:
        exc.newton_residuals = history
        if shift is not None:
            exc.min_newton_shift = problem.tgrid.tau * float(shift.min())
        raise


def step_mu(problem: ProblemData, rho_prev: np.ndarray, rho_new: np.ndarray,
            mu_prev: np.ndarray, u_new: np.ndarray,
            solves: mesh.CheckedSolves) -> np.ndarray:
    """Advance the chemical potential by one linear implicit step.

    The solve is handed to ``solves``, the checked solves on the grid of
    the march this step belongs to.
    """
    diag = mu_diagonal(problem, rho_prev, rho_new)
    lo = diag.min()
    if lo <= 0.0:
        exc = NonpositiveCoefficient(
            "potential step diagonal min %.3e is nonpositive" % lo)
        exc.min_coefficient = problem.tgrid.tau * lo
        raise exc
    rhs = u_new + mu_carry(problem, rho_new) * mu_prev
    return solves.solve(diag, rhs)


def _diagnose(problem: ProblemData, rho: np.ndarray, mu: np.ndarray,
              histories: list) -> Diagnostics:
    """Diagnostics of the levels ``rho``, ``mu`` reached by the steps
    whose NewtonHistory is given, one per step.  A step's Newton
    iterations count the solves of both its attempts; the per-step
    minima are taken a block of ``mesh.block_rows`` steps.  A minimum
    that is not finite, such as the overflowing shift of a step that
    converged before Newton formed one, is recorded as None."""
    tau, steps = problem.tgrid.tau, len(histories)
    coeff, shift = np.empty(steps), np.empty(steps)
    with np.errstate(over="ignore"):
        for lo, hi in mesh.blocks(steps, mesh.block_rows(problem.grid)):
            new = rho[lo + 1:hi + 1]
            coeff[lo:hi] = mu_diagonal(problem, rho[lo:hi], new).min(axis=1)
            shift[lo:hi] = newton_shift(problem, new).min(axis=1)
    # Recorded in the units of epsilon: the diagonals times tau.
    coeff, shift = ([v if abs(v) < np.inf else None
                     for v in (a * tau).tolist()] for a in (coeff, shift))
    return Diagnostics(
        newton_iters=[h.solves for h in histories],
        newton_residuals=[h[-1] for h in histories],
        on_floor=[h.on_floor for h in histories],
        extrapolated=[h.extrapolated for h in histories],
        fell_back=[bool(h.restart) for h in histories],
        min_coefficient=coeff, min_newton_shift=shift,
        rho_min=rho.min(axis=1).tolist(), rho_max=rho.max(axis=1).tolist(),
        mu_min=mu.min(axis=1).tolist(), mu_max=mu.max(axis=1).tolist(),
        bound_violations=out_of_bounds(rho, mu))


def solve_state(problem: ProblemData, u) -> StateTrajectory:
    """March the coupled system from the initial data under control u.

    Per step: the order-parameter step against the previous potential,
    with the Newton settings of ``problem.solver`` and the start of the
    module docstring (no extrapolation right after a step that fell
    back), then the potential step, whose residuals are
    checked a block of steps at a time.  Errors raised inside a step
    carry that step's index, the number of steps and the Diagnostics of
    the levels solved before it; a residual found too large later still
    names the step that made it.
    """
    grid, tg = problem.grid, problem.tgrid
    u = check_trajectory(tg, grid, u)
    rho = np.zeros((tg.N + 1, grid.num_cells))
    mu = np.zeros_like(rho)
    rho[0] = problem.rho0
    mu[0] = problem.mu0
    histories = []
    try:
        with mesh.CheckedSolves(grid, tg.N) as solves:
            for n in range(tg.N):
                solves.step = n + 1
                start = None
                if n >= 2 and not histories[-1].restart:
                    last = histories[-1]
                    iters = len(last) - 1
                    if iters >= 2 or last.extrapolated and iters >= 1:
                        start = _extrapolate(rho[n - 2:n + 1], *last.bounds)
                rho[n + 1], hist = step_rho(problem, rho[n], mu[n], start)
                mu[n + 1] = step_mu(problem, rho[n], rho[n + 1], mu[n],
                                    u[n + 1], solves)
                histories.append(hist)
    except SolverStepError as exc:
        done = exc.step - 1
        exc.diagnostics = _diagnose(problem, rho[:done + 1], mu[:done + 1],
                                    histories[:done])
        raise
    return StateTrajectory(rho=rho, mu=mu, diagnostics=_diagnose(
        problem, rho, mu, histories))


def residual_norms(problem: ProblemData, u, state: StateTrajectory) -> dict:
    """Cell-norm residuals of both discrete equations on a trajectory.

    Uses the same stencils and the same staggering as the solver, so a
    freshly solved trajectory scores at the Newton and linear
    tolerances.  Returns arrays indexed by step 1..N; a norm whose square
    overflows is rescaled.
    """
    grid, tg = problem.grid, problem.tgrid
    u = check_trajectory(tg, grid, u)
    rho, mu = state.rho, state.mu
    res1 = _rho_residual(problem, rho[:-1], rho[1:], mu[:-1],
                         problem.potential.d1(rho[1:]))
    res2 = mu_diagonal(problem, rho[:-1], rho[1:]) * mu[1:] \
        - mesh.laplacian_apply(grid, mu[1:]) - u[1:] \
        - mu_carry(problem, rho[1:]) * mu[:-1]
    return {"rho": _level_norms(grid, res1), "mu": _level_norms(grid, res2)}


def _level_norms(grid: Grid, res: np.ndarray) -> np.ndarray:
    """The cell norm of each level of ``res``, rescaled where its square
    overflows (``mesh.scaled_norm``)."""
    with np.errstate(over="ignore"):
        norms = mesh.norm_h(grid, res)
        for n in np.flatnonzero(~(norms < np.inf)):
            norms[n] = mesh.scaled_norm(mesh.norm_h, grid, res[n])
    return norms

