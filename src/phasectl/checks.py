"""Verification checks with independent oracles and JSON-able reports.

Every check is deterministic given a seed, draws any randomness it needs
from that seed, and returns a flat report dict with the check name, a
boolean pass flag, metric values, the seed, and a hash of the instance
so reports can be matched to configurations.

Random controls are drawn i.i.d. uniform per cell and smoothed by one
implicit Laplacian step at a fixed physical length scale, so draws on
refined grids stay comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import scipy.integrate

from . import mesh
from .errors import InfeasibleControl, ShapeMismatch
from .fields import as_trajectory
from .forward import ProblemData, SolverConfig, solve_state
from .mesh import TimeGrid, make_grid, make_time_grid
from .optimize import cost, directional_derivative, reduced_gradient
from .sensitivity import duality_pairing, solve_adjoint, solve_tangent

GRAD_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)
TANGENT_LAMBDAS = (1e-1, 3e-2, 1e-2, 3e-3)


def _encode(value):
    """The init fields of a dataclass, nested ones too, with arrays digested.

    Fields set after construction, such as cached solver data, are left
    out so the encoding depends on the instance alone.
    """
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return hashlib.sha256(data).hexdigest()[:16]
    return value


def problem_hash(problem: ProblemData, cfg: SolverConfig) -> str:
    """Short stable hash of every ProblemData field plus the solver."""
    payload = {"problem": _encode(problem), "solver": asdict(cfg)}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def make_report(name: str, passed: bool, metrics: dict, seed,
                problem: ProblemData, cfg: SolverConfig) -> dict:
    return {
        "name": name,
        "pass": bool(passed),
        "metrics": metrics,
        "seed": seed,
        "config_hash": problem_hash(problem, cfg),
    }


def smooth_field(grid, raw: np.ndarray) -> np.ndarray:
    """One implicit Laplacian step (I - scale * Lap) applied to a field.

    The scale is the squared twentieth of the shortest box side.
    """
    scale = (min(grid.length) / 20.0) ** 2
    shift = np.full(grid.num_cells, 1.0 / scale)
    return mesh.solve_shifted(grid, shift, raw / scale)


def random_control(problem: ProblemData, rng) -> np.ndarray:
    """Feasible random control: uniform per cell, then smoothed."""
    grid, tg = problem.grid, problem.tgrid
    raw = rng.uniform(0.0, 1.0, (tg.N + 1, grid.num_cells)) * problem.u_max
    out = np.stack([smooth_field(grid, raw[k]) for k in range(tg.N + 1)])
    return np.clip(out, 0.0, problem.u_max)


def random_direction(problem: ProblemData, rng) -> np.ndarray:
    """Smoothed sign-indefinite direction, a quarter of the box bound."""
    grid, tg = problem.grid, problem.tgrid
    raw = rng.uniform(-1.0, 1.0, (tg.N + 1, grid.num_cells))
    out = np.stack([smooth_field(grid, raw[k]) for k in range(tg.N + 1)])
    return out * 0.25 * problem.u_max


def check_instance(problem: ProblemData, seed: int, u=None, h=None) -> tuple:
    """Base control and direction of the sensitivity checks.

    Defaults: the midpoint of the box and a random direction drawn from
    the seed; given values are broadcast to trajectories.
    """
    grid, tg = problem.grid, problem.tgrid
    if u is None:
        u = 0.5 * problem.u_max
    if h is None:
        h = random_direction(problem, np.random.default_rng(seed))
    return as_trajectory(tg, grid, u), as_trajectory(tg, grid, h)


def _check_box(problem, u, label):
    if np.min(u) < -1e-12 or np.max(u - problem.u_max) > 1e-12:
        raise InfeasibleControl("%s leaves the box [0, u_max]" % label)


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def fd_gradient_check(problem: ProblemData, cfg: SolverConfig = SolverConfig(),
                      seed: int = 0, u=None, h=None,
                      lambdas=GRAD_LAMBDAS) -> dict:
    """Compare the adjoint directional derivative with finite differences.

    Passes when the log-log slope of the error against the step lies in
    [0.8, 1.2].  A zero direction is reported degenerate, not passed.
    """
    u, h = check_instance(problem, seed, u, h)
    _check_box(problem, u, "base control")
    for lam in lambdas:
        _check_box(problem, u + lam * h, "perturbed control (lambda=%g)" % lam)
    gradient, adjoint, state = reduced_gradient(problem, u, None, cfg)
    deriv = directional_derivative(problem, u, adjoint.q, h)
    J0 = cost(problem, state, u)
    errors = []
    fd_values = []
    for lam in lambdas:
        state_l = solve_state(problem, u + lam * h, cfg)
        fd = (cost(problem, state_l, u + lam * h) - J0) / lam
        fd_values.append(fd)
        errors.append(abs(fd - deriv))
    metrics = {
        "lambdas": list(lambdas),
        "fd_values": fd_values,
        "errors": errors,
        "derivative": deriv,
        "rel_mismatch_smallest": (abs(fd_values[-1] - deriv)
                                  / max(abs(deriv), 1e-300)),
    }
    if not np.any(h):
        metrics["slope"] = None
        metrics["degenerate"] = True
        return make_report("grad", False, metrics, seed, problem, cfg)
    if min(errors) <= 0.0:
        # Below round-off; slope is meaningless but nothing is wrong.
        metrics["slope"] = None
        metrics["degenerate"] = True
        return make_report("grad", True, metrics, seed, problem, cfg)
    slope = _loglog_slope(lambdas, errors)
    metrics["slope"] = slope
    return make_report("grad", 0.8 <= slope <= 1.2, metrics, seed, problem, cfg)


def _traj_diff_quot(tg: TimeGrid, a: np.ndarray) -> np.ndarray:
    return (a[1:] - a[:-1]) / tg.tau


def _level_norms_sq(grid, *terms) -> np.ndarray:
    """Per level, the sum of the squared norms of the (stack, norm) terms.

    The stacks share their number of levels; within a level the terms
    are evaluated and added in the order given.
    """
    return np.array([sum(norm(grid, a[k]) ** 2 for a, norm in terms)
                     for k in range(len(terms[0][0]))])


def remainder_norm(problem: ProblemData, y: np.ndarray, z: np.ndarray) -> float:
    """Combined strong norm of a state remainder pair.

    The order-parameter part is measured in H1 in time with values in
    the cell norm, uniformly in time in the gradient norm, and L2 in
    time in the second-order norm; the potential part uniformly in time
    in the cell norm and L2 in time in the gradient norm.
    """
    grid, tg = problem.grid, problem.tgrid
    tau, c = tg.tau, tg.trap_weights()
    y_t = _traj_diff_quot(tg, y)
    total = tau * float(np.dot(c, _level_norms_sq(grid, (y, mesh.norm_h))))
    total += tau * float(np.sum(_level_norms_sq(grid, (y_t, mesh.norm_h))))
    total += float(np.max(_level_norms_sq(grid, (y, mesh.norm_v))))
    total += tau * float(np.dot(c, _level_norms_sq(grid, (y, mesh.norm_w))))
    total += float(np.max(_level_norms_sq(grid, (z, mesh.norm_h))))
    total += tau * float(np.dot(c, _level_norms_sq(grid, (z, mesh.norm_v))))
    return float(np.sqrt(total))


def tangent_remainder_check(problem: ProblemData,
                            cfg: SolverConfig = SolverConfig(), seed: int = 0,
                            u=None, h=None,
                            lambdas=TANGENT_LAMBDAS) -> dict:
    """Second-order Taylor remainder of the state map along a direction.

    Passes when the log-log slope of the remainder against lambda lies
    in [1.7, 2.3].
    """
    u, h = check_instance(problem, seed, u, h)
    _check_box(problem, u, "base control")
    state0 = solve_state(problem, u, cfg)
    tangent = solve_tangent(problem, state0, h, cfg)
    remainders = []
    for lam in lambdas:
        _check_box(problem, u + lam * h, "perturbed control (lambda=%g)" % lam)
        state_l = solve_state(problem, u + lam * h, cfg)
        y = state_l.rho - state0.rho - lam * tangent.xi
        z = state_l.mu - state0.mu - lam * tangent.eta
        remainders.append(remainder_norm(problem, y, z))
    metrics = {"lambdas": list(lambdas), "remainders": remainders}
    if min(remainders) <= 0.0:
        metrics["slope"] = None
        metrics["degenerate"] = True
        return make_report("tangent", bool(np.any(h)), metrics, seed,
                           problem, cfg)
    slope = _loglog_slope(lambdas, remainders)
    metrics["slope"] = slope
    return make_report("tangent", 1.7 <= slope <= 2.3, metrics, seed,
                       problem, cfg)


def prolong_field(grid, v: np.ndarray) -> np.ndarray:
    """Split every cell in two per axis, repeating its value."""
    a = grid.reshape(np.asarray(v, dtype=float))
    for axis in range(grid.dim):
        a = np.repeat(a, 2, axis=axis)
    return a.ravel()


def prolong_trajectory(grid, tg: TimeGrid, a: np.ndarray) -> np.ndarray:
    """Exact refinement of a piecewise-constant-in-time trajectory.

    Doubled time levels sample the same right-continuous step function;
    space cells are split with repeated values.
    """
    a = mesh.check_trajectory(tg, grid, a)
    idx = (np.arange(2 * tg.N + 1) + 1) // 2
    rows = [prolong_field(grid, a[k]) for k in idx]
    return np.stack(rows)


def refine_problem(problem: ProblemData) -> ProblemData:
    """Same continuum instance on a grid with h and tau halved."""
    grid2 = make_grid(problem.grid.dim, tuple(2 * m for m in problem.grid.n),
                      problem.grid.length)
    tg2 = make_time_grid(problem.tgrid.T, 2 * problem.tgrid.N)
    return replace(
        problem, grid=grid2, tgrid=tg2,
        rho0=prolong_field(problem.grid, problem.rho0),
        mu0=prolong_field(problem.grid, problem.mu0),
        u_max=prolong_trajectory(problem.grid, problem.tgrid, problem.u_max),
        rho_target=prolong_field(problem.grid, problem.rho_target),
        mu_target=prolong_trajectory(problem.grid, problem.tgrid,
                                     problem.mu_target))


def duality_gap_check(problem: ProblemData, cfg: SolverConfig = SolverConfig(),
                      seed: int = 0, mode: str = "discrete", u=None, h=None,
                      refinements: int = 2) -> dict:
    """Tangent-adjoint duality identity for the configured adjoint mode.

    Discrete mode must close the identity to 1e-8 relative on a single
    instance.  The delayed backward construction is consistent rather
    than exactly dual, so for pde mode the instance is refined
    ``refinements`` times and the check passes when every halving of
    (h, tau) shrinks the gap by at least 1.5.
    """
    u, h = check_instance(problem, seed, u, h)

    def gap_on(prob, uu, hh):
        state = solve_state(prob, uu, cfg)
        tangent = solve_tangent(prob, state, hh, cfg)
        adjoint = solve_adjoint(prob, state, cfg, mode=mode)
        lhs, rhs = duality_pairing(prob, state, tangent, adjoint, hh)
        return lhs, rhs, abs(lhs - rhs)

    lhs, rhs, gap = gap_on(problem, u, h)
    rel = gap / (1.0 + abs(lhs))
    metrics = {"mode": mode, "lhs": lhs, "rhs": rhs, "gap": gap,
               "rel_gap": rel}
    if mode == "discrete":
        return make_report("duality", rel <= 1e-8, metrics, seed, problem, cfg)
    gaps = [gap]
    prob_r, u_r, h_r = problem, u, h
    for _ in range(refinements):
        u_r = prolong_trajectory(prob_r.grid, prob_r.tgrid, u_r)
        h_r = prolong_trajectory(prob_r.grid, prob_r.tgrid, h_r)
        prob_r = refine_problem(prob_r)
        gaps.append(gap_on(prob_r, u_r, h_r)[2])
    ratios = [gaps[i] / gaps[i + 1] if gaps[i + 1] > 0 else np.inf
              for i in range(len(gaps) - 1)]
    metrics["gaps"] = gaps
    metrics["ratios"] = ratios
    passed = all(r >= 1.5 for r in ratios)
    return make_report("duality", passed, metrics, seed, problem, cfg)


def stability_ratios(problem: ProblemData, u1, u2,
                     cfg: SolverConfig = SolverConfig()) -> dict:
    """Continuous-dependence ratios of state differences to control gap.

    The energy ratio tracks the difference uniformly in the cell norm
    for the potential and the gradient norm for the order parameter,
    plus time integrals of the potential gradient norm and the
    order-parameter time increments.  The strong ratio upgrades every
    norm one order.  Denominator: squared space-time norm of the
    control difference.
    """
    grid, tg = problem.grid, problem.tgrid
    u1 = as_trajectory(tg, grid, u1)
    u2 = as_trajectory(tg, grid, u2)
    s1 = solve_state(problem, u1, cfg)
    s2 = solve_state(problem, u2, cfg)
    ud = u1 - u2
    rd = s1.rho - s2.rho
    md = s1.mu - s2.mu
    denom = mesh.norm_q(tg, grid, ud) ** 2
    rd_t = _traj_diff_quot(tg, rd)
    md_t = _traj_diff_quot(tg, md)
    tau = tg.tau
    energy = float(np.max(_level_norms_sq(grid, (md, mesh.norm_h),
                                          (rd, mesh.norm_v))))
    energy += tau * float(np.dot(tg.trap_weights(),
                                 _level_norms_sq(grid, (md, mesh.norm_v))))
    energy += tau * float(np.sum(_level_norms_sq(grid, (rd_t, mesh.norm_h))))
    strong = float(np.max(_level_norms_sq(
        grid, (rd_t, mesh.norm_v), (md[1:], mesh.norm_v),
        (rd[1:], mesh.norm_w))))
    strong += tau * float(np.sum(_level_norms_sq(grid, (md_t, mesh.norm_h))))
    strong += tau * float(np.sum(_level_norms_sq(grid, (rd_t, mesh.norm_w))))
    if denom == 0.0:
        return {"denominator": 0.0, "energy_ratio": 0.0, "strong_ratio": 0.0,
                "degenerate": True}
    return {"denominator": denom, "energy_ratio": energy / denom,
            "strong_ratio": strong / denom, "degenerate": False}


def stability_ratio_check(problem: ProblemData,
                          cfg: SolverConfig = SolverConfig(),
                          seed: int = 0, u1=None, u2=None) -> dict:
    """Ratios for one seeded pair of feasible controls; must be finite."""
    rng = np.random.default_rng(seed)
    if u1 is None:
        u1 = random_control(problem, rng)
    if u2 is None:
        u2 = random_control(problem, rng)
    metrics = stability_ratios(problem, u1, u2, cfg)
    passed = (np.isfinite(metrics["energy_ratio"])
              and np.isfinite(metrics["strong_ratio"]))
    return make_report("stability", passed, metrics, seed, problem, cfg)


def _uniform_value(name, v) -> float:
    v = np.asarray(v, dtype=float)
    if np.ptp(v) > 1e-13:
        raise ShapeMismatch(
            "ode oracle requires spatially uniform %s, spread %.3e"
            % (name, np.ptp(v)))
    return float(v.flat[0])


def ode_oracle_solution(problem: ProblemData, u_levels: np.ndarray
                        ) -> np.ndarray:
    """Adaptive integration of the uniform-data reduction.

    With spatially uniform data the system collapses to two scalar
    ODEs.  The control is the right-continuous step function matching
    the scheme's per-step sampling: step n carries u_levels[n + 1].
    Each run of steps whose levels agree to 1e-13 is one integration,
    sampled at the time levels it spans.  Returns (N+1, 2) samples of
    (rho, mu) at the time levels.
    """
    eps, delta = problem.epsilon, problem.delta
    pot = problem.potential

    def rhs(t, yv, uval):
        r, m = yv
        rp = (m - float(pot.d1(r))) / delta
        mp = (uval - m * rp) / (eps + 2.0 * r)
        return [rp, mp]

    tg = problem.tgrid
    times = tg.times
    out = np.zeros((tg.N + 1, 2))
    y = [_uniform_value("rho0", problem.rho0),
         _uniform_value("mu0", problem.mu0)]
    start = 0
    while start < tg.N:
        level = u_levels[start + 1]
        stop = start + 1
        while stop < tg.N and abs(u_levels[stop + 1] - level) <= 1e-13:
            stop += 1
        sol = scipy.integrate.solve_ivp(
            rhs, (times[start], times[stop]), y, method="Radau",
            t_eval=times[start:stop + 1], rtol=1e-10, atol=1e-13,
            args=(float(level),))
        if not sol.success:
            raise RuntimeError("ode oracle failed: %s" % sol.message)
        out[start:stop + 1] = sol.y.T
        y = list(out[stop])
        start = stop
    return out


def ode_oracle_check(problem: ProblemData, cfg: SolverConfig = SolverConfig(),
                     seed: int = 0, u=None, tol: float = 5e-3) -> dict:
    """March the full scheme on uniform data against the ODE oracle."""
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, 0.0 if u is None else u)
    u_levels = np.array([_uniform_value("u level %d" % k, u[k])
                         for k in range(tg.N + 1)])
    state = solve_state(problem, u, cfg)
    oracle = ode_oracle_solution(problem, u_levels)
    err_rho = float(np.max(np.abs(state.rho[:, 0] - oracle[:, 0])))
    err_mu = float(np.max(np.abs(state.mu[:, 0] - oracle[:, 1])))
    err = max(err_rho, err_mu)
    metrics = {"max_err_rho": err_rho, "max_err_mu": err_mu,
               "max_err": err, "tol": tol}
    return make_report("oracle", err <= tol, metrics, seed, problem, cfg)


def bounds_check(problem: ProblemData, cfg: SolverConfig = SolverConfig(),
                 seed: int = 0, u=None, state=None) -> dict:
    """Interior confinement of rho and nonnegativity of mu on a run."""
    if state is None:
        if u is None:
            rng = np.random.default_rng(seed)
            u = random_control(problem, rng)
        state = solve_state(problem, u, cfg)
    rho, mu = state.rho, state.mu
    rho_min, rho_max = float(np.min(rho)), float(np.max(rho))
    mu_min = float(np.min(mu))
    diag = state.diagnostics
    m_ok = all(diag.m_matrix_ok) if diag.m_matrix_ok else True
    passed = rho_min > 0.0 and rho_max < 1.0 and mu_min >= -cfg.bound_tol and m_ok
    metrics = {"rho_min": rho_min, "rho_max": rho_max, "mu_min": mu_min,
               "mu_max": float(np.max(mu)), "m_matrix_ok": bool(m_ok),
               "bound_violations": diag.bound_violations}
    if not passed:
        worst = []
        if rho_min <= 0.0:
            worst.append(("rho", int(np.argmin(rho) // rho.shape[1]),
                          int(np.argmin(rho) % rho.shape[1]), rho_min))
        if rho_max >= 1.0:
            worst.append(("rho", int(np.argmax(rho) // rho.shape[1]),
                          int(np.argmax(rho) % rho.shape[1]), rho_max))
        if mu_min < -cfg.bound_tol:
            worst.append(("mu", int(np.argmin(mu) // mu.shape[1]),
                          int(np.argmin(mu) % mu.shape[1]), mu_min))
        metrics["violations"] = [
            {"field": f, "level": lev, "cell": cell, "value": val}
            for f, lev, cell, val in worst]
    return make_report("bounds", passed, metrics, seed, problem, cfg)
