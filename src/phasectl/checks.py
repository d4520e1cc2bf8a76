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
from dataclasses import fields, is_dataclass, replace

import numpy as np

from . import mesh
from .errors import InfeasibleControl, ShapeMismatch, SolverStepError
from .forward import BOUND_TOL, ProblemData, out_of_bounds, solve_state
from .mesh import Grid, TimeGrid, as_trajectory
from .optimize import cost, reduced_gradient
from .sensitivity import duality_pairing, solve_adjoint, solve_tangent

GRAD_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4)
TANGENT_LAMBDAS = (1e-1, 3e-2, 1e-2, 3e-3)


def _encode(value):
    """The init fields of a dataclass, nested ones too, with arrays digested.

    Fields set after construction, such as the grid spacings, are left
    out so the encoding depends on the instance alone.
    """
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return hashlib.sha256(data).hexdigest()[:16]
    return value


def problem_hash(problem: ProblemData) -> str:
    """Short stable hash of every ProblemData field."""
    text = json.dumps(_encode(problem), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def make_report(name: str, passed: bool, metrics: dict, seed,
                problem: ProblemData) -> dict:
    return {
        "name": name,
        "pass": bool(passed),
        "metrics": metrics,
        "seed": seed,
        "config_hash": problem_hash(problem),
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


# A difference quotient error at or below K eps max(|J0|, |J|) / lambda
# is the rounding of the two costs, not truncation, and is left out of
# the fit.  On the desk instance, seeds 0-39, any K from 20 to 1e4 passes
# every seed and fails a gradient without beta2 u or with q scaled by 1.01.
ROUNDOFF_K = 100.0
# The largest error against the ODE oracle that passes the oracle check.
ORACLE_TOL = 5e-3


def _ladder(problem: ProblemData, u, h, lambdas) -> list:
    """The controls u + lambda * h of a Taylor ladder, each checked against
    the box; InfeasibleControl names the base control or the rung."""
    rungs = [("base control", u)] + [
        ("perturbed control (lambda=%g)" % lam, u + lam * h)
        for lam in lambdas]
    for label, v in rungs:
        if np.min(v) < -1e-12 or np.max(v - problem.u_max) > 1e-12:
            raise InfeasibleControl("%s leaves the box [0, u_max]" % label)
    return [v for _, v in rungs[1:]]


def _ladder_verdict(metrics: dict, lambdas, values, h, band) -> bool:
    """Whether the log-log slope of ``values`` against ``lambdas`` lies in
    ``band``; the slope goes into ``metrics``.

    With fewer than two points or a value <= 0 the slope is meaningless:
    the ladder is degenerate, which passes for a nonzero direction (the
    error sits below round-off) and fails for a zero one.
    """
    if len(values) < 2 or min(values) <= 0.0:
        metrics["slope"] = None
        metrics["degenerate"] = True
        return bool(np.any(h))
    metrics["slope"] = float(np.polyfit(np.log(lambdas), np.log(values), 1)[0])
    return band[0] <= metrics["slope"] <= band[1]


def fd_gradient_check(problem: ProblemData, seed: int = 0, u=None, h=None,
                      lambdas=GRAD_LAMBDAS) -> dict:
    """Compare the pairing of the reduced gradient with a direction
    against finite differences of the cost.

    Points whose error is at round-off level (see ROUNDOFF_K) are left
    out; passes when the log-log slope of the error against the step
    over the rest lies in [0.8, 1.2].
    """
    u, h = check_instance(problem, seed, u, h)
    controls = _ladder(problem, u, h, lambdas)
    gradient, _, state = reduced_gradient(problem, u)
    deriv = mesh.inner_q(problem.tgrid, problem.grid, gradient, h)
    J0 = cost(problem, state, u)
    J = np.array([cost(problem, solve_state(problem, v), v)
                  for v in controls])
    lams = np.array(lambdas)
    fd_values = (J - J0) / lams
    errors = np.abs(fd_values - deriv)
    fit = errors > (ROUNDOFF_K * np.finfo(float).eps
                    * np.maximum(abs(J0), np.abs(J)) / lams)
    metrics = {
        "lambdas": list(lambdas),
        "fd_values": fd_values.tolist(),
        "errors": errors.tolist(),
        "derivative": deriv,
        "rel_mismatch_smallest": errors[-1] / max(abs(deriv), 1e-300),
        "fit_lambdas": lams[fit].tolist(),
    }
    passed = _ladder_verdict(metrics, lams[fit], errors[fit], h, (0.8, 1.2))
    return make_report("grad", passed, metrics, seed, problem)


def _traj_diff_quot(tg: TimeGrid, a: np.ndarray) -> np.ndarray:
    return (a[1:] - a[:-1]) / tg.tau


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
    total = tau * float(np.dot(c, mesh.norm_h(grid, y) ** 2))
    total += tau * float(np.sum(mesh.norm_h(grid, y_t) ** 2))
    total += float(np.max(mesh.norm_v(grid, y) ** 2))
    total += tau * float(np.dot(c, mesh.norm_w(grid, y) ** 2))
    total += float(np.max(mesh.norm_h(grid, z) ** 2))
    total += tau * float(np.dot(c, mesh.norm_v(grid, z) ** 2))
    return float(np.sqrt(total))


def tangent_remainder_check(problem: ProblemData, seed: int = 0, u=None,
                            h=None, lambdas=TANGENT_LAMBDAS) -> dict:
    """Second-order Taylor remainder of the state map along a direction.

    Passes when the log-log slope of the remainder against lambda lies
    in [1.7, 2.3].
    """
    u, h = check_instance(problem, seed, u, h)
    controls = _ladder(problem, u, h, lambdas)
    state0 = solve_state(problem, u)
    tangent = solve_tangent(problem, state0, h)
    remainders = []
    for lam, v in zip(lambdas, controls):
        state_l = solve_state(problem, v)
        y = state_l.rho - state0.rho - lam * tangent.xi
        z = state_l.mu - state0.mu - lam * tangent.eta
        remainders.append(remainder_norm(problem, y, z))
    metrics = {"lambdas": list(lambdas), "remainders": remainders}
    passed = _ladder_verdict(metrics, lambdas, remainders, h, (1.7, 2.3))
    return make_report("tangent", passed, metrics, seed, problem)


def prolong_field(grid, v: np.ndarray) -> np.ndarray:
    """Split every cell in two per axis, repeating its value; a stack
    of fields is refined field by field."""
    a = grid.reshape(np.asarray(v, dtype=float))
    for axis in range(-grid.dim, 0):
        a = np.repeat(a, 2, axis=axis)
    return a.reshape(a.shape[:-grid.dim] + (-1,))


def prolong_trajectory(grid, tg: TimeGrid, a: np.ndarray) -> np.ndarray:
    """Exact refinement of a piecewise-constant-in-time trajectory.

    Doubled time levels sample the same right-continuous step function;
    space cells are split with repeated values.
    """
    a = mesh.check_trajectory(tg, grid, a)
    idx = (np.arange(2 * tg.N + 1) + 1) // 2
    return prolong_field(grid, a[idx])


def refine_problem(problem: ProblemData) -> ProblemData:
    """Same continuum instance on a grid with h and tau halved."""
    grid2 = Grid(problem.grid.dim, tuple(2 * m for m in problem.grid.n),
                 problem.grid.length)
    tg2 = TimeGrid(problem.tgrid.T, 2 * problem.tgrid.N)
    return replace(problem, grid=grid2, tgrid=tg2, **{
        key: prolong_field(problem.grid, getattr(problem, key)) if base is None
        else prolong_trajectory(problem.grid, problem.tgrid,
                                getattr(problem, key))
        for key, base in ProblemData.ARRAY_FIELDS.items()})


def duality_gap_check(problem: ProblemData, seed: int = 0,
                      mode: str = "discrete", u=None, h=None,
                      refinements: int = 2) -> dict:
    """Tangent-adjoint duality identity for the configured adjoint mode.

    Discrete mode must close the identity to 1e-8 relative on a single
    instance.  The delayed backward construction is consistent rather
    than exactly dual, so for pde mode the instance is refined
    ``refinements`` times and the check passes when every halving of
    (h, tau) shrinks the gap by at least 1.5.  A zero direction closes
    any identity trivially, so it is degenerate and fails in both modes.
    """
    u, h = check_instance(problem, seed, u, h)
    nonzero = bool(np.any(h))

    def gap_on(prob, uu, hh):
        state = solve_state(prob, uu)
        tangent = solve_tangent(prob, state, hh)
        adjoint = solve_adjoint(prob, state, mode=mode)
        lhs, rhs = duality_pairing(prob, state, tangent, adjoint, hh)
        return lhs, rhs, abs(lhs - rhs)

    lhs, rhs, gap = gap_on(problem, u, h)
    rel = gap / (1.0 + abs(lhs))
    metrics = {"mode": mode, "lhs": lhs, "rhs": rhs, "gap": gap,
               "rel_gap": rel}
    if not nonzero:
        metrics["degenerate"] = True
    if mode == "discrete":
        return make_report("duality", nonzero and rel <= 1e-8, metrics, seed,
                           problem)
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
    passed = nonzero and all(r >= 1.5 for r in ratios)
    return make_report("duality", passed, metrics, seed, problem)


def stability_ratios(problem: ProblemData, u1, u2) -> dict:
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
    s1 = solve_state(problem, u1)
    s2 = solve_state(problem, u2)
    ud = u1 - u2
    rd = s1.rho - s2.rho
    md = s1.mu - s2.mu
    denom = mesh.norm_q(tg, grid, ud) ** 2
    rd_t = _traj_diff_quot(tg, rd)
    md_t = _traj_diff_quot(tg, md)
    tau = tg.tau
    energy = float(np.max(mesh.norm_h(grid, md) ** 2
                          + mesh.norm_v(grid, rd) ** 2))
    energy += tau * float(np.dot(tg.trap_weights(),
                                 mesh.norm_v(grid, md) ** 2))
    energy += tau * float(np.sum(mesh.norm_h(grid, rd_t) ** 2))
    strong = float(np.max(mesh.norm_v(grid, rd_t) ** 2
                          + mesh.norm_v(grid, md[1:]) ** 2
                          + mesh.norm_w(grid, rd[1:]) ** 2))
    strong += tau * float(np.sum(mesh.norm_h(grid, md_t) ** 2))
    strong += tau * float(np.sum(mesh.norm_w(grid, rd_t) ** 2))
    if denom == 0.0:
        return {"denominator": 0.0, "energy_ratio": 0.0, "strong_ratio": 0.0,
                "degenerate": True}
    return {"denominator": denom, "energy_ratio": energy / denom,
            "strong_ratio": strong / denom, "degenerate": False}


def stability_ratio_check(problem: ProblemData, seed: int = 0, u1=None,
                          u2=None) -> dict:
    """Ratios for one seeded pair of feasible controls; they must be
    finite, and a degenerate pair fails, as a zero ladder direction does."""
    rng = np.random.default_rng(seed)
    if u1 is None:
        u1 = random_control(problem, rng)
    if u2 is None:
        u2 = random_control(problem, rng)
    metrics = stability_ratios(problem, u1, u2)
    passed = (not metrics["degenerate"]
              and np.isfinite(metrics["energy_ratio"])
              and np.isfinite(metrics["strong_ratio"]))
    return make_report("stability", passed, metrics, seed, problem)


def _uniform_value(name, v):
    """The value of a uniform field, or of each field of a stack; the
    error names the first level spread by more than 1e-13."""
    v = np.asarray(v, dtype=float)
    spread = np.ptp(v, axis=-1)
    bad = np.flatnonzero(spread > 1e-13)
    if bad.size:
        where = " level %d" % bad[0] if v.ndim > 1 else ""
        raise ShapeMismatch(
            "ode oracle requires spatially uniform %s%s, spread %.3e"
            % (name, where, spread.flat[bad[0]]))
    return v[..., 0]


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
    import scipy.integrate  # here, so importing phasectl does not pay for it
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
    y = [float(_uniform_value("rho0", problem.rho0)),
         float(_uniform_value("mu0", problem.mu0))]
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
            raise SolverStepError("ode oracle failed: %s" % sol.message)
        out[start:stop + 1] = sol.y.T
        y = list(out[stop])
        start = stop
    return out


def ode_oracle_check(problem: ProblemData, seed: int = 0, u=None) -> dict:
    """March the full scheme on uniform data against the ODE oracle."""
    grid, tg = problem.grid, problem.tgrid
    u = as_trajectory(tg, grid, 0.0 if u is None else u)
    u_levels = _uniform_value("u", u)
    state = solve_state(problem, u)
    oracle = ode_oracle_solution(problem, u_levels)
    err_rho = float(np.max(np.abs(state.rho[:, 0] - oracle[:, 0])))
    err_mu = float(np.max(np.abs(state.mu[:, 0] - oracle[:, 1])))
    err = max(err_rho, err_mu)
    metrics = {"max_err_rho": err_rho, "max_err_mu": err_mu,
               "max_err": err, "tol": ORACLE_TOL}
    return make_report("oracle", err <= ORACLE_TOL, metrics, seed, problem)


def bounds_check(problem: ProblemData, seed: int = 0, u=None,
                 state=None) -> dict:
    """Interior confinement of rho and nonnegativity of mu on a run."""
    if state is None:
        if u is None:
            rng = np.random.default_rng(seed)
            u = random_control(problem, rng)
        state = solve_state(problem, u)
    rho, mu = state.rho, state.mu
    rho_min, rho_max = float(np.min(rho)), float(np.max(rho))
    mu_min = float(np.min(mu))
    count = out_of_bounds(rho, mu)
    metrics = {"rho_min": rho_min, "rho_max": rho_max, "mu_min": mu_min,
               "mu_max": float(np.max(mu)), "bound_violations": count}
    if count:
        metrics["violations"] = []
        # A NaN is listed once: argmin and argmax both find the first NaN.
        for name, a, at, bad in (
                ("rho", rho, np.argmin(rho), not rho_min > 0.0),
                ("rho", rho, np.argmax(rho), rho_max >= 1.0),
                ("mu", mu, np.argmin(mu), not mu_min >= -BOUND_TOL)):
            if bad:
                level, cell = divmod(int(at), a.shape[1])
                metrics["violations"].append({"field": name, "level": level,
                                              "cell": cell,
                                              "value": float(a.flat[at])})
    return make_report("bounds", count == 0, metrics, seed, problem)
