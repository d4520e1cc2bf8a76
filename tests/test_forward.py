from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize

import phasectl as pc
from phasectl import checks, forward
from phasectl.errors import (LinearSolveFailure, NonpositiveCoefficient,
                             SolverStepError)
from conftest import build_problem, traj


def test_step_rho_stationary(cfg):
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.5)
    out, hist = forward.step_rho(g, pc.Potential(), 1.0, 0.01, rho,
                                 np.zeros(8), cfg)
    np.testing.assert_array_equal(out, rho)
    assert hist == [0.0]


def test_step_rho_matches_scalar_root(cfg):
    """Uniform data reduce the cell system to one scalar equation."""
    g = pc.Grid(1, 8, 1.0)
    pot, delta, tau = pc.Potential(), 1.0, 0.02
    rho_prev, mu = 0.3, 0.1
    out, _ = forward.step_rho(g, pot, delta, tau,
                              np.full(8, rho_prev), np.full(8, mu), cfg)
    def residual(r):
        return delta * (r - rho_prev) / tau + pot.d1(np.array([r]))[0] - mu
    root = scipy.optimize.brentq(residual, 1e-12, 1 - 1e-12,
                                 xtol=1e-15, rtol=8.9e-16)
    assert np.ptp(out) == 0.0
    assert out[0] == pytest.approx(root, abs=1e-12)


def test_newton_residuals_quadratic(cfg):
    g = pc.Grid(1, 8, 1.0)
    _, hist = forward.step_rho(g, pc.Potential(), 1.0, 0.05,
                               np.full(8, 0.35), np.full(8, 0.4), cfg)
    hist = [h for h in hist if h > 0.0]
    assert len(hist) >= 2
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
    # contraction accelerates as the root is approached
    assert all(r < 0.5 for r in ratios)
    if len(ratios) >= 2:
        assert ratios[-1] < 0.2 * ratios[0]


def two_mask_damping(rho, step, theta):
    """The damping factor as first written: one boolean mask per sign."""
    lam = 1.0
    down = step < 0.0
    if np.any(down):
        lam = min(lam, (1.0 - theta) * np.min(rho[down] / -step[down]))
    up = step > 0.0
    if np.any(up):
        lam = min(lam, (1.0 - theta) * np.min((1.0 - rho[up]) / step[up]))
    return lam


@pytest.mark.filterwarnings("error")
def test_damping_matches_two_mask_formula():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(1, 20))
        rho = 1e-9 + (1.0 - 2e-9) * rng.random(n)
        step = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 3.0, n)
        step[rng.random(n) < 0.3] = 0.0
        if rng.random() < 0.05:
            step[:] = 0.0
        theta = rng.uniform(0.01, 0.99)
        got = forward._damping(rho, step, theta)
        want = two_mask_damping(rho, step, theta)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_step_mu_homogeneous(cfg):
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.4)
    out = forward.step_mu(g, 0.5, 0.01, rho, rho, np.zeros(8), np.zeros(8), cfg)
    np.testing.assert_array_equal(out, np.zeros(8))


def test_step_mu_uniform_closed_form(cfg):
    g = pc.Grid(1, 8, 1.0)
    eps, tau = 0.5, 0.02
    rp, rn, mp, u = 0.35, 0.4, 0.25, 0.7
    out = forward.step_mu(g, eps, tau, np.full(8, rp), np.full(8, rn),
                          np.full(8, mp), np.full(8, u), cfg)
    expect = (tau * u + (eps + 2 * rn) * mp) / (eps + 2 * rn + rn - rp)
    np.testing.assert_allclose(out, expect, rtol=1e-14)


def test_step_mu_nonnegativity(cfg):
    """Positive diagonal makes the step an M-matrix solve."""
    g = pc.Grid(2, (5, 4), (1.0, 1.0))
    rng = np.random.default_rng(4)
    for _ in range(5):
        rp = 0.2 + 0.5 * rng.random(20)
        rn = rp + 0.05 * (rng.random(20) - 0.3)
        mu = rng.random(20)
        u = rng.random(20)
        out = forward.step_mu(g, 0.5, 0.01, rp, rn, mu, u, cfg)
        assert np.min(out) >= 0.0


def test_step_mu_rejects_nonpositive_coefficient(cfg):
    g = pc.Grid(1, 4, 1.0)
    with pytest.raises(NonpositiveCoefficient):
        forward.step_mu(g, 0.5, 0.01, np.full(4, 0.9), np.full(4, 0.1),
                        np.zeros(4), np.zeros(4), cfg)


def test_solve_state_stationary_triple(cfg):
    prob = build_problem(rho0=0.5, mu0=0.0)
    st = pc.solve_state(prob, 0.0, cfg)
    assert np.max(np.abs(st.rho - 0.5)) == 0.0
    assert np.max(np.abs(st.mu)) == 0.0
    assert min(st.diagnostics.min_coefficient) > 0.0
    assert not st.diagnostics.bound_violations


def test_solve_state_diagnostics_bounds(cfg):
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(0.2, 16),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.2 * np.cos(2 * np.pi * x),
                          mu0=0.1, u_max=1.0)
    st = pc.solve_state(prob, 0.5, cfg)
    d = st.diagnostics
    assert 0.0 < min(d.rho_min) and max(d.rho_max) < 1.0
    assert min(d.mu_min) >= -cfg.bound_tol
    assert min(d.min_coefficient) > 0.0


def test_diagnostics_reduce_the_trajectory(cfg):
    """Diagnostics are reductions of the returned levels, per level and
    per step, and a failed march keeps those of the levels it solved."""
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(0.2, 16),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.2 * np.cos(2 * np.pi * x),
                          mu0=0.1, u_max=1.0)
    st = pc.solve_state(prob, 0.5, cfg)
    d, tau = st.diagnostics, prob.tgrid.tau
    assert d.rho_min == st.rho.min(axis=1).tolist()
    assert d.rho_max == st.rho.max(axis=1).tolist()
    assert d.mu_min == st.mu.min(axis=1).tolist()
    assert d.mu_max == st.mu.max(axis=1).tolist()
    coeff = [tau * float(np.min(forward.mu_diagonal(
        prob.epsilon, tau, st.rho[n], st.rho[n + 1]))) for n in range(16)]
    assert d.min_coefficient == coeff
    assert d.bound_violations == 0
    assert len(d.newton_iters) == len(d.newton_residuals) == 16
    assert max(d.newton_residuals) <= cfg.newton_tol
    with pytest.raises(SolverStepError) as err:
        pc.solve_state(prob, 0.5, pc.SolverConfig(newton_max=1))
    failed = err.value.diagnostics
    assert failed.rho_min == [float(np.min(prob.rho0))]
    assert failed.newton_iters == [] and failed.min_coefficient == []


def test_residuals_stationary(cfg, small):
    prob = build_problem(rho0=0.5, mu0=0.0)
    st = pc.solve_state(prob, 0.0, cfg)
    r = forward.residual_norms(prob, traj(prob, 0.0), st)
    tol = cfg.newton_tol + cfg.linear_tol
    assert np.max(r["rho"]) <= tol and np.max(r["mu"]) <= tol


def test_residuals_detect_tampering(cfg, small):
    u = traj(small, 0.2)
    st = pc.solve_state(small, u, cfg)
    mu = st.mu.copy()
    mu[3] = mu[3] + 0.01
    bad = forward.StateTrajectory(rho=st.rho, mu=mu, diagnostics=st.diagnostics)
    r = forward.residual_norms(small, u, bad)
    assert r["mu"][2] > 10 * cfg.newton_tol  # residual of the corrupted step


def test_residuals_first_order_consistency(cfg):
    """The oracle trajectory leaves an O(tau) defect in the scheme."""
    maxima = []
    for N in (32, 64):
        prob = build_problem(n=8, N=N, T=0.5, rho0=0.4, mu0=0.2)
        u = traj(prob, 0.1)
        vals = checks.ode_oracle_solution(prob, u[:, 0])
        rho = np.repeat(vals[:, 0:1], prob.grid.num_cells, axis=1)
        mu = np.repeat(vals[:, 1:2], prob.grid.num_cells, axis=1)
        st = pc.solve_state(prob, u, cfg)  # only for a diagnostics carrier
        oracle = forward.StateTrajectory(rho=rho, mu=mu,
                                         diagnostics=st.diagnostics)
        r = forward.residual_norms(prob, u, oracle)
        maxima.append(max(np.max(r["rho"]), np.max(r["mu"])))
    ratio = maxima[0] / maxima[1]
    assert 1.4 <= ratio <= 2.8


def test_problem_data_owns_its_arrays(cfg):
    """Writes to the array a problem was built from change nothing."""
    rho0 = np.full(16, 0.45)
    prob = build_problem(rho0=rho0)
    before = pc.solve_state(prob, 0.3, cfg)
    rho0[:] = 1.5
    np.testing.assert_array_equal(prob.rho0, np.full(16, 0.45))
    after = pc.solve_state(prob, 0.3, cfg)
    np.testing.assert_array_equal(after.rho, before.rho)
    np.testing.assert_array_equal(after.mu, before.mu)


def test_array_fields_table_names_every_array_field():
    typed = {f.name for f in fields(pc.ProblemData)
             if f.init and f.type in ("np.ndarray", np.ndarray)}
    assert set(pc.ProblemData.ARRAY_FIELDS) == typed


def test_step_error_carries_level(cfg):
    prob = build_problem(rho0=0.4, mu0=0.3, N=4, T=2.0)
    strict = pc.SolverConfig(newton_max=1)
    with pytest.raises(SolverStepError) as err:
        pc.solve_state(prob, 0.5, strict)
    assert err.value.step == 1 and err.value.steps == 4
    assert len(err.value.newton_residuals) == strict.newton_max + 1


def test_indefinite_newton_step_raises_1d(cfg):
    """One step of length 1 leaves delta/tau below 2 c_quad - 4 c_log."""
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(1.0, 1),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.05 * np.cos(np.pi * x), mu0=0.0,
                          u_max=1.0)
    with pytest.raises(LinearSolveFailure) as err:
        pc.solve_state(prob, 0.3, cfg)
    assert err.value.step == 1
