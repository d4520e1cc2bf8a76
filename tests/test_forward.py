from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasectl as pc
from phasectl import checks, forward, mesh
from phasectl.errors import (LinearSolveFailure, NewtonDivergence,
                             NonpositiveCoefficient, SolverStepError)
from conftest import build_problem, fallback_instance, spoil, traj


def test_step_rho_stationary():
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.5)
    out, hist = forward.step_rho(g, pc.Potential(), 1.0, 0.01, rho,
                                 np.zeros(8), pc.SolverConfig())
    np.testing.assert_array_equal(out, rho)
    assert hist == [0.0]


def test_step_rho_matches_scalar_root():
    """Uniform data reduce the cell system to one scalar equation."""
    g = pc.Grid(1, 8, 1.0)
    pot, delta, tau = pc.Potential(), 1.0, 0.02
    rho_prev, mu = 0.3, 0.1
    out, _ = forward.step_rho(g, pot, delta, tau,
                              np.full(8, rho_prev), np.full(8, mu),
                              pc.SolverConfig())
    def residual(r):
        return delta * (r - rho_prev) / tau + pot.d1(np.array([r]))[0] - mu
    root = scipy.optimize.brentq(residual, 1e-12, 1 - 1e-12,
                                 xtol=1e-15, rtol=8.9e-16)
    assert np.ptp(out) == 0.0
    assert out[0] == pytest.approx(root, abs=1e-12)


def test_newton_residuals_quadratic():
    g = pc.Grid(1, 8, 1.0)
    _, hist = forward.step_rho(g, pc.Potential(), 1.0, 0.05,
                               np.full(8, 0.35), np.full(8, 0.4),
                               pc.SolverConfig())
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
    """Over random draws, then where the largest step sits at a multiple
    of the fast exit's bound, (1 - theta) / 2 times the least distance to
    0 or 1, on the cell of that distance heading for its endpoint: just
    inside and just outside the bound, and up to four times it, where
    the damping is below 1; and where that bound is subnormal."""
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
    scales = [0.5 * (1.0 - 2.0**-52), 0.5, 0.5 * (1.0 + 2.0**-52),
              1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0, 4.0]
    inside = 0
    for k in range(800):
        n = int(rng.integers(1, 20))
        rho = 1e-9 + (1.0 - 2e-9) * rng.random(n)
        theta = rng.uniform(0.01, 0.99)
        dist = np.minimum(rho, 1.0 - rho)
        i = dist.argmin()
        big = scales[k % len(scales)] * (1.0 - theta) * dist[i]
        step = rng.uniform(-0.999, 0.999, n) * big
        step[i] = big if rho[i] > 0.5 else -big
        inside += 2.0 * big <= (1.0 - theta) * dist[i]
        got = forward._damping(rho, step, theta)
        want = two_mask_damping(rho, step, theta)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert inside >= 150
    # Subnormal distances and steps heading for 0, where the fast exit's
    # bound rounds to a whole number of the least subnormal.
    for _ in range(300):
        n = int(rng.integers(1, 4))
        rho = rng.integers(1, 40, n) * 5e-324
        step = -rng.integers(0, 25, n) * 5e-324
        theta = rng.uniform(0.01, 0.99)
        got = forward._damping(rho, step, theta)
        want = two_mask_damping(rho, step, theta)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # A NaN step skips the fast exit: the per-cell ratios propagate the
    # NaN, and min(1.0, NaN) is 1.0.  An infinite step damps to 0.
    rho = np.array([0.5, 0.5, 0.5])
    assert forward._damping(rho, np.array([0.0, np.nan, 1e-3]), 0.1) == 1.0
    assert forward._damping(rho, np.array([0.0, np.inf, 1e-3]), 0.1) == 0.0


def test_step_mu_homogeneous():
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.4)
    with mesh.CheckedSolves(g) as solves:
        out = forward.step_mu(0.5, 0.01, rho, rho, np.zeros(8),
                              np.zeros(8), solves)
    np.testing.assert_array_equal(out, np.zeros(8))


def test_step_mu_uniform_closed_form():
    g = pc.Grid(1, 8, 1.0)
    eps, tau = 0.5, 0.02
    rp, rn, mp, u = 0.35, 0.4, 0.25, 0.7
    with mesh.CheckedSolves(g) as solves:
        out = forward.step_mu(eps, tau, np.full(8, rp), np.full(8, rn),
                              np.full(8, mp), np.full(8, u), solves)
    expect = (tau * u + (eps + 2 * rn) * mp) / (eps + 2 * rn + rn - rp)
    np.testing.assert_allclose(out, expect, rtol=1e-14)


def test_step_mu_nonnegativity():
    """Positive diagonal makes the step an M-matrix solve."""
    g = pc.Grid(2, (5, 4), (1.0, 1.0))
    rng = np.random.default_rng(4)
    for _ in range(5):
        rp = 0.2 + 0.5 * rng.random(20)
        rn = rp + 0.05 * (rng.random(20) - 0.3)
        mu = rng.random(20)
        u = rng.random(20)
        with mesh.CheckedSolves(g) as solves:
            out = forward.step_mu(0.5, 0.01, rp, rn, mu, u, solves)
        assert np.min(out) >= 0.0


def test_step_mu_rejects_nonpositive_coefficient():
    g = pc.Grid(1, 4, 1.0)
    with pytest.raises(NonpositiveCoefficient) as err, \
            mesh.CheckedSolves(g) as solves:
        forward.step_mu(0.5, 0.01, np.full(4, 0.9), np.full(4, 0.1),
                        np.zeros(4), np.zeros(4), solves)
    # In the units of Diagnostics.min_coefficient: epsilon + 3 * 0.1 - 0.9.
    assert err.value.min_coefficient == pytest.approx(-0.1, rel=1e-12)


def test_solve_state_stationary_triple():
    prob = build_problem(rho0=0.5, mu0=0.0)
    st = pc.solve_state(prob, 0.0)
    assert np.max(np.abs(st.rho - 0.5)) == 0.0
    assert np.max(np.abs(st.mu)) == 0.0
    assert min(st.diagnostics.min_coefficient) > 0.0
    assert not st.diagnostics.bound_violations


def test_solve_state_diagnostics_bounds():
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(0.2, 16),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.2 * np.cos(2 * np.pi * x),
                          mu0=0.1, u_max=1.0)
    st = pc.solve_state(prob, 0.5)
    d = st.diagnostics
    assert 0.0 < min(d.rho_min) and max(d.rho_max) < 1.0
    assert min(d.mu_min) >= -forward.BOUND_TOL
    assert min(d.min_coefficient) > 0.0


def test_diagnostics_reduce_the_trajectory():
    """Diagnostics are reductions of the returned levels, per level and
    per step, and a failed march keeps those of the levels it solved."""
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(0.2, 16),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.2 * np.cos(2 * np.pi * x),
                          mu0=0.1, u_max=1.0)
    st = pc.solve_state(prob, 0.5)
    d, tau = st.diagnostics, prob.tgrid.tau
    assert d.rho_min == st.rho.min(axis=1).tolist()
    assert d.rho_max == st.rho.max(axis=1).tolist()
    assert d.mu_min == st.mu.min(axis=1).tolist()
    assert d.mu_max == st.mu.max(axis=1).tolist()
    coeff = [tau * float(np.min(forward.mu_diagonal(
        prob.epsilon, tau, st.rho[n], st.rho[n + 1]))) for n in range(16)]
    assert d.min_coefficient == coeff
    shift = [tau * float(np.min(forward.newton_shift(
        prob.potential, prob.delta, tau, st.rho[n + 1]))) for n in range(16)]
    assert d.min_newton_shift == shift
    assert d.bound_violations == 0
    assert len(d.newton_iters) == len(d.newton_residuals) == 16
    assert len(d.extrapolated) == 16
    assert d.fell_back == [False] * 16
    assert max(d.newton_residuals) <= prob.solver.newton_tol
    strict = replace(prob, solver=pc.SolverConfig(newton_max=1))
    with pytest.raises(SolverStepError) as err:
        pc.solve_state(strict, 0.5)
    failed = err.value.diagnostics
    assert failed.rho_min == [float(np.min(prob.rho0))]
    assert failed.newton_iters == [] and failed.min_coefficient == []
    assert failed.min_newton_shift == [] and failed.extrapolated == []
    assert failed.fell_back == []


def test_residuals_stationary(small):
    prob = build_problem(rho0=0.5, mu0=0.0)
    st = pc.solve_state(prob, 0.0)
    r = forward.residual_norms(prob, traj(prob, 0.0), st)
    tol = prob.solver.newton_tol + mesh.LINEAR_TOL
    assert np.max(r["rho"]) <= tol and np.max(r["mu"]) <= tol


def test_residuals_detect_tampering(small):
    u = traj(small, 0.2)
    st = pc.solve_state(small, u)
    mu = st.mu.copy()
    mu[3] = mu[3] + 0.01
    bad = forward.StateTrajectory(rho=st.rho, mu=mu, diagnostics=st.diagnostics)
    r = forward.residual_norms(small, u, bad)
    # The residual of the corrupted step.
    assert r["mu"][2] > 10 * small.solver.newton_tol


def test_residuals_first_order_consistency():
    """The oracle trajectory leaves an O(tau) defect in the scheme."""
    maxima = []
    for N in (32, 64):
        prob = build_problem(n=8, N=N, T=0.5, rho0=0.4, mu0=0.2)
        u = traj(prob, 0.1)
        vals = checks.ode_oracle_solution(prob, u[:, 0])
        rho = np.repeat(vals[:, 0:1], prob.grid.num_cells, axis=1)
        mu = np.repeat(vals[:, 1:2], prob.grid.num_cells, axis=1)
        st = pc.solve_state(prob, u)  # only for a diagnostics carrier
        oracle = forward.StateTrajectory(rho=rho, mu=mu,
                                         diagnostics=st.diagnostics)
        r = forward.residual_norms(prob, u, oracle)
        maxima.append(max(np.max(r["rho"]), np.max(r["mu"])))
    ratio = maxima[0] / maxima[1]
    assert 1.4 <= ratio <= 2.8


def test_problem_data_owns_its_arrays():
    """Writes to the array a problem was built from change nothing."""
    rho0 = np.full(16, 0.45)
    prob = build_problem(rho0=rho0)
    before = pc.solve_state(prob, 0.3)
    rho0[:] = 1.5
    np.testing.assert_array_equal(prob.rho0, np.full(16, 0.45))
    after = pc.solve_state(prob, 0.3)
    np.testing.assert_array_equal(after.rho, before.rho)
    np.testing.assert_array_equal(after.mu, before.mu)


def test_array_fields_table_names_every_array_field():
    typed = {f.name for f in fields(pc.ProblemData)
             if f.init and f.type in ("np.ndarray", np.ndarray)}
    assert set(pc.ProblemData.ARRAY_FIELDS) == typed


def test_step_error_carries_level():
    prob = build_problem(rho0=0.4, mu0=0.3, N=4, T=2.0)
    strict = replace(prob, solver=pc.SolverConfig(newton_max=1))
    with pytest.raises(SolverStepError) as err:
        pc.solve_state(strict, 0.5)
    assert err.value.step == 1 and err.value.steps == 4
    assert len(err.value.newton_residuals) == strict.solver.newton_max + 1


@pytest.mark.parametrize("fail", [None, 14], ids=["alone", "then-injected"])
def test_residual_failure_names_its_step(monkeypatch, fail):
    """On 64 cells a block holds 32 potential steps.  Step 10's is 1%
    off; it is named, with the diagnostics of the ten levels before it,
    whether its block is checked at its end or first by an injected
    failure at step 14."""
    prob = build_problem(n=64, N=40, T=0.5)
    ref = pc.solve_state(prob, 0.3).diagnostics
    spoil(monkeypatch, forward, "step_mu", 10, fail)
    with pytest.raises(LinearSolveFailure, match="linear residual") as err:
        pc.solve_state(prob, 0.3)
    assert (err.value.step, err.value.steps) == (10, 40)
    diag = err.value.diagnostics
    assert diag.rho_min == ref.rho_min[:10] and diag.mu_max == ref.mu_max[:10]
    assert diag.newton_iters == ref.newton_iters[:9]
    assert diag.min_coefficient == ref.min_coefficient[:9]
    if fail:
        assert str(err.value.__context__) == "injected"


def test_indefinite_newton_step_raises_1d():
    """One step of length 1 leaves delta/tau below 2 c_quad - 4 c_log."""
    g = pc.Grid(1, 16, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(1.0, 1),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.5 + 0.05 * np.cos(np.pi * x), mu0=0.0,
                          u_max=1.0)
    with pytest.raises(LinearSolveFailure) as err:
        pc.solve_state(prob, 0.3)
    assert err.value.step == 1


def test_extrapolated_start_halves_the_desk_newton_count():
    """From the previous level the desk march takes 2.0 Newton iterations
    per step; from the extrapolated start at most 1.1."""
    prob = build_problem(n=64, N=128, T=1.0, rho0=0.4, mu0=0.2)
    u, _ = checks.check_instance(prob, 1)
    d = pc.solve_state(prob, u).diagnostics
    assert sum(d.newton_iters) <= 1.1 * 128
    assert len(d.extrapolated) == 128 and not any(d.extrapolated[:2])
    assert all(d.extrapolated[2:])


def test_no_extrapolation_where_the_previous_level_converges_in_one():
    """On the optimize_1d instance every step converges in one Newton
    iteration from the previous level, so no step extrapolates."""
    prob = build_problem(n=64, N=128, T=0.05, rho0=0.5, mu0=0.0)
    x = prob.grid.axis_centers(0)
    d = pc.solve_state(prob, 0.5 + 0.3 * np.cos(np.pi * x)).diagnostics
    assert not any(d.extrapolated)
    assert sum(d.newton_iters) == 127


def test_extrapolated_start_is_damped_inside():
    """An extrapolation that leaves (0, 1) is scaled back by the rule of a
    Newton step: no cell comes closer than a tenth of its distance to the
    endpoint it heads for."""
    levels = np.array([[0.5, 0.5, 0.3], [0.2, 0.7, 0.3], [0.01, 0.98, 0.3]])
    start = forward._extrapolate(levels)
    # The increments are -0.08, 0.36 and 0; the second cell binds.
    lam = 0.9 * 0.02 / 0.36
    np.testing.assert_allclose(start, [0.01 - lam * 0.08, 0.998, 0.3],
                               rtol=1e-12)
    # The first cell alone is left with a tenth of 0.01.
    assert forward._extrapolate(levels[:, :1]) == pytest.approx([0.001],
                                                                rel=1e-12)
    # A march whose levels fall fast towards the well near 0.02.
    prob = build_problem(n=8, N=16, T=4.0, rho0=0.3, mu0=0.0)
    state = pc.solve_state(prob, 0.0)
    r, d = state.rho, state.diagnostics
    raw = [r[n - 2] + 3.0 * (r[n] - r[n - 1])
           for n in range(2, 16) if d.extrapolated[n]]
    assert np.min(raw) < 0.0
    assert d.bound_violations == 0 and min(d.rho_min) > 0.0


def test_extrapolated_start_falls_back_to_the_previous_level():
    """Newton from the extrapolated start of step 3 stalls near rho = 1 and
    fails after 30 iterations; the step runs again from the previous
    level, converges in 6, and the march reaches T.  Its history keeps
    both attempts, and its Newton count every solve of both."""
    prob, u = fallback_instance()
    state = pc.solve_state(prob, u)
    d = state.diagnostics
    assert d.extrapolated == [False, False, True]
    assert d.fell_back == [False, False, True]
    assert d.newton_iters == [7, 7, 36]
    assert max(d.newton_residuals) <= prob.solver.newton_tol
    args = (prob.grid, prob.potential, prob.delta, prob.tgrid.tau,
            state.rho[2], state.mu[2], prob.solver)
    warm, warm_hist = forward.step_rho(*args)
    level, hist = forward.step_rho(*args, forward._extrapolate(state.rho[:3]))
    assert np.array_equal(level, warm) and np.array_equal(level, state.rho[3])
    assert hist.restart == 31 and hist[31:] == warm_hist
    assert min(hist[:31]) > prob.solver.newton_tol and not warm_hist.restart


def test_step_after_a_fallback_starts_at_the_previous_level():
    """Step 3 fell back with 36 Newton iterations, which would have made
    step 4 extrapolate; it starts at the previous level instead, since
    extrapolating just failed there.  From the extrapolated start step 4
    takes 7 iterations, from the previous level 5."""
    prob, u = fallback_instance(N=4)
    d = pc.solve_state(prob, u).diagnostics
    assert d.fell_back == [False, False, True, False]
    assert d.extrapolated == [False, False, True, False]
    assert d.newton_iters == [7, 7, 36, 5]


def test_both_failed_attempts_keep_their_residuals(monkeypatch):
    """When Newton fails from the start and from the previous level, the
    error carries the residuals of both attempts.  Each attempt solves
    newton_max times: the last iterate's residual ends it unsolved."""
    prob, u = fallback_instance()
    state = pc.solve_state(prob, u)
    strict = pc.SolverConfig(newton_max=2)
    solve, calls = mesh.solve_shifted, []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(mesh, "solve_shifted", counted)
    with pytest.raises(NewtonDivergence) as err:
        forward.step_rho(prob.grid, prob.potential, prob.delta,
                         prob.tgrid.tau, state.rho[2], state.mu[2], strict,
                         forward._extrapolate(state.rho[:3]))
    res = err.value.newton_residuals
    assert len(res) == 6 and res.restart == 3 and len(calls) == 4


@settings(max_examples=40, deadline=None)
@example(n=21, delta=5.0, ratio=0.875, epsilon=1.0, seed=0)
@given(n=st.integers(1, 24), delta=st.floats(0.05, 5.0),
       ratio=st.floats(0.01, 0.99), epsilon=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_extrapolated_start_reaches_the_same_level(n, delta, ratio, epsilon,
                                                   seed):
    """Where tau < 0.5 delta the step system is positive definite, and both
    starts reach one level, each to the Newton tolerance: where Newton
    fails from the extrapolated start, as in the example, the step falls
    back to the previous level."""
    rng = np.random.default_rng(seed)
    tau = ratio * 0.5 * delta
    prob = build_problem(n=n, N=3, T=3.0 * tau, epsilon=epsilon, delta=delta,
                         rho0=rng.uniform(0.2, 0.8, n),
                         mu0=rng.uniform(0.0, 1.0, n))
    state = pc.solve_state(prob, rng.uniform(0.0, 1.0, (4, n)))
    args = (prob.grid, prob.potential, delta, prob.tgrid.tau, state.rho[2],
            state.mu[2], prob.solver)
    warm, warm_hist = forward.step_rho(*args)
    extra, extra_hist = forward.step_rho(
        *args, forward._extrapolate(state.rho[:3]))
    np.testing.assert_allclose(extra, warm, rtol=0.0, atol=1e-9)
    assert max(warm_hist[-1], extra_hist[-1]) <= prob.solver.newton_tol
