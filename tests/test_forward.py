import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasectl as pc
from phasectl import checks, forward, mesh
from phasectl.errors import (DomainViolation, LinearSolveFailure,
                             NewtonDivergence, NonpositiveCoefficient,
                             SolverStepError)
from conftest import build_problem, fallback_instance, spoil, traj


def step_problem(grid, delta, tau, epsilon=0.5, **kw):
    """A one-step instance on ``grid`` with step length ``tau``, for
    calling the step functions on levels of its own."""
    return pc.ProblemData(grid=grid, tgrid=pc.TimeGrid(tau, 1),
                          epsilon=epsilon, delta=delta, **kw)


def test_step_rho_stationary():
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.5)
    out, hist = forward.step_rho(step_problem(g, 1.0, 0.01), rho,
                                 np.zeros(8))
    np.testing.assert_array_equal(out, rho)
    assert hist == [0.0]


def test_step_rho_matches_scalar_root():
    """Uniform data reduce the cell system to one scalar equation."""
    g = pc.Grid(1, 8, 1.0)
    pot, delta, tau = pc.Potential(), 1.0, 0.02
    rho_prev, mu = 0.3, 0.1
    out, _ = forward.step_rho(step_problem(g, delta, tau, potential=pot),
                              np.full(8, rho_prev), np.full(8, mu))
    def residual(r):
        return delta * (r - rho_prev) / tau + pot.d1(np.array([r]))[0] - mu
    # Bisection to the last bit: the residual increases on (0, 1).
    lo, hi = 1e-12, 1 - 1e-12
    assert residual(lo) < 0.0 < residual(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
    root = lo
    assert np.ptp(out) == 0.0
    assert out[0] == pytest.approx(root, abs=1e-12)


def test_newton_residuals_quadratic():
    g = pc.Grid(1, 8, 1.0)
    _, hist = forward.step_rho(step_problem(g, 1.0, 0.05),
                               np.full(8, 0.35), np.full(8, 0.4))
    hist = [h for h in hist if h > 0.0]
    assert len(hist) >= 2
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
    # contraction accelerates as the root is approached
    assert all(r < 0.5 for r in ratios)
    if len(ratios) >= 2:
        assert ratios[-1] < 0.2 * ratios[0]


def damping(rho, step, theta):
    """forward._damping, given the least and greatest entries of rho."""
    return forward._damping(rho, step, theta, float(rho.min()),
                            float(rho.max()))


def extrapolate(levels):
    """forward._extrapolate, given the bounds of the last level."""
    return forward._extrapolate(levels, float(levels[2].min()),
                                float(levels[2].max()))


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
        got = damping(rho, step, theta)
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
        got = damping(rho, step, theta)
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
        got = damping(rho, step, theta)
        want = two_mask_damping(rho, step, theta)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # A NaN step skips the fast exit: the per-cell ratios propagate the
    # NaN, and min(1.0, NaN) is 1.0.  An infinite step damps to 0.
    rho = np.array([0.5, 0.5, 0.5])
    assert damping(rho, np.array([0.0, np.nan, 1e-3]), 0.1) == 1.0
    assert damping(rho, np.array([0.0, np.inf, 1e-3]), 0.1) == 0.0
    # A subnormal step beside a distance near 1 overflows its ratio to inf,
    # which no other cell's ratio exceeds; no warning is raised.
    assert damping(np.array([1e-3, 0.5]), np.array([1e-310, 0.4]),
                   0.1) == 1.0


def test_step_mu_homogeneous():
    g = pc.Grid(1, 8, 1.0)
    rho = np.full(8, 0.4)
    with mesh.CheckedSolves(g) as solves:
        out = forward.step_mu(step_problem(g, 1.0, 0.01, 0.5), rho, rho,
                              np.zeros(8), np.zeros(8), solves)
    np.testing.assert_array_equal(out, np.zeros(8))


def test_step_mu_uniform_closed_form():
    g = pc.Grid(1, 8, 1.0)
    eps, tau = 0.5, 0.02
    rp, rn, mp, u = 0.35, 0.4, 0.25, 0.7
    with mesh.CheckedSolves(g) as solves:
        out = forward.step_mu(step_problem(g, 1.0, tau, eps), np.full(8, rp),
                              np.full(8, rn), np.full(8, mp), np.full(8, u),
                              solves)
    expect = (tau * u + (eps + 2 * rn) * mp) / (eps + 2 * rn + rn - rp)
    np.testing.assert_allclose(out, expect, rtol=1e-14)


def test_step_mu_nonnegativity():
    """Positive diagonal makes the step an M-matrix solve."""
    g = pc.Grid(2, (5, 4), (1.0, 1.0))
    prob = step_problem(g, 1.0, 0.01, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(5):
        rp = 0.2 + 0.5 * rng.random(20)
        rn = rp + 0.05 * (rng.random(20) - 0.3)
        mu = rng.random(20)
        u = rng.random(20)
        with mesh.CheckedSolves(g) as solves:
            out = forward.step_mu(prob, rp, rn, mu, u, solves)
        assert np.min(out) >= 0.0


def test_step_mu_rejects_nonpositive_coefficient():
    g = pc.Grid(1, 4, 1.0)
    with pytest.raises(NonpositiveCoefficient) as err, \
            mesh.CheckedSolves(g) as solves:
        forward.step_mu(step_problem(g, 1.0, 0.01, 0.5), np.full(4, 0.9),
                        np.full(4, 0.1), np.zeros(4), np.zeros(4), solves)
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
        prob, st.rho[n], st.rho[n + 1]))) for n in range(16)]
    assert d.min_coefficient == coeff
    shift = [tau * float(np.min(forward.newton_shift(prob, st.rho[n + 1])))
             for n in range(16)]
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


def test_problem_data_holds_constant_data_once():
    """A scalar u_max and mu_T are each held as a read-only broadcast of
    one field: building the problem allocates no (N+1, cells) stack, a
    write raises, and the instance hashes as one built from the equal
    full stacks; dataclasses.replace keeps each a broadcast."""
    N, cells = 2048, 64
    stack = (N + 1) * cells * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prob = build_problem(n=cells, N=N, u_max=0.7, mu_target=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < stack / 4
    full = build_problem(n=cells, N=N, u_max=np.full((N + 1, cells), 0.7),
                         mu_target=np.full((N + 1, cells), 0.2))
    for key in ("u_max", "mu_target"):
        a = getattr(prob, key)
        assert a.shape == (N + 1, cells) and mesh.constant_in_time(a)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        assert not mesh.constant_in_time(getattr(full, key))
        assert mesh.constant_in_time(getattr(replace(prob, beta1=2.0), key))
    assert checks.problem_hash(prob) == checks.problem_hash(full)


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
    start = extrapolate(levels)
    # The increments are -0.08, 0.36 and 0; the second cell binds.
    lam = 0.9 * 0.02 / 0.36
    np.testing.assert_allclose(start, [0.01 - lam * 0.08, 0.998, 0.3],
                               rtol=1e-12)
    # The first cell alone is left with a tenth of 0.01.
    assert extrapolate(levels[:, :1]) == pytest.approx([0.001], rel=1e-12)
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
    args = (prob, state.rho[2], state.mu[2])
    warm, warm_hist = forward.step_rho(*args)
    level, hist = forward.step_rho(*args, extrapolate(state.rho[:3]))
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
    strict = replace(prob, solver=pc.SolverConfig(newton_max=2))
    solve, calls = mesh.solve_shifted, []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(mesh, "solve_shifted", counted)
    with pytest.raises(NewtonDivergence) as err:
        forward.step_rho(strict, state.rho[2], state.mu[2],
                         extrapolate(state.rho[:3]))
    res = err.value.newton_residuals
    assert len(res) == 6 and res.restart == 3 and len(calls) == 4


@settings(max_examples=40, deadline=None)
@example(n=21, delta=5.0, ratio=0.875, epsilon=1.0, seed=0)
@example(n=24, delta=2.9943633264406238, ratio=0.9733474003611076,
         epsilon=0.9150185419422955, seed=344462251)
@given(n=st.integers(1, 24), delta=st.floats(0.05, 5.0),
       ratio=st.floats(0.01, 0.99), epsilon=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_extrapolated_start_reaches_the_same_level(n, delta, ratio, epsilon,
                                                   seed):
    """Where tau < 0.5 delta the step system is positive definite, and both
    starts reach one level, each to the Newton tolerance: where Newton
    fails from the extrapolated start, as in the examples, the step falls
    back to the previous level.  In the second example an iterate from
    the extrapolated start rounds onto rho = 1."""
    rng = np.random.default_rng(seed)
    tau = ratio * 0.5 * delta
    prob = build_problem(n=n, N=3, T=3.0 * tau, epsilon=epsilon, delta=delta,
                         rho0=rng.uniform(0.2, 0.8, n),
                         mu0=rng.uniform(0.0, 1.0, n))
    state = pc.solve_state(prob, rng.uniform(0.0, 1.0, (4, n)))
    args = (prob, state.rho[2], state.mu[2])
    warm, warm_hist = forward.step_rho(*args)
    extra, extra_hist = forward.step_rho(
        *args, extrapolate(state.rho[:3]))
    np.testing.assert_allclose(extra, warm, rtol=0.0, atol=1e-9)
    assert max(warm_hist[-1], extra_hist[-1]) <= prob.solver.newton_tol


@pytest.mark.parametrize("N, last", [(8, 7), (16, 15), (64, 54)])
def test_newton_stops_on_its_rounding_floor_near_one(N, last):
    """On 4 cells marched to T = 4 under the control 5, rho climbs to
    within 3e-8 of 1, where the residual's rounding floor lies above
    newton_tol.  Step ``last`` used to stall at a residual of 1.3-1.8e-10
    and fail after 30 iterations.  Newton now stops on the floor
    FLOOR_FACTOR |spacing(rho) shift|_h, the diagnostics record those
    steps, and the march reaches T with its duality and bounds intact."""
    prob = build_problem(n=4, N=N, T=4.0, epsilon=1.0, delta=1.0, rho0=0.3,
                         mu0=0.0, u_max=5.0)
    state = pc.solve_state(prob, 5.0)
    d = state.diagnostics
    assert d.on_floor.index(True) == last - 1
    assert 1.0 - state.rho.max() < 1e-7
    for i in range(N):
        args = (prob, state.rho[i], state.mu[i])
        start = (extrapolate(state.rho[i - 2:i + 1]) if d.extrapolated[i]
                 else None)
        level, hist = forward.step_rho(*args, start)
        assert np.array_equal(level, state.rho[i + 1])
        assert hist.on_floor == d.on_floor[i]
        shift = forward.newton_shift(prob, level)
        if hist.on_floor:
            assert prob.solver.newton_tol < hist[-1] <= forward._floor(
                prob.grid, level, shift)
        else:
            assert hist[-1] <= prob.solver.newton_tol
    assert checks.duality_gap_check(prob, 0, u=5.0)["pass"]
    assert checks.bounds_check(prob, 0, u=5.0)["pass"]


def test_newton_stalling_above_the_floor_still_fails():
    """Newton from the extrapolated start of the fallback instance's step
    3 crawls near rho = 1 far above the rounding floor; it fails after
    newton_max iterations, naming the residual and the floor."""
    prob, u = fallback_instance()
    state = pc.solve_state(prob, u)
    with pytest.raises(NewtonDivergence) as err:
        forward._newton(prob, extrapolate(state.rho[:3]), state.rho[2],
                        state.mu[2], forward.NewtonHistory())
    match = re.fullmatch(r"Newton residual (\S+) above tolerance (\S+) and "
                         r"rounding floor (\S+) after 30 iterations",
                         str(err.value))
    assert match, str(err.value)
    res, tol, floor = map(float, match.groups())
    assert res == float("%.3e" % err.value.newton_residuals[-1])
    assert tol == prob.solver.newton_tol and res > 1e3 * floor > 0.0


def reference_norm(grid, x):
    """|x|_h, or max|x| |x / max|x||_h where only the square overflows;
    inf or NaN where x holds one."""
    with np.errstate(over="ignore"):
        value, scale = mesh.norm_h(grid, x), np.abs(x).max()
        if value == np.inf and np.isfinite(scale):
            value = scale * mesh.norm_h(grid, x / scale)
    return value


def reference_floor(grid, rho, shift):
    """FLOOR_FACTOR |spacing(rho) shift|_h."""
    return forward.FLOOR_FACTOR * reference_norm(grid, np.spacing(rho) * shift)


def reference_step_rho(problem, rho_prev, mu_prev, start=None):
    """step_rho as first written: the potential's checked derivatives, the
    Newton shift and the damping each test rho apart, and the rounding
    floor is formed at every iterate above newton_tol.  An overflowing
    f'(rho) or residual ends the step, as an overflowing shift does."""
    grid, pot, cfg = problem.grid, problem.potential, problem.solver
    delta, tau = problem.delta, problem.tgrid.tau
    history = forward.NewtonHistory()

    def newton(rho):
        rho, shift = rho.copy(), None
        try:
            for it in range(cfg.newton_max + 1):
                try:
                    with np.errstate(over="raise"):
                        d1 = pot.d1(rho)
                except DomainViolation as exc:
                    raise NewtonDivergence("Newton iterate %d: %s"
                                           % (it, exc)) from None
                except FloatingPointError:
                    raise NewtonDivergence(
                        "Newton residual term f'(rho) overflows at "
                        "iterate %d" % it) from None
                with np.errstate(over="raise"):
                    try:
                        res = (delta / tau) * (rho - rho_prev) \
                            - mesh.laplacian_apply(grid, rho) + d1 - mu_prev
                    except FloatingPointError:
                        raise NewtonDivergence(
                            "Newton residual overflows at iterate %d"
                            % it) from None
                rnorm = reference_norm(grid, res)
                history.append(rnorm)
                if rnorm <= cfg.newton_tol:
                    return rho
                with np.errstate(over="raise"):
                    try:
                        shift = forward.newton_shift(problem, rho)
                    except FloatingPointError:
                        raise NewtonDivergence(
                            "Newton shift delta/tau + f''(rho) overflows at "
                            "iterate %d" % it) from None
                if rnorm <= reference_floor(grid, rho, shift):
                    history.on_floor = True
                    return rho
                if it == cfg.newton_max:
                    break
                history.solves += 1
                step = mesh.solve_shifted(grid, shift, -res)
                rho = rho + two_mask_damping(
                    rho, step, forward.BOUNDARY_MARGIN) * step
            raise NewtonDivergence(
                "Newton residual %.3e above tolerance %.3e and rounding "
                "floor %.3e after %d iterations"
                % (history[-1], cfg.newton_tol,
                   reference_floor(grid, rho, shift), cfg.newton_max))
        except SolverStepError as exc:
            exc.newton_residuals = history
            if shift is not None:
                exc.min_newton_shift = tau * float(shift.min())
            raise

    if start is not None:
        try:
            return newton(start), history
        except NewtonDivergence:
            history.restart = len(history)
    return newton(rho_prev), history


def outcome(step, *args):
    """The level and Newton record of a step, or its error's."""
    try:
        level, hist = step(*args)
    except SolverStepError as exc:
        hist = exc.newton_residuals
        return (type(exc), str(exc), exc.min_newton_shift,
                None if hist is None else (list(hist), hist.restart))
    return (level.tobytes(), list(hist), hist.restart, hist.solves,
            hist.on_floor)


# Cell values that round onto, or next to, the endpoints 0 and 1.
EDGES = [5e-324, 1e-300, 1e-16, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
fields6 = st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=6, max_size=6)


@settings(max_examples=100, deadline=None)
@example(n=4, rho=[0.9999998] * 6, mu=[12.0] * 6, start=None, edge=None,
         tau=0.25, delta=1.0, c_log=0.5, c_quad=2.0, newton_max=30)
@example(n=3, rho=[0.5, 0.6, 0.7] * 2, mu=[0.0] * 6, start=None, edge=None,
         tau=0.1, delta=1.0, c_log=1e308, c_quad=2.0, newton_max=30)
@example(n=2, rho=[0.125] * 6, mu=[0.0] * 6, start=None, edge=None,
         tau=0.1, delta=1.0, c_log=1e308, c_quad=2.0, newton_max=30)
@example(n=2, rho=[0.5] * 6, mu=[1e3, 0.0] * 3, start=None,
         edge=(0, 1.0 - 2.0**-53), tau=0.5, delta=1.0, c_log=0.5,
         c_quad=2.0, newton_max=30)
@given(n=st.integers(1, 6), rho=fields6,
       mu=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
       start=st.none() | fields6,
       edge=st.none() | st.tuples(st.integers(0, 5), st.sampled_from(EDGES)),
       tau=st.floats(1e-3, 2.0), delta=st.floats(0.05, 5.0),
       c_log=st.floats(0.01, 2.0) | st.sampled_from([1e300, 1e308]),
       c_quad=st.floats(0.0, 5.0), newton_max=st.integers(1, 30))
def test_fused_newton_matches_the_reference_step(n, rho, mu, start, edge,
                                                 tau, delta, c_log, c_quad,
                                                 newton_max):
    """step_rho, which tests each iterate's domain once and bounds the
    rounding floor before forming it, gives the reference its levels,
    residual histories and floor stops bit for bit, and its exception
    classes, messages and records.  ``edge`` puts one cell of the
    previous level on or next to an endpoint.  The examples end on the
    floor, in an overflowing Newton shift, in an overflowing f'(rho), and
    with an iterate rounding onto 1."""
    problem = step_problem(
        pc.Grid(1, n, 1.0), delta, tau,
        potential=pc.Potential(c_log=c_log, c_quad=c_quad),
        solver=pc.SolverConfig(newton_max=newton_max))
    rho_prev = np.array(rho[:n])
    if edge is not None:
        rho_prev[edge[0] % n] = edge[1]
    args = (problem, rho_prev, np.array(mu[:n]),
            None if start is None else np.array(start[:n]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(forward.step_rho, *args) == outcome(
            reference_step_rho, *args)
