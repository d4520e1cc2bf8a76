import json
from dataclasses import fields, replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, forward, mesh
from phasectl.mesh import inner_h, norm_h
from conftest import build_problem, traj

REPORT_KEYS = {"name", "pass", "metrics", "seed", "config_hash"}


def test_gradient_check_passes(cfg, small):
    rep = checks.fd_gradient_check(small, cfg, seed=0)
    assert set(rep) == REPORT_KEYS
    assert rep["pass"], rep["metrics"]
    assert 0.8 <= rep["metrics"]["slope"] <= 1.2
    errs = rep["metrics"]["errors"]
    # one decade of lambda buys one decade of error
    assert errs[1] <= errs[0] / 10.0 * 1.05


def test_gradient_check_zero_direction(cfg, small):
    rep = checks.fd_gradient_check(small, cfg, seed=0, h=0.0)
    assert not rep["pass"]
    assert rep["metrics"]["degenerate"] is True
    assert rep["metrics"]["slope"] is None


def test_tangent_check_zero_direction(cfg, small):
    rep = checks.tangent_remainder_check(small, cfg, seed=0, h=0.0)
    assert not rep["pass"]
    assert rep["metrics"]["degenerate"] is True


def test_stability_degenerate_pair(cfg, small):
    rep = checks.stability_ratio_check(small, cfg, seed=0, u1=0.3, u2=0.3)
    assert rep["metrics"]["degenerate"] is True
    assert rep["metrics"]["energy_ratio"] == 0.0


def test_stability_sampling(cfg):
    prob = build_problem(n=16, N=8, T=0.1)
    tops = []
    for seed in range(20):
        rep = checks.stability_ratio_check(prob, cfg, seed=seed)
        m = rep["metrics"]
        assert rep["pass"]
        assert np.isfinite(m["energy_ratio"]) and np.isfinite(m["strong_ratio"])
        tops.append(max(m["energy_ratio"], m["strong_ratio"]))
    assert max(tops) / min(tops) < 1e3


def test_stability_refinement_growth(cfg):
    prob = build_problem(n=16, N=8, T=0.1)
    fine = checks.refine_problem(prob)
    rng = np.random.default_rng(0)
    u1 = checks.random_control(prob, rng)
    u2 = checks.random_control(prob, rng)
    coarse = checks.stability_ratios(prob, u1, u2, cfg)
    refined = checks.stability_ratios(
        fine, checks.prolong_trajectory(prob.grid, prob.tgrid, u1),
        checks.prolong_trajectory(prob.grid, prob.tgrid, u2), cfg)
    for key in ("energy_ratio", "strong_ratio"):
        assert refined[key] < 10.0 * coarse[key]


def test_oracle_stationary_exact(cfg):
    prob = build_problem(rho0=0.5, mu0=0.0, N=16)
    rep = checks.ode_oracle_check(prob, cfg, u=0.0)
    assert rep["pass"]
    assert rep["metrics"]["max_err"] <= 1e-12


def test_oracle_insensitive_to_newton_tol(cfg):
    prob = build_problem(rho0=0.4, mu0=0.2, N=32, T=0.5)
    loose = pc.SolverConfig(newton_tol=1e-8)
    tight = pc.SolverConfig(newton_tol=1e-12)
    a = checks.ode_oracle_check(prob, loose, u=0.1)["metrics"]["max_err"]
    b = checks.ode_oracle_check(prob, tight, u=0.1)["metrics"]["max_err"]
    assert abs(a - b) < 0.01 * max(a, b)


def test_oracle_step_control_converges(cfg):
    """A control stepping from 0.1 to 0.3 at T/2, on the criterion-3
    instance, is integrated run by run and matched at first order."""
    errs = []
    for N in (128, 256):
        prob = build_problem(n=64, N=N, T=1.0, rho0=0.4, mu0=0.2)
        levels = np.where(prob.tgrid.times <= 0.5, 0.1, 0.3)
        u = np.repeat(levels[:, None], 64, axis=1)
        rep = checks.ode_oracle_check(prob, cfg, u=u, tol=5e-3)
        assert rep["pass"], rep["metrics"]
        errs.append(rep["metrics"]["max_err"])
    assert 0.35 <= errs[1] / errs[0] <= 0.65


def test_oracle_requires_uniform_data(cfg):
    g = pc.make_grid(1, 8, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.make_time_grid(0.1, 8),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.4 + 0.1 * x, mu0=0.1, u_max=1.0)
    with pytest.raises(pc.errors.ShapeMismatch):
        checks.ode_oracle_check(prob, cfg, u=0.1)


def test_bounds_stationary(cfg):
    prob = build_problem(rho0=0.5, mu0=0.0)
    rep = checks.bounds_check(prob, cfg, u=0.0)
    assert rep["pass"]
    m = rep["metrics"]
    assert m["rho_min"] == 0.5 and m["rho_max"] == 0.5 and m["mu_min"] == 0.0


def test_bounds_random_control(cfg, small):
    rep = checks.bounds_check(small, cfg, seed=12)
    assert rep["pass"], rep["metrics"]


def test_bounds_detects_violation(cfg, small):
    st = pc.solve_state(small, 0.2, cfg)
    rho = st.rho.copy()
    rho[4, 2] = 1.2
    bad = forward.StateTrajectory(rho=rho, mu=st.mu,
                                  diagnostics=st.diagnostics)
    rep = checks.bounds_check(small, cfg, u=0.2, state=bad)
    assert not rep["pass"]
    assert rep["metrics"]["violations"], "location report expected"


def test_reports_deterministic(cfg, small):
    one = checks.fd_gradient_check(small, cfg, seed=7)
    two = checks.fd_gradient_check(small, cfg, seed=7)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_problem_hash_tracks_instance(cfg, small):
    h1 = checks.problem_hash(small, cfg)
    other = build_problem(epsilon=0.51)
    assert h1 == checks.problem_hash(build_problem(), cfg)
    assert h1 != checks.problem_hash(other, cfg)


def test_problem_hash_covers_every_field(cfg):
    """Changing any init field of the instance, nested ones included,
    changes the hash; a filled solver cache does not."""
    base = build_problem()
    bumped = {name: getattr(base, name).copy()
              for name in ("rho0", "mu0", "u_max", "rho_target", "mu_target")}
    for a in bumped.values():
        a.flat[3] += 1e-3
    variants = {
        "grid.n": build_problem(n=17),
        "grid.length": replace(base, grid=pc.make_grid(1, 16, 2.0)),
        "tgrid.T": replace(base, tgrid=pc.make_time_grid(0.2, 8)),
        "tgrid.N": build_problem(N=9),
        "epsilon": replace(base, epsilon=0.51),
        "delta": replace(base, delta=1.01),
        "beta1": replace(base, beta1=1.01),
        "beta2": replace(base, beta2=2e-4),
        "potential.c_log": replace(base, potential=pc.Potential(c_log=0.6)),
        "potential.c_quad": replace(base, potential=pc.Potential(c_quad=2.1)),
        **{name: replace(base, **{name: a}) for name, a in bumped.items()},
    }
    # grid.dim cannot change without grid.n; every other field can alone.
    nested = {"grid": pc.Grid, "tgrid": pc.TimeGrid, "potential": pc.Potential}
    expected = set()
    for f in fields(pc.ProblemData):
        if f.name in nested:
            expected |= {"%s.%s" % (f.name, g.name)
                         for g in fields(nested[f.name])
                         if g.init and g.name != "dim"}
        else:
            expected.add(f.name)
    assert set(variants) == expected
    hashes = {name: checks.problem_hash(p, cfg) for name, p in variants.items()}
    hashes["base"] = checks.problem_hash(base, cfg)
    assert len(set(hashes.values())) == len(hashes)

    square = build_problem(dim=2, n=(6, 5), N=2)
    before = checks.problem_hash(square, cfg)
    mesh.solve_shifted(square.grid, np.full(30, 2.0), np.ones(30))
    assert square.grid._dct_eig is not None
    assert checks.problem_hash(square, cfg) == before


def test_random_control_feasible_and_seeded(small):
    rng = np.random.default_rng(3)
    u = checks.random_control(small, rng)
    assert np.min(u) >= 0.0
    assert np.max(u - np.asarray(small.u_max)) <= 0.0
    again = checks.random_control(small, np.random.default_rng(3))
    assert np.array_equal(u, again)


def test_prolongation_is_exact(small):
    rng = np.random.default_rng(1)
    v = rng.random(small.grid.num_cells)
    fine_grid = pc.make_grid(1, 32, 1.0)
    vf = checks.prolong_field(small.grid, v)
    assert inner_h(fine_grid, vf, vf) == pytest.approx(
        inner_h(small.grid, v, v), rel=1e-15)
    u = checks.random_control(small, rng)
    uf = checks.prolong_trajectory(small.grid, small.tgrid, u)
    assert uf.shape == (2 * small.tgrid.N + 1, 2 * small.grid.num_cells)
    # doubled levels sample the same right-continuous step function
    for k in range(1, small.tgrid.N + 1):
        np.testing.assert_array_equal(uf[2 * k - 1], uf[2 * k])
        np.testing.assert_array_equal(uf[2 * k],
                                      checks.prolong_field(small.grid, u[k]))
