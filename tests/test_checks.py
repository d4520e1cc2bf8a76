import json
from dataclasses import fields, replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, forward, mesh
from phasectl.mesh import inner_h
from conftest import build_problem

REPORT_KEYS = {"name", "pass", "metrics", "seed", "config_hash"}


def test_gradient_check_passes(small):
    rep = checks.fd_gradient_check(small, seed=0)
    assert set(rep) == REPORT_KEYS
    assert rep["pass"], rep["metrics"]
    assert 0.8 <= rep["metrics"]["slope"] <= 1.2
    errs = rep["metrics"]["errors"]
    # one decade of lambda buys one decade of error
    assert errs[1] <= errs[0] / 10.0 * 1.05


def test_gradient_check_zero_direction(small):
    rep = checks.fd_gradient_check(small, seed=0, h=0.0)
    assert not rep["pass"]
    assert rep["metrics"]["degenerate"] is True
    assert rep["metrics"]["slope"] is None


def test_tangent_check_zero_direction(small):
    rep = checks.tangent_remainder_check(small, seed=0, h=0.0)
    assert not rep["pass"]
    assert rep["metrics"]["degenerate"] is True


@pytest.mark.parametrize("mode", ["discrete", "pde"])
def test_duality_check_zero_direction(mode):
    """u_max = 0 makes the seeded direction zero: 0 = 0 proves nothing."""
    rep = checks.duality_gap_check(build_problem(u_max=0.0), seed=0,
                                   mode=mode)
    assert rep["metrics"]["gap"] == 0.0
    assert rep["metrics"]["degenerate"] is True
    assert not rep["pass"]


@pytest.mark.parametrize("check", [checks.fd_gradient_check,
                                   checks.tangent_remainder_check])
def test_ladder_checks_refuse_controls_outside_the_box(small, check):
    with pytest.raises(pc.errors.InfeasibleControl,
                       match=r"^base control leaves the box"):
        check(small, seed=0, u=1.5)
    with pytest.raises(pc.errors.InfeasibleControl,
                       match=r"^perturbed control \(lambda=0\.1\) leaves"):
        check(small, seed=0, u=0.95, h=1.0)


@pytest.fixture(scope="module")
def desk():
    """The 1D desk instance: 64 cells, 128 steps, as benchmarked."""
    return build_problem(n=64, N=128, T=1.0, rho0=0.4, mu0=0.2)


def test_gradient_check_leaves_roundoff_out_of_the_fit(desk):
    """At seed 12 the error at lambda = 1e-4 sits at rounding level, under
    the first-order trend; fitted with it the slope is 1.23."""
    rep = checks.fd_gradient_check(desk, seed=12)
    assert rep["pass"], rep["metrics"]
    assert rep["metrics"]["fit_lambdas"] == [1e-1, 1e-2, 1e-3]


# Wrong gradients the check must refuse, from the gradient beta2 u + q
# and the adjoint q.
GRADIENT_MUTANTS = {
    "no beta2 u": lambda g, q: q,
    "q scaled by 1.01": lambda g, q: g + 0.01 * q,
    "sign flipped": lambda g, q: -g,
}


@pytest.mark.parametrize("name, seed", [
    ("no beta2 u", 0), ("no beta2 u", 12), ("q scaled by 1.01", 0),
    ("q scaled by 1.01", 12), ("sign flipped", 0)])
def test_gradient_check_fails_a_wrong_gradient(desk, monkeypatch,
                                               name, seed):
    real = checks.reduced_gradient

    def mutant(problem, u, *args):
        g, adjoint, state = real(problem, u, *args)
        return GRADIENT_MUTANTS[name](g, adjoint.q), adjoint, state

    monkeypatch.setattr(checks, "reduced_gradient", mutant)
    rep = checks.fd_gradient_check(desk, seed=seed)
    assert not rep["pass"], rep["metrics"]


def test_stability_degenerate_pair(small):
    rep = checks.stability_ratio_check(small, seed=0, u1=0.3, u2=0.3)
    assert rep["metrics"]["degenerate"] is True
    assert rep["metrics"]["energy_ratio"] == 0.0
    assert not rep["pass"]


def test_stability_sampling():
    prob = build_problem(n=16, N=8, T=0.1)
    tops = []
    for seed in range(20):
        rep = checks.stability_ratio_check(prob, seed=seed)
        m = rep["metrics"]
        assert rep["pass"]
        assert np.isfinite(m["energy_ratio"]) and np.isfinite(m["strong_ratio"])
        tops.append(max(m["energy_ratio"], m["strong_ratio"]))
    assert max(tops) / min(tops) < 1e3


def test_stability_refinement_growth():
    prob = build_problem(n=16, N=8, T=0.1)
    fine = checks.refine_problem(prob)
    rng = np.random.default_rng(0)
    u1 = checks.random_control(prob, rng)
    u2 = checks.random_control(prob, rng)
    coarse = checks.stability_ratios(prob, u1, u2)
    refined = checks.stability_ratios(
        fine, checks.prolong_trajectory(prob.grid, prob.tgrid, u1),
        checks.prolong_trajectory(prob.grid, prob.tgrid, u2))
    for key in ("energy_ratio", "strong_ratio"):
        assert refined[key] < 10.0 * coarse[key]


def test_refine_problem_keeps_the_solver():
    """The pde duality ladder marches the refined instances with the
    Newton settings of the configured one."""
    solver = pc.SolverConfig(newton_tol=1e-9, newton_max=7)
    prob = replace(build_problem(n=8, N=4), solver=solver)
    fine = checks.refine_problem(checks.refine_problem(prob))
    assert fine.grid.n == (32,) and fine.solver == solver


def test_refine_problem_prolongs_every_array_field():
    """Each cell splits in two; each trajectory also repeats its levels
    as a right-continuous step function of the halved time step."""
    rng = np.random.default_rng(3)
    n, N = 8, 4
    prob = build_problem(
        n=n, N=N, rho0=rng.uniform(0.3, 0.7, n), mu0=rng.uniform(0.0, 1.0, n),
        u_max=rng.uniform(0.5, 1.0, (N + 1, n)),
        rho_target=rng.uniform(0.3, 0.7, n),
        mu_target=rng.uniform(0.0, 1.0, (N + 1, n)))
    fine = checks.refine_problem(prob)
    assert fine.grid.n == (2 * n,) and fine.tgrid.N == 2 * N
    levels = (np.arange(2 * N + 1) + 1) // 2
    for key in ("rho0", "mu0", "rho_target"):
        np.testing.assert_array_equal(getattr(fine, key),
                                      np.repeat(getattr(prob, key), 2))
    for key in ("u_max", "mu_target"):
        np.testing.assert_array_equal(
            getattr(fine, key), np.repeat(getattr(prob, key)[levels], 2, axis=1))


def test_oracle_stationary_exact():
    prob = build_problem(rho0=0.5, mu0=0.0, N=16)
    rep = checks.ode_oracle_check(prob, u=0.0)
    assert rep["pass"]
    assert rep["metrics"]["max_err"] <= 1e-12


def test_oracle_insensitive_to_newton_tol():
    prob = build_problem(rho0=0.4, mu0=0.2, N=32, T=0.5)
    loose = replace(prob, solver=pc.SolverConfig(newton_tol=1e-8))
    tight = replace(prob, solver=pc.SolverConfig(newton_tol=1e-12))
    a = checks.ode_oracle_check(loose, u=0.1)["metrics"]["max_err"]
    b = checks.ode_oracle_check(tight, u=0.1)["metrics"]["max_err"]
    assert abs(a - b) < 0.01 * max(a, b)


def test_oracle_step_control_converges():
    """A control stepping from 0.1 to 0.3 at T/2, on the criterion-3
    instance, is integrated run by run and matched at first order."""
    errs = []
    for N in (128, 256):
        prob = build_problem(n=64, N=N, T=1.0, rho0=0.4, mu0=0.2)
        levels = np.where(prob.tgrid.times <= 0.5, 0.1, 0.3)
        u = np.repeat(levels[:, None], 64, axis=1)
        rep = checks.ode_oracle_check(prob, u=u)
        assert rep["pass"], rep["metrics"]
        errs.append(rep["metrics"]["max_err"])
    assert 0.35 <= errs[1] / errs[0] <= 0.65


def test_oracle_requires_uniform_data():
    g = pc.Grid(1, 8, 1.0)
    x = g.axis_centers(0)
    prob = pc.ProblemData(grid=g, tgrid=pc.TimeGrid(0.1, 8),
                          epsilon=0.5, delta=1.0, potential=pc.Potential(),
                          rho0=0.4 + 0.1 * x, mu0=0.1, u_max=1.0)
    with pytest.raises(pc.errors.ShapeMismatch, match="uniform rho0, spread"):
        checks.ode_oracle_check(prob, u=0.1)
    # The error names the first level of the control that is not uniform.
    prob = replace(prob, rho0=0.4)
    u = np.full((9, 8), 0.1)
    u[5, 2] = u[3, 7] = 0.2
    with pytest.raises(pc.errors.ShapeMismatch,
                       match=r"uniform u level 3, spread 1\.000e-01"):
        checks.ode_oracle_check(prob, u=u)


def test_bounds_stationary():
    prob = build_problem(rho0=0.5, mu0=0.0)
    rep = checks.bounds_check(prob, u=0.0)
    assert rep["pass"]
    m = rep["metrics"]
    assert m["rho_min"] == 0.5 and m["rho_max"] == 0.5 and m["mu_min"] == 0.0


def test_bounds_random_control(small):
    rep = checks.bounds_check(small, seed=12)
    assert rep["pass"], rep["metrics"]


def test_bounds_detects_violation(small):
    st = pc.solve_state(small, 0.2)
    rho = st.rho.copy()
    rho[4, 2] = 1.2
    bad = forward.StateTrajectory(rho=rho, mu=st.mu,
                                  diagnostics=st.diagnostics)
    rep = checks.bounds_check(small, u=0.2, state=bad)
    assert not rep["pass"]
    assert rep["metrics"]["bound_violations"] == 1
    assert rep["metrics"]["violations"] == [
        {"field": "rho", "level": 4, "cell": 2, "value": 1.2}]
    for field in ("rho", "mu"):
        tampered = {"rho": st.rho.copy(), "mu": st.mu.copy()}
        tampered[field][3, 1] = np.nan
        bad = forward.StateTrajectory(**tampered, diagnostics=st.diagnostics)
        rep = checks.bounds_check(small, u=0.2, state=bad)
        assert not rep["pass"] and rep["metrics"]["bound_violations"] == 1
        [listed] = rep["metrics"]["violations"]
        assert listed["field"] == field
        assert (listed["level"], listed["cell"]) == (3, 1)


def test_reports_deterministic(small):
    one = checks.fd_gradient_check(small, seed=7)
    two = checks.fd_gradient_check(small, seed=7)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_problem_hash_tracks_instance(small):
    h1 = checks.problem_hash(small)
    other = build_problem(epsilon=0.51)
    assert h1 == checks.problem_hash(build_problem())
    assert h1 != checks.problem_hash(other)


def test_problem_hash_covers_every_field():
    """Changing any init field of the instance, nested ones included,
    changes the hash; a filled solver cache does not."""
    base = build_problem()
    bumped = {name: getattr(base, name).copy()
              for name in ("rho0", "mu0", "u_max", "rho_target", "mu_target")}
    for a in bumped.values():
        a.flat[3] += 1e-3
    variants = {
        "grid.n": build_problem(n=17),
        "grid.length": replace(base, grid=pc.Grid(1, 16, 2.0)),
        "tgrid.T": replace(base, tgrid=pc.TimeGrid(0.2, 8)),
        "tgrid.N": build_problem(N=9),
        "epsilon": replace(base, epsilon=0.51),
        "delta": replace(base, delta=1.01),
        "beta1": replace(base, beta1=1.01),
        "beta2": replace(base, beta2=2e-4),
        "potential.c_log": replace(base, potential=pc.Potential(c_log=0.6)),
        "potential.c_quad": replace(base, potential=pc.Potential(c_quad=2.1)),
        "solver.newton_tol": replace(
            base, solver=pc.SolverConfig(newton_tol=1e-9)),
        "solver.newton_max": replace(
            base, solver=pc.SolverConfig(newton_max=31)),
        **{name: replace(base, **{name: a}) for name, a in bumped.items()},
    }
    # grid.dim cannot change without grid.n; every other field can alone.
    nested = {"grid": pc.Grid, "tgrid": pc.TimeGrid, "potential": pc.Potential,
              "solver": pc.SolverConfig}
    expected = set()
    for f in fields(pc.ProblemData):
        if f.name in nested:
            expected |= {"%s.%s" % (f.name, g.name)
                         for g in fields(nested[f.name])
                         if g.init and g.name != "dim"}
        else:
            expected.add(f.name)
    assert set(variants) == expected
    hashes = {name: checks.problem_hash(p) for name, p in variants.items()}
    hashes["base"] = checks.problem_hash(base)
    assert len(set(hashes.values())) == len(hashes)

    square = build_problem(dim=2, n=(6, 5), N=2)
    before = checks.problem_hash(square)
    mesh.solve_shifted(square.grid, np.full(30, 2.0), np.ones(30))
    assert "_dct_eigenvalues" in vars(square.grid)
    assert checks.problem_hash(square) == before


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
    fine_grid = pc.Grid(1, 32, 1.0)
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
