from dataclasses import replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, optimize, sensitivity
from phasectl.errors import (DomainViolation, InfeasibleControl,
                             NewtonDivergence)
from phasectl.mesh import inner_q
from conftest import build_problem, manufactured, traj


def test_cost_zero_at_met_targets():
    prob, _ = manufactured(u_dag=0.0)
    st = pc.solve_state(prob, 0.0)
    parts = pc.cost_parts(prob, st, traj(prob, 0.0))
    assert parts["total"] == 0.0


def test_cost_terminal_arithmetic():
    prob = build_problem(beta1=0.0, beta2=0.0)
    st = pc.solve_state(prob, 0.2)
    shifted = pc.ProblemData(
        grid=prob.grid, tgrid=prob.tgrid, epsilon=prob.epsilon,
        delta=prob.delta, potential=prob.potential, rho0=prob.rho0,
        mu0=prob.mu0, u_max=prob.u_max, beta1=0.0, beta2=0.0,
        rho_target=st.rho[prob.tgrid.N] - 1.0, mu_target=st.mu)
    assert pc.cost(shifted, st, traj(prob, 0.2)) == pytest.approx(0.5)


def test_cost_control_arithmetic():
    base = build_problem(T=1.0, N=8, u_max=2.0)
    st = pc.solve_state(base, 2.0)
    prob = pc.ProblemData(
        grid=base.grid, tgrid=base.tgrid, epsilon=base.epsilon,
        delta=base.delta, potential=base.potential, rho0=base.rho0,
        mu0=base.mu0, u_max=base.u_max, beta1=0.0, beta2=1.0,
        rho_target=st.rho[base.tgrid.N], mu_target=st.mu)
    assert pc.cost(prob, st, traj(prob, 2.0)) == pytest.approx(2.0)


def test_gradient_is_regularization_when_targets_met():
    prob, _ = manufactured(u_dag=0.3, beta2=0.01)
    g, adj, _ = pc.reduced_gradient(prob, 0.3)
    assert np.max(np.abs(adj.q)) == 0.0
    np.testing.assert_array_equal(g, prob.beta2 * traj(prob, 0.3))


def test_gradient_is_adjoint_when_unregularized():
    prob, _ = manufactured(u_dag=0.4, beta2=0.0)
    g, adj, _ = pc.reduced_gradient(prob, 0.1)
    np.testing.assert_array_equal(g, adj.q)


def test_gradient_pairing_matches_fd():
    """Central difference of the reduced cost is the oracle."""
    prob, _ = manufactured(u_dag=0.4)
    rng = np.random.default_rng(3)
    u = traj(prob, 0.5) * np.asarray(prob.u_max)
    h = checks.random_direction(prob, rng)
    g, _, _ = pc.reduced_gradient(prob, u)
    pairing = inner_q(prob.tgrid, prob.grid, g, h)
    lam = 1e-3
    up = pc.cost(prob, pc.solve_state(prob, u + lam * h), u + lam * h)
    dn = pc.cost(prob, pc.solve_state(prob, u - lam * h), u - lam * h)
    fd = (up - dn) / (2 * lam)
    assert pairing == pytest.approx(fd, rel=1e-5)


def test_directional_derivative_zero(small):
    g, _, _ = pc.reduced_gradient(small, 0.2)
    assert inner_q(small.tgrid, small.grid, g, traj(small, 0.0)) == 0.0


def test_directional_derivative_tangent_route():
    prob, _ = manufactured(u_dag=0.4)
    u = traj(prob, 0.35)
    h = checks.random_direction(prob, np.random.default_rng(5))
    st = pc.solve_state(prob, u)
    adj = pc.solve_adjoint(prob, st)
    tan = pc.solve_tangent(prob, st, h)
    lhs, _ = sensitivity.duality_pairing(prob, st, tan, adj, h)
    reg = prob.beta2 * inner_q(prob.tgrid, prob.grid, u, h)
    g, _, _ = pc.reduced_gradient(prob, u, st)
    dd = inner_q(prob.tgrid, prob.grid, g, h)
    assert dd == pytest.approx(lhs + reg, rel=1e-8)


def test_directional_derivative_fd_ladder():
    prob, _ = manufactured(u_dag=0.4)
    u = traj(prob, 0.35)
    h = checks.random_direction(prob, np.random.default_rng(6))
    g, _, _ = pc.reduced_gradient(prob, u)
    dd = inner_q(prob.tgrid, prob.grid, g, h)
    J0 = pc.cost(prob, pc.solve_state(prob, u), u)
    errs = []
    for lam in (1e-2, 1e-3):
        J1 = pc.cost(prob, pc.solve_state(prob, u + lam * h), u + lam * h)
        errs.append(abs((J1 - J0) / lam - dd))
    assert 4.0 <= errs[0] / errs[1] <= 25.0  # first order in lambda


def test_projection_cases(small):
    inside = traj(small, 0.5)
    np.testing.assert_array_equal(pc.project_control(small, inside), inside)
    np.testing.assert_array_equal(pc.project_control(small, traj(small, -1.0)),
                                  traj(small, 0.0))
    over = np.asarray(small.u_max) + 1.0
    np.testing.assert_array_equal(pc.project_control(small, over),
                                  np.asarray(small.u_max))
    once = pc.project_control(small, traj(small, 1.7))
    np.testing.assert_array_equal(pc.project_control(small, once), once)


def test_kkt_zero_at_projection_fixed_point():
    prob = build_problem(beta2=0.01)
    q = 0.02 * np.sin(np.arange(9 * 16.0)).reshape(9, 16)
    u = pc.project_control(prob, -q / prob.beta2)
    g = prob.beta2 * u + q
    assert pc.kkt_residual(prob, u, g) <= 1e-14


def test_kkt_bang_bang_zero():
    prob = build_problem(beta2=0.0)
    q = -0.5 - traj(prob, 0.0)  # strictly negative everywhere
    u = np.asarray(prob.u_max).copy()
    assert pc.kkt_residual(prob, u, q) == 0.0


def test_kkt_lower_bound_formula():
    prob = build_problem(T=1.0, N=4)
    g = traj(prob, -1.0)
    assert pc.kkt_residual(prob, traj(prob, 0.0), g) == pytest.approx(1.0)


def test_kkt_rejects_infeasible():
    prob = build_problem()
    with pytest.raises(InfeasibleControl):
        pc.kkt_residual(prob, traj(prob, 2.0), traj(prob, 0.0))


def test_descent_singleton_box():
    prob = build_problem(u_max=0.0)
    res = pc.projected_gradient_descent(prob, 0.7, pc.OptimizerConfig(max_iters=5))
    assert res.termination == optimize.TERMINATION_STATIONARY
    assert np.max(np.abs(res.u)) == 0.0
    assert res.iterations == 0


def test_descent_manufactured():
    prob, _ = manufactured(u_dag=0.5)
    opt = pc.OptimizerConfig(max_iters=150, stat_tol=1e-8, step0=2e3)
    res = pc.projected_gradient_descent(prob, 0.0, opt)
    u0 = traj(prob, 0.0)
    st0 = pc.solve_state(prob, u0)
    parts0 = pc.cost_parts(prob, st0, u0)
    partsF = pc.cost_parts(prob, res.state, res.u)
    assert res.J_history[-1] < parts0["total"]
    track0 = parts0["terminal"] + parts0["tracking"]
    trackF = partsF["terminal"] + partsF["tracking"]
    assert trackF <= 0.1 * track0
    assert np.all(np.diff(res.J_history) <= 0.0)
    if res.termination == optimize.TERMINATION_STATIONARY:
        assert res.kkt_history[-1] <= opt.stat_tol


def test_descent_callback_and_histories():
    prob, _ = manufactured(u_dag=0.5)
    seen = []
    opt = pc.OptimizerConfig(max_iters=3, stat_tol=0.0)
    res = pc.projected_gradient_descent(
        prob, 0.0, opt, callback=lambda it, u, J, kkt: seen.append(it))
    assert res.iterations == 3
    assert seen == [0, 1, 2, 3]  # fires once more on the terminal pass
    assert len(res.J_history) == len(res.kkt_history) == 4
    assert len(res.step_history) == len(res.iter_seconds) == 3


def test_descent_runs_without_regularization():
    prob, _ = manufactured(u_dag=0.5, beta2=0.0)
    opt = pc.OptimizerConfig(max_iters=3, stat_tol=0.0, step0=10.0)
    res = pc.projected_gradient_descent(prob, 0.25, opt)
    assert np.all(np.diff(res.J_history) <= 0.0)


@pytest.mark.parametrize("failure", [NewtonDivergence, DomainViolation])
def test_descent_backtracks_past_failed_trial(monkeypatch, failure):
    prob, _ = manufactured(u_dag=0.5)
    opt = pc.OptimizerConfig(max_iters=3, stat_tol=0.0, step0=2e3)
    ref = pc.projected_gradient_descent(prob, 0.0, opt)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the first line-search trial
            raise failure("injected failure")
        return pc.solve_state(*args, **kwargs)

    monkeypatch.setattr(optimize, "solve_state", flaky)
    res = pc.projected_gradient_descent(prob, 0.0, opt)
    assert ref.rejected_trials == 0 and res.rejected_trials == 1
    assert ref.step_history[0] == opt.step0
    assert res.iterations == 3
    assert res.step_history[0] == opt.step0 * optimize.ARMIJO_SHRINK
    assert np.all(np.diff(res.J_history) <= 0.0)


def _count_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pc.solve_state(*args, **kwargs)

    monkeypatch.setattr(optimize, "solve_state", counted)
    return calls


def test_descent_records_step_source_and_trials(monkeypatch):
    prob, _ = manufactured(u_dag=0.5)
    calls = _count_solves(monkeypatch)
    opt = pc.OptimizerConfig(max_iters=6, stat_tol=0.0, step0=2e3)
    res = pc.projected_gradient_descent(prob, 0.0, opt)
    assert res.step_source[0] == "step0" and "bb" in res.step_source[1:]
    assert len(res.step_source) == len(res.trials) == res.iterations
    assert sum(res.trials) == len(calls) - 1  # the first solve prices u0


def test_default_config_reaches_stationary_in_ten_solves(monkeypatch):
    """The criterion-8 instance, without the hand-tuned step0."""
    prob, _ = manufactured(n=64, N=128, T=0.05, u_dag=0.5)
    calls = _count_solves(monkeypatch)
    res = pc.projected_gradient_descent(
        prob, 0.0, pc.OptimizerConfig(stat_tol=1e-9))
    assert res.termination == optimize.TERMINATION_STATIONARY
    assert len(calls) <= 10
    assert np.all(np.diff(res.J_history) <= 0.0)


def test_bang_bang_stationary_from_default_step0():
    """The criterion-9 instance (beta2 = 0), without the tuned step0."""
    base = build_problem(n=64, N=128, T=0.25, rho0=0.5, mu0=0.0)
    ref = pc.solve_state(base, 0.0)
    split = np.where(base.grid.axis_centers(0) < 0.5, 2.0, -2.0)
    prob = replace(base, beta1=1.0, beta2=0.0,
                   rho_target=ref.rho[base.tgrid.N],
                   mu_target=traj(base, split))
    opt = pc.OptimizerConfig(max_iters=50, stat_tol=1e-12)
    res = pc.projected_gradient_descent(prob, 0.5, opt)
    assert res.termination == optimize.TERMINATION_STATIONARY


def test_bb_seed_below_min_step_falls_back_to_step0():
    prob, _ = manufactured(u_dag=0.5)
    # The BB steps of the first iterations here are about 1.8e3.
    opt = pc.OptimizerConfig(max_iters=3, stat_tol=0.0, step0=2e3,
                             min_step=1.9e3)
    res = pc.projected_gradient_descent(prob, 0.0, opt)
    assert res.termination == optimize.TERMINATION_MAX_ITERS
    assert res.step_source == ["step0"] * 3
    assert res.step_history == [opt.step0] * 3
