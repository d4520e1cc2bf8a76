"""Acceptance gate: every advertised guarantee at desk scale.

Each test covers one numbered guarantee on the canonical 1D instance
(n=64 cells, N=128 steps unless the item pins its own ladder) and
prints one PASS/FAIL line.  Tolerances are stated inline and are the
contract; loosening them is not a fix for a failure.
"""

import time
from dataclasses import replace

import numpy as np

import phasectl as pc
from phasectl import checks, sensitivity
from phasectl.mesh import as_trajectory, norm_q

N_CELLS = 64
N_STEPS = 128
EPSILON = 0.5
DELTA = 1.0
HORIZON = 1.0
TIME_BUDGET = 60.0



def base_problem(T=HORIZON, N=N_STEPS, n=N_CELLS, rho0=0.5, mu0=0.0, **kw):
    grid = pc.Grid(1, n, 1.0)
    tg = pc.TimeGrid(T, N)
    return pc.ProblemData(grid=grid, tgrid=tg, epsilon=EPSILON, delta=DELTA,
                          potential=pc.Potential(), rho0=rho0, mu0=mu0,
                          u_max=1.0, **kw)


def manufactured_problem(T, u_dag, beta1=1.0, beta2=1e-4, N=N_STEPS):
    base = base_problem(T=T, N=N)
    ref = pc.solve_state(base, u_dag)
    return replace(base, beta1=beta1, beta2=beta2,
                   rho_target=ref.rho[base.tgrid.N], mu_target=ref.mu)


def gate(num, slug, ok, detail):
    print("criterion %02d (%s): %s  [%s]" %
          (num, slug, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d (%s): %s" % (num, slug, detail)


def budget(num, slug, tic):
    elapsed = time.perf_counter() - tic
    assert elapsed < TIME_BUDGET, \
        "criterion %02d (%s) took %.1fs" % (num, slug, elapsed)


def test_criterion_01_stationarity():
    tic = time.perf_counter()
    prob = base_problem()
    st = pc.solve_state(prob, 0.0)
    dev = max(float(np.max(np.abs(st.rho - 0.5))),
              float(np.max(np.abs(st.mu))))
    gate(1, "stationarity", dev <= 1e-12, "max deviation %.3e" % dev)
    budget(1, "stationarity", tic)


def test_criterion_02_bounds():
    tic = time.perf_counter()
    prob = base_problem()
    worst = None
    ok = True
    for seed in range(10):
        rep = checks.bounds_check(prob, seed=seed)
        ok = ok and rep["pass"]
        m = rep["metrics"]
        lo = min(m["rho_min"], 1.0 - m["rho_max"])
        worst = lo if worst is None else min(worst, lo)
    gate(2, "state bounds", ok, "10 seeds, margin to {0,1}: %.3e" % worst)
    budget(2, "state bounds", tic)


def test_criterion_03_ode_oracle():
    tic = time.perf_counter()
    errs = {}
    for N in (128, 256):
        prob = base_problem(N=N, rho0=0.4, mu0=0.2)
        rep = checks.ode_oracle_check(prob, u=0.1)
        errs[N] = rep["metrics"]["max_err"]
        if N == 128:
            ok_tol = rep["pass"] and errs[N] <= 5e-3
    ratio = errs[256] / errs[128]
    ok = ok_tol and 0.35 <= ratio <= 0.65
    gate(3, "ode oracle", ok,
         "err128 %.3e, err256/err128 %.3f" % (errs[128], ratio))
    budget(3, "ode oracle", tic)


def test_criterion_04_tangent_remainder():
    tic = time.perf_counter()
    slopes = []
    ok = True
    prob = base_problem()
    for seed in range(5):
        rep = checks.tangent_remainder_check(prob, seed=seed)
        slopes.append(rep["metrics"]["slope"])
        ok = ok and rep["pass"] and 1.7 <= rep["metrics"]["slope"] <= 2.3
    gate(4, "tangent remainder", ok,
         "slopes " + ", ".join("%.3f" % s for s in slopes))
    budget(4, "tangent remainder", tic)


def test_criterion_05_duality():
    tic = time.perf_counter()
    prob = base_problem()
    worst = 0.0
    ok = True
    for seed in range(5):
        rep = checks.duality_gap_check(prob, seed=seed, mode="discrete")
        worst = max(worst, rep["metrics"]["rel_gap"])
        ok = ok and rep["pass"] and rep["metrics"]["rel_gap"] <= 1e-8
    small = base_problem(n=32, N=64, T=0.5)
    pde = checks.duality_gap_check(small, seed=0, mode="pde",
                                   refinements=2)
    ratios = pde["metrics"]["ratios"]
    ok = ok and pde["pass"] and all(r >= 1.5 for r in ratios)
    gate(5, "duality identity", ok,
         "discrete rel gap %.3e; pde ratios %s"
         % (worst, ", ".join("%.2f" % r for r in ratios)))
    budget(5, "duality identity", tic)


def test_criterion_06_gradient():
    tic = time.perf_counter()
    prob = base_problem()
    ok = True
    slopes, mismatches = [], []
    for seed in range(5):
        rep = checks.fd_gradient_check(prob, seed=seed)
        m = rep["metrics"]
        slopes.append(m["slope"])
        mismatches.append(m["rel_mismatch_smallest"])
        ok = ok and rep["pass"] and 0.8 <= m["slope"] <= 1.2 \
            and m["rel_mismatch_smallest"] <= 1e-4
    gate(6, "gradient check", ok,
         "slopes %.3f..%.3f, worst fd mismatch %.3e"
         % (min(slopes), max(slopes), max(mismatches)))
    budget(6, "gradient check", tic)


def test_criterion_07_adjoint_mode_consistency():
    tic = time.perf_counter()
    gaps = []
    for N in (64, 128, 256):
        prob = base_problem(N=N, rho0=0.45, mu0=0.1)
        st = pc.solve_state(prob, 0.3)
        gaps.append(sensitivity.adjoint_mode_gap(prob, st))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = gaps[0] > gaps[1] > gaps[2] and r1 >= 1.3 and r2 >= 1.3
    gate(7, "adjoint mode consistency", ok,
         "gaps %.3e -> %.3e -> %.3e, ratios %.2f, %.2f"
         % (*gaps, r1, r2))
    budget(7, "adjoint mode consistency", tic)


def test_criterion_08_optimization():
    tic = time.perf_counter()
    prob = manufactured_problem(T=0.05, u_dag=0.5)
    opt = pc.OptimizerConfig(max_iters=200, stat_tol=1e-9, step0=2e3)
    res = pc.projected_gradient_descent(prob, 0.0, opt)
    u0 = as_trajectory(prob.tgrid, prob.grid, 0.0)
    parts0 = pc.cost_parts(prob, pc.solve_state(prob, u0), u0)
    partsF = pc.cost_parts(prob, res.state, res.u)
    track0 = parts0["terminal"] + parts0["tracking"]
    trackF = partsF["terminal"] + partsF["tracking"]
    kkt = res.kkt_history[-1]
    converged = kkt <= 1e-6 or trackF <= 0.1 * track0
    within_budget = res.iterations <= 200
    monotone = bool(np.all(np.diff(res.J_history) <= 0.0))
    fp = pc.project_control(prob, -res.adjoint.q / prob.beta2)
    dist = norm_q(prob.tgrid, prob.grid, res.u - fp)
    allowance = 1e-5 * (1.0 + norm_q(prob.tgrid, prob.grid, res.u))
    ok = converged and within_budget and monotone and dist <= allowance
    gate(8, "manufactured optimization", ok,
         "%s at %d iters, kkt %.2e, tracking to %.2f%%, fixed point "
         "%.2e <= %.2e" % (res.termination, res.iterations, kkt,
                           100.0 * trackF / track0, dist, allowance))
    budget(8, "manufactured optimization", tic)


def test_criterion_09_bang_bang():
    tic = time.perf_counter()
    base = base_problem(T=0.25)
    ref = pc.solve_state(base, 0.0)
    x = base.grid.axis_centers(0)
    split = np.where(x < 0.5, 2.0, -2.0)
    mu_target = np.broadcast_to(
        split, (base.tgrid.N + 1, base.grid.num_cells)).copy()
    prob = replace(base, beta2=0.0, rho_target=ref.rho[base.tgrid.N],
                   mu_target=mu_target)
    opt = pc.OptimizerConfig(max_iters=50, stat_tol=1e-12, step0=1e6)
    res = pc.projected_gradient_descent(prob, 0.5, opt)
    q = res.adjoint.q
    upper = np.asarray(prob.u_max)
    covered = np.abs(q) > 1e-6
    coverage = float(covered.mean())
    pos = covered & (q > 0)
    neg = covered & (q < 0)
    rule = bool(np.all(res.u[pos] == 0.0)) and \
        bool(np.all(res.u[neg] == upper[neg]))
    converged = res.termination == "Stationary"
    ok = converged and coverage >= 0.9 and rule
    gate(9, "bang-bang extraction", ok,
         "%s, |q|>1e-6 on %.2f%% of cells, sign rule %s"
         % (res.termination, 100.0 * coverage, "exact" if rule else "broken"))
    budget(9, "bang-bang extraction", tic)


def test_criterion_10_stability():
    tic = time.perf_counter()
    prob = base_problem()
    fine = checks.refine_problem(prob)
    coarse_max, fine_max = 0.0, 0.0
    finite = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u1 = checks.random_control(prob, rng)
        u2 = checks.random_control(prob, rng)
        r = checks.stability_ratios(prob, u1, u2)
        finite = finite and np.isfinite(r["energy_ratio"]) \
            and np.isfinite(r["strong_ratio"]) and not r["degenerate"]
        coarse_max = max(coarse_max, r["energy_ratio"], r["strong_ratio"])
        rf = checks.stability_ratios(
            fine, checks.prolong_trajectory(prob.grid, prob.tgrid, u1),
            checks.prolong_trajectory(prob.grid, prob.tgrid, u2))
        fine_max = max(fine_max, rf["energy_ratio"], rf["strong_ratio"])
    growth = fine_max / coarse_max
    ok = finite and growth < 10.0
    gate(10, "stability ratios", ok,
         "20 pairs finite=%s, max %.3f -> %.3f under refinement (x%.2f)"
         % (finite, coarse_max, fine_max, growth))
    budget(10, "stability ratios", tic)
