"""Command line interface: one command per process, file outputs only.

Commands
    forward    march the state system under the configured initial control
    optimize   run projected gradient descent and write the result
    check      run one verification check and gate the exit code on it

Exit codes: 0 on success or a passing check, 1 on a failing check, 2 on
configuration or solver errors.  All file outputs are written
atomically, so a crashed run never leaves half-written artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import checks as checks_mod
from .config import RunConfig, build_problem, parse_config
from .errors import PhasectlError
from .fields import atomic_write_text, write_json, write_snapshots
from .forward import residual_norms, solve_state
from .optimize import OptimizerConfig, projected_gradient_descent
from .sensitivity import solve_adjoint, solve_tangent

CHECK_NAMES = ("grad", "tangent", "duality", "stability", "oracle", "bounds")

_BETA2_ZERO_CAP = 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasectl",
        description="Forward simulation, optimization and verification for "
                    "a controlled two-field phase segregation model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override for seeded commands")
        p.add_argument("--snapshots", type=int, default=None,
                       help="snapshot stride override")

    p_fwd = sub.add_parser("forward", help="run the forward solver")
    common(p_fwd)
    p_opt = sub.add_parser("optimize", help="run projected gradient descent")
    common(p_opt)
    p_chk = sub.add_parser("check", help="run one verification check")
    p_chk.add_argument("which", choices=CHECK_NAMES)
    common(p_chk)
    p_chk.add_argument("--dump-fields", action="store_true",
                       help="also write sensitivity trajectories as CSV")
    return parser


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    if args.out is not None:
        rc.output.directory = args.out
    if args.seed is not None:
        rc.output.seed = args.seed
    if args.snapshots is not None:
        if args.snapshots < 1:
            raise PhasectlError("snapshot stride must be >= 1")
        rc.output.snapshot_stride = args.snapshots
    return rc


def write_trajectory_csv(path: str, tg, grid, traj) -> None:
    """Space-time CSV with a leading time column, one row per cell."""
    header = "t," + ("x,value" if grid.dim == 1 else "x,y,value")
    coords = grid.cell_centers()
    times = tg.times
    lines = [header]
    for k in range(tg.N + 1):
        for row, val in zip(coords, traj[k]):
            cols = ["%.17g" % times[k]] + ["%.17g" % c for c in row] \
                + ["%.17g" % val]
            lines.append(",".join(cols))
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_forward(rc: RunConfig) -> int:
    problem = build_problem(rc)
    tic = time.perf_counter()
    state = solve_state(problem, rc.u_init, rc.solver)
    runtime = time.perf_counter() - tic
    out = rc.output.directory
    write_snapshots(out, "rho", rc.tgrid, rc.grid, state.rho,
                    rc.output.snapshot_stride)
    write_snapshots(out, "mu", rc.tgrid, rc.grid, state.mu,
                    rc.output.snapshot_stride)
    residuals = residual_norms(problem, rc.u_init, state)
    payload = state.diagnostics.to_dict()
    payload.update({
        "runtime_seconds": runtime,
        "max_rho_residual": float(np.max(residuals["rho"])),
        "max_mu_residual": float(np.max(residuals["mu"])),
        "config_hash": checks_mod.problem_hash(problem, rc.solver),
    })
    write_json(os.path.join(out, "diagnostics.json"), payload)
    print("forward: %d steps, rho in [%.6g, %.6g], mu in [%.6g, %.6g]"
          % (rc.tgrid.N, min(payload["rho_min"]), max(payload["rho_max"]),
             min(payload["mu_min"]), max(payload["mu_max"])))
    return 0


def cmd_optimize(rc: RunConfig) -> int:
    problem = build_problem(rc)
    opt = rc.optimizer
    if problem.beta2 == 0.0 and opt.max_iters > _BETA2_ZERO_CAP:
        print("warning: beta2 = 0 leaves the step rule without a curvature "
              "scale; capping iterations at %d" % _BETA2_ZERO_CAP,
              file=sys.stderr)
        opt = OptimizerConfig(
            max_iters=_BETA2_ZERO_CAP, armijo_c=opt.armijo_c,
            armijo_shrink=opt.armijo_shrink, step0=opt.step0,
            stat_tol=opt.stat_tol, min_step=opt.min_step)
    out = rc.output.directory
    callback = None
    if rc.output.iter_snapshots:
        os.makedirs(out, exist_ok=True)

        def callback(it, u, J, kkt):
            path = os.path.join(out, "u_iter_%04d.csv" % it)
            write_trajectory_csv(path, rc.tgrid, rc.grid, u)

    tic = time.perf_counter()
    result = projected_gradient_descent(problem, rc.u_init, opt, rc.solver,
                                        adjoint_mode=rc.adjoint_mode,
                                        callback=callback)
    runtime = time.perf_counter() - tic
    write_snapshots(out, "u", rc.tgrid, rc.grid, result.u,
                    rc.output.snapshot_stride)
    write_snapshots(out, "rho", rc.tgrid, rc.grid, result.state.rho,
                    rc.output.snapshot_stride)
    write_snapshots(out, "mu", rc.tgrid, rc.grid, result.state.mu,
                    rc.output.snapshot_stride)
    summary = {
        "J_history": result.J_history,
        "kkt_history": result.kkt_history,
        "step_history": result.step_history,
        "iter_seconds": result.iter_seconds,
        "termination": result.termination,
        "iterations": result.iterations,
        "rejected_trials": result.rejected_trials,
        "final_J": result.J_history[-1],
        "final_kkt": result.kkt_history[-1],
        "runtime_seconds": runtime,
        "config_hash": checks_mod.problem_hash(problem, rc.solver),
    }
    write_json(os.path.join(out, "optimize_summary.json"), summary)
    print("optimize: %s after %d iterations, J=%.6e, kkt=%.3e"
          % (result.termination, result.iterations, result.J_history[-1],
             result.kkt_history[-1]))
    return 0


def _dump_sensitivity(rc: RunConfig, problem, seed: int) -> None:
    """Write the sensitivity trajectories of the check instance."""
    rng = np.random.default_rng(seed)
    u = 0.5 * problem.u_max
    h = checks_mod.random_direction(problem, rng)
    state = solve_state(problem, u, rc.solver)
    tangent = solve_tangent(problem, state, h, rc.solver)
    adjoint = solve_adjoint(problem, state, rc.solver, mode=rc.adjoint_mode)
    out, stride = rc.output.directory, rc.output.snapshot_stride
    write_snapshots(out, "rho", rc.tgrid, rc.grid, state.rho, stride)
    write_snapshots(out, "mu", rc.tgrid, rc.grid, state.mu, stride)
    write_snapshots(out, "xi", rc.tgrid, rc.grid, tangent.xi, stride)
    write_snapshots(out, "eta", rc.tgrid, rc.grid, tangent.eta, stride)
    write_snapshots(out, "p", rc.tgrid, rc.grid, adjoint.p, stride)
    write_snapshots(out, "q", rc.tgrid, rc.grid, adjoint.q, stride)


def cmd_check(rc: RunConfig, which: str, dump_fields: bool) -> int:
    problem = build_problem(rc)
    seed = rc.output.seed
    cfg = rc.solver
    if which == "grad":
        report = checks_mod.fd_gradient_check(problem, cfg, seed)
    elif which == "tangent":
        report = checks_mod.tangent_remainder_check(problem, cfg, seed)
    elif which == "duality":
        report = checks_mod.duality_gap_check(problem, cfg, seed,
                                              mode=rc.adjoint_mode)
    elif which == "stability":
        report = checks_mod.stability_ratio_check(problem, cfg, seed)
    elif which == "oracle":
        report = checks_mod.ode_oracle_check(problem, cfg, seed, u=rc.u_init)
    else:
        report = checks_mod.bounds_check(problem, cfg, seed)
    out = rc.output.directory
    write_json(os.path.join(out, "check_%s.json" % which), report)
    if dump_fields:
        if which in ("grad", "tangent", "duality"):
            _dump_sensitivity(rc, problem, seed)
        else:
            print("note: --dump-fields applies to grad, tangent and duality",
                  file=sys.stderr)
    status = "PASS" if report["pass"] else "FAIL"
    brief = {k: v for k, v in report["metrics"].items()
             if isinstance(v, (int, float)) and not isinstance(v, bool)}
    detail = ", ".join("%s=%.4g" % (k, v) for k, v in sorted(brief.items()))
    print("check %s: %s (%s)" % (which, status, detail))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _apply_overrides(parse_config(args.config), args)
        if args.command == "forward":
            return cmd_forward(rc)
        if args.command == "optimize":
            return cmd_optimize(rc)
        return cmd_check(rc, args.which, args.dump_fields)
    except PhasectlError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
