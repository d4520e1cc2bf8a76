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
from dataclasses import asdict, replace

import numpy as np

from . import checks as checks_mod
from .config import RunConfig, build_problem, parse_config
from .errors import PhasectlError, SolverStepError
from .fields import write_json, write_snapshots
from .forward import residual_norms, solve_state
from .optimize import projected_gradient_descent
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


def _write_fields(rc: RunConfig, **trajectories) -> None:
    """Snapshot each named trajectory at the configured stride."""
    for base, traj in trajectories.items():
        write_snapshots(rc.output.directory, base, rc.problem.tgrid,
                        rc.problem.grid, traj, rc.output.snapshot_stride)


def cmd_forward(rc: RunConfig) -> int:
    problem = build_problem(rc)
    diagnostics_path = os.path.join(rc.output.directory, "diagnostics.json")
    config_hash = checks_mod.problem_hash(problem, rc.solver)
    tic = time.perf_counter()
    try:
        state = solve_state(problem, rc.u_init, rc.solver)
    except SolverStepError as exc:
        # The records of the levels solved before the failing step.
        write_json(diagnostics_path, dict(
            asdict(exc.diagnostics), failed_step=exc.step, error=str(exc),
            failed_newton_residuals=exc.newton_residuals,
            config_hash=config_hash))
        raise
    runtime = time.perf_counter() - tic
    _write_fields(rc, rho=state.rho, mu=state.mu)
    residuals = residual_norms(problem, rc.u_init, state)
    payload = asdict(state.diagnostics)
    payload.update({
        "runtime_seconds": runtime,
        "max_rho_residual": float(np.max(residuals["rho"])),
        "max_mu_residual": float(np.max(residuals["mu"])),
        "config_hash": config_hash,
    })
    write_json(diagnostics_path, payload)
    print("forward: %d steps, rho in [%.6g, %.6g], mu in [%.6g, %.6g]"
          % (problem.tgrid.N, min(payload["rho_min"]), max(payload["rho_max"]),
             min(payload["mu_min"]), max(payload["mu_max"])))
    return 0


def cmd_optimize(rc: RunConfig) -> int:
    problem = build_problem(rc)
    opt = rc.optimizer
    if problem.beta2 == 0.0 and opt.max_iters > _BETA2_ZERO_CAP:
        print("warning: beta2 = 0 leaves the step rule without a curvature "
              "scale; capping iterations at %d" % _BETA2_ZERO_CAP,
              file=sys.stderr)
        opt = replace(opt, max_iters=_BETA2_ZERO_CAP)
    out = rc.output.directory
    callback = None
    if rc.output.iter_snapshots:
        # Every level, so control.u_init can read an iterate back.
        def callback(it, u, J, kkt):
            write_snapshots(os.path.join(out, "u_iter_%04d" % it), "u",
                            problem.tgrid, problem.grid, u)

    tic = time.perf_counter()
    result = projected_gradient_descent(problem, rc.u_init, opt, rc.solver,
                                        adjoint_mode=rc.adjoint_mode,
                                        callback=callback)
    runtime = time.perf_counter() - tic
    _write_fields(rc, u=result.u, rho=result.state.rho, mu=result.state.mu)
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
    u, h = checks_mod.check_instance(problem, seed)
    state = solve_state(problem, u, rc.solver)
    tangent = solve_tangent(problem, state, h, rc.solver)
    adjoint = solve_adjoint(problem, state, rc.solver, mode=rc.adjoint_mode)
    _write_fields(rc, rho=state.rho, mu=state.mu, xi=tangent.xi,
                  eta=tangent.eta, p=adjoint.p, q=adjoint.q)


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
        step = getattr(exc, "step", None)
        where = "step %s of %s: " % (step, exc.steps) if step else ""
        print("error: %s%s" % (where, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
