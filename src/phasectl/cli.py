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
from dataclasses import asdict, fields, replace

import numpy as np

from . import checks as checks_mod
from .config import RunConfig, parse_config
from .errors import PhasectlError, SolverStepError, renamed_keys
from .fields import atomic_write_text, json_text, write_json, write_snapshots
from .forward import residual_norms, solve_state
from .optimize import projected_gradient_descent
from .sensitivity import solve_adjoint, solve_tangent

# Each check by name: its function in phasectl.checks, the options it
# takes from the run config, and whether --dump-fields applies to it.
CHECKS = {
    "grad": ("fd_gradient_check", {}, True),
    "tangent": ("tangent_remainder_check", {}, True),
    "duality": ("duality_gap_check", {"mode": "adjoint_mode"}, True),
    "stability": ("stability_ratio_check", {}, False),
    "oracle": ("ode_oracle_check", {"u": "u_init"}, False),
    "bounds": ("bounds_check", {}, False),
}


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
    p_chk.add_argument("which", choices=CHECKS)
    common(p_chk)
    p_chk.add_argument("--dump-fields", action="store_true",
                       help="also write sensitivity trajectories as CSV")
    return parser


# The output field each override option sets.
_OVERRIDES = {"out": "directory", "seed": "seed",
              "snapshots": "snapshot_stride"}


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    given = {name: getattr(args, option) for option, name in _OVERRIDES.items()
             if getattr(args, option) is not None}
    with renamed_keys({name: "--" + option
                       for option, name in _OVERRIDES.items()}):
        return replace(rc, output=replace(rc.output, **given))


def _write_fields(rc: RunConfig, **trajectories) -> None:
    """Snapshot each named trajectory at the configured stride."""
    for base, traj in trajectories.items():
        write_snapshots(rc.output.directory, base, rc.problem.tgrid,
                        rc.problem.grid, traj, rc.output.snapshot_stride)


def cmd_forward(rc: RunConfig) -> int:
    problem = rc.problem
    diagnostics_path = os.path.join(rc.output.directory, "diagnostics.json")
    config_hash = checks_mod.problem_hash(problem)
    tic = time.perf_counter()
    try:
        state = solve_state(problem, rc.u_init)
    except SolverStepError as exc:
        # The records of the levels solved before the failing step.
        write_json(diagnostics_path, dict(
            asdict(exc.diagnostics), failed_step=exc.step, error=str(exc),
            failed_newton_residuals=exc.newton_residuals,
            failed_min_coefficient=exc.min_coefficient,
            failed_min_newton_shift=exc.min_newton_shift,
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
    problem = rc.problem
    out = rc.output.directory
    callback = None
    if rc.output.iter_snapshots:
        # Every level, so control.u_init can read an iterate back.
        def callback(it, u, J, kkt):
            write_snapshots(os.path.join(out, "u_iter_%04d" % it), "u",
                            problem.tgrid, problem.grid, u)

    tic = time.perf_counter()
    result = projected_gradient_descent(problem, rc.u_init, rc.optimizer,
                                        callback=callback)
    runtime = time.perf_counter() - tic
    # Every result field but the trajectories, which are snapshots.
    summary = {f.name: getattr(result, f.name) for f in fields(result)
               if f.name not in ("u", "state", "adjoint", "gradient")}
    summary.update({
        "final_J": result.J_history[-1],
        "final_kkt": result.kkt_history[-1],
        "runtime_seconds": runtime,
        "config_hash": checks_mod.problem_hash(problem),
    })
    # Checked before any snapshot is written: a refused summary leaves
    # no files of the run.
    summary_path = os.path.join(out, "optimize_summary.json")
    text = json_text(summary_path, summary)
    _write_fields(rc, u=result.u, rho=result.state.rho, mu=result.state.mu)
    atomic_write_text(summary_path, text)
    print("optimize: %s after %d iterations, J=%.6e, kkt=%.3e"
          % (result.termination, result.iterations, result.J_history[-1],
             result.kkt_history[-1]))
    return 0


def _dump_sensitivity(rc: RunConfig, problem, seed: int,
                      mode: str = "discrete") -> None:
    """Re-solve the state, tangent and adjoint of the check instance and
    write them; the adjoint in the check's mode, if it takes one."""
    u, h = checks_mod.check_instance(problem, seed)
    state = solve_state(problem, u)
    tangent = solve_tangent(problem, state, h)
    adjoint = solve_adjoint(problem, state, mode=mode)
    _write_fields(rc, rho=state.rho, mu=state.mu, xi=tangent.xi,
                  eta=tangent.eta, p=adjoint.p, q=adjoint.q)


def cmd_check(rc: RunConfig, which: str, dump_fields: bool) -> int:
    problem = rc.problem
    func, options, sensitivity = CHECKS[which]
    kwargs = {key: getattr(rc, field) for key, field in options.items()}
    report = getattr(checks_mod, func)(problem, rc.output.seed, **kwargs)
    write_json(os.path.join(rc.output.directory, "check_%s.json" % which),
               report)
    if dump_fields:
        if sensitivity:
            _dump_sensitivity(rc, problem, rc.output.seed, **kwargs)
        else:
            names = [name for name, (_, _, dump) in CHECKS.items() if dump]
            print("note: --dump-fields applies to %s" % ", ".join(names),
                  file=sys.stderr)
    status = "PASS" if report["pass"] else "FAIL"
    brief = {k: v for k, v in report["metrics"].items()
             if isinstance(v, (int, float)) and not isinstance(v, bool)}
    detail = ", ".join("%s=%.4g" % (k, v) for k, v in sorted(brief.items()))
    if report["metrics"].get("degenerate"):
        detail = "; ".join(filter(None, ("degenerate", detail)))
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
