"""Seeded inputs, command lists and output checks for each workload.

A workload writes its YAML and CSV inputs into a work directory and
returns one *round*: the list of CLI commands the benchmark times
together.  Every command carries the check that decides whether its
output is right.  Inputs are written here with numpy alone, so a change
to the program's own CSV writer cannot change what the program is fed.

Why each workload exists (the mechanism it exercises and the one it
skips) is in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Command:
    """One CLI invocation and the check applied to what it wrote."""

    label: str
    argv: list
    out: str
    check: Callable  # check(exit_code, out_dir) -> list of wrong outputs


def _cell_centres(n):
    """Per-axis coordinate arrays of the cell centres of the unit box."""
    axes = [(np.arange(m) + 0.5) / m for m in n]
    return np.meshgrid(*axes, indexing="ij")


def smooth_field(rng, n, lo, hi, modes=4):
    """Seeded cosine series on the cell centres, scaled onto [lo, hi].

    Cosines satisfy the zero-flux boundary condition, so the field is
    smooth and compatible with the model.  ``n`` is the per-axis cell
    count tuple on the unit box.
    """
    grids = _cell_centres(n)
    field = np.zeros(n)
    for idx in np.ndindex(*(modes,) * len(n)):
        if not any(idx):
            continue
        term = np.ones(n)
        for k, x in zip(idx, grids):
            term = term * np.cos(k * math.pi * x)
        field += rng.standard_normal() / (1.0 + sum(idx)) ** 2 * term
    field -= field.min()
    field /= field.max()
    return (lo + (hi - lo) * field).ravel()


def write_field_csv(path, n, values):
    """Field CSV in the program's input format: coordinates then value."""
    cols = [g.ravel() for g in _cell_centres(n)] + [np.asarray(values)]
    header = "x,value" if len(n) == 1 else "x,y,value"
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header=header, comments="")


def _yaml_scalar(value):
    # PyYAML reads a float only when its mantissa has a dot: 1e-09 would
    # come back as a string, 1.0e-09 as a number.
    if isinstance(value, float):
        text = repr(value)
        if "e" in text and "." not in text:
            text = text.replace("e", ".0e")
        return text
    return json.dumps(value)


def write_yaml(path, sections):
    """Write a config of sections; values are numbers, strings, lists or
    one level of nested mapping."""
    lines = []
    for section, entries in sections.items():
        lines.append("%s:" % section)
        for key, value in entries.items():
            if isinstance(value, dict):
                value = "{%s}" % ", ".join(
                    "%s: %s" % (k, _yaml_scalar(v)) for k, v in value.items())
            elif isinstance(value, list):
                value = "[%s]" % ", ".join(_yaml_scalar(v) for v in value)
            else:
                value = _yaml_scalar(value)
            lines.append("  %s: %s" % (key, value))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        return exc


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


# ---------------------------------------------------------------- optimize

OPT_N_CELLS, OPT_T, OPT_N_STEPS = 64, 0.05, 128


def check_optimize(code, out):
    if code != 0:
        return ["exit code %r" % code]
    summary = _read_json(os.path.join(out, "optimize_summary.json"))
    if isinstance(summary, Exception):
        return ["optimize_summary.json unreadable: %s" % summary]
    problems = []
    if summary.get("termination") != "Stationary":
        problems.append("termination %r" % summary.get("termination"))
    kkt = summary.get("final_kkt")
    if not (isinstance(kkt, float) and kkt <= 1e-9):
        problems.append("final_kkt %r above 1e-9" % kkt)
    J = summary.get("J_history") or []
    if not J or not _finite(J) or np.any(np.diff(J) > 0.0):
        problems.append("J_history not finite and non-increasing")
    for base in ("u", "rho", "mu"):
        last = os.path.join(out, "%s_%04d.csv" % (base, OPT_N_STEPS))
        if not os.path.isfile(last):
            problems.append("missing snapshot %s" % os.path.basename(last))
    return problems


def optimize_1d(workdir, seed):
    """Criterion-8 instance with targets from a seeded smooth control."""
    rng = np.random.default_rng(seed)
    n = (OPT_N_CELLS,)
    write_field_csv(os.path.join(workdir, "u_target.csv"), n,
                    smooth_field(rng, n, 0.2, 0.8))
    write_yaml(os.path.join(workdir, "optimize.yaml"), {
        "domain": {"dim": 1, "n": OPT_N_CELLS, "length": 1.0},
        "time": {"T": OPT_T, "N": OPT_N_STEPS},
        "params": {"epsilon": 0.5, "delta": 1.0, "beta1": 1.0,
                   "beta2": 1e-4},
        "init": {"rho0": 0.5, "mu0": 0.0},
        "control": {"u_max": 1.0, "u_init": 0.0},
        "targets": {"from_state": {"u": "u_target.csv"}},
        "optimizer": {"max_iters": 200, "stat_tol": 1e-9, "step0": 2e3},
    })
    out = os.path.join(workdir, "out_optimize")
    return [Command("optimize", ["optimize", "--config",
                                 os.path.join(workdir, "optimize.yaml"),
                                 "--out", out], out, check_optimize)]


# ------------------------------------------------------------- sensitivity

def _check_report(which, seed, thresholds=None):
    """Check a ``check_NAME.json`` report against the command's exit code.

    The report must exist, name the check and seed, and its verdict must
    agree with the exit code (0 for PASS, 1 for FAIL).  A FAIL verdict
    is a failed operation through its exit code; it is wrong output only
    when ``thresholds`` says so.
    """
    def check(code, out):
        report = _read_json(os.path.join(out, "check_%s.json" % which))
        if isinstance(report, Exception):
            return ["exit code %r, check_%s.json unreadable: %s"
                    % (code, which, report)]
        problems = []
        if report.get("name") != which or report.get("seed") != seed:
            problems.append("report name/seed %r/%r"
                            % (report.get("name"), report.get("seed")))
        verdict = bool(report.get("pass"))
        if code != (0 if verdict else 1):
            problems.append("exit code %r disagrees with verdict %r"
                            % (code, verdict))
        if thresholds is not None:
            problems.extend(thresholds(report.get("metrics", {})))
        return problems
    return check


def _discrete_gap_small(metrics):
    rel = metrics.get("rel_gap")
    if metrics.get("mode") != "discrete" or not (
            isinstance(rel, float) and rel <= 1e-8):
        return ["discrete rel_gap %r above 1e-8" % rel]
    return []


def sensitivity_2d(workdir, seed):
    """Discrete duality on 64x64 cells from a seeded non-uniform rho0.

    A uniform rho0 would keep the state uniform and make most shifts
    constant, a degenerate case for a transform-based solver, so rho0 is
    a smooth field in [0.3, 0.7].
    """
    rng = np.random.default_rng(seed)
    n = (64, 64)
    write_field_csv(os.path.join(workdir, "rho0.csv"), n,
                    smooth_field(rng, n, 0.3, 0.7))
    config = os.path.join(workdir, "sensitivity.yaml")
    write_yaml(config, {
        "domain": {"dim": 2, "n": list(n), "length": [1.0, 1.0]},
        "time": {"T": 1.0, "N": 64},
        "params": {"epsilon": 0.5, "delta": 1.0},
        "init": {"rho0": "rho0.csv", "mu0": 0.1},
        "solver": {"adjoint_mode": "discrete"},
    })
    out = os.path.join(workdir, "out_sensitivity")
    return [Command("duality", ["check", "duality", "--config", config,
                                "--seed", str(seed), "--out", out], out,
                    _check_report("duality", seed, _discrete_gap_small))]


# ------------------------------------------------------------------ verify

VERIFY_CHECKS = ("grad", "tangent", "duality", "stability", "oracle",
                 "bounds")


def verify_1d(workdir, seed):
    """Every check on the 1D desk config, plus the pde-mode duality.

    The checks draw their random controls and directions from ``seed``.
    """
    base = {
        "domain": {"dim": 1, "n": 64, "length": 1.0},
        "time": {"T": 1.0, "N": 128},
        "params": {"epsilon": 0.5, "delta": 1.0},
        "init": {"rho0": 0.4, "mu0": 0.2},
        "control": {"u_init": 0.1},
    }
    commands = []
    for mode, checks in (("discrete", VERIFY_CHECKS), ("pde", ("duality",))):
        config = os.path.join(workdir, "verify_%s.yaml" % mode)
        write_yaml(config, dict(base, solver={"adjoint_mode": mode}))
        for which in checks:
            label = which if mode == "discrete" else which + "_pde"
            out = os.path.join(workdir, "out_" + label)
            commands.append(Command(
                label, ["check", which, "--config", config,
                        "--seed", str(seed), "--out", out], out,
                _check_report(which, seed)))
    return commands


WORKLOADS = {
    "optimize_1d": optimize_1d,
    "sensitivity_2d": sensitivity_2d,
    "verify_1d": verify_1d,
}
