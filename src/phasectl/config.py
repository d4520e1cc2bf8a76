"""Run configuration: parsing, defaults, validation, problem assembly.

A run is described by one YAML file with nested sections.  Field-valued
entries accept a scalar (broadcast over the grid and, for space-time
data, over time levels), a path to a field CSV (replicated over time
levels where a trajectory is expected), or a path to a directory of
numbered snapshot CSVs holding a full trajectory.  Relative paths
resolve against the directory containing the config file.

Unknown sections or keys are rejected so typos fail loudly, and every
validation error names the offending key path and the violated
condition.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .errors import ConfigError, MissingKey, ValidationError
from .fields import as_field, as_trajectory, read_field_csv, read_snapshot_dir
from .forward import ProblemData, SolverConfig, solve_state
from .mesh import make_grid, make_time_grid
from .optimize import OptimizerConfig
from .potential import Potential
from .sensitivity import ADJOINT_MODES

# A field without a default is a mandatory key.
_MANDATORY = MISSING


@dataclass
class OutputConfig:
    directory: str = "out"
    snapshot_stride: int = 1
    seed: int = 0
    iter_snapshots: bool = False


def _defaults(cls, keys=None) -> dict:
    """Field defaults of cls by config key; keys maps key -> field name."""
    default = {f.name: f.default for f in fields(cls)}
    if keys is None:
        return default
    return {key: default[name] for key, name in keys.items()}


# Sections backed by a dataclass take its fields and defaults; params and
# targets take theirs from the ProblemData fields they fill.
_SCHEMA = {
    "domain": {"dim": _MANDATORY, "n": _MANDATORY, "length": _MANDATORY},
    "time": {"T": _MANDATORY, "N": _MANDATORY},
    "params": _defaults(ProblemData, {k: k for k in
                                      ("epsilon", "delta", "beta1", "beta2")}),
    "potential": _defaults(Potential),
    "init": {"rho0": 0.5, "mu0": 0.0},
    "control": {"u_max": 1.0, "u_init": 0.0},
    "targets": {**_defaults(ProblemData, {"rho_T": "rho_target",
                                          "mu_T": "mu_target"}),
                "from_state": None},
    "solver": {**_defaults(SolverConfig), "adjoint_mode": ADJOINT_MODES[0]},
    "optimizer": _defaults(OptimizerConfig),
    "output": _defaults(OutputConfig),
}


@dataclass
class RunConfig:
    """Validated configuration: the problem instance and how to run it."""

    problem: ProblemData
    u_init: np.ndarray
    from_state_control: np.ndarray
    solver: SolverConfig
    adjoint_mode: str
    optimizer: OptimizerConfig
    output: OutputConfig


def _merge_defaults(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ValidationError("top level must be a mapping of sections")
    merged = {}
    for section, keys in _SCHEMA.items():
        given = data.get(section, {})
        if given is None:
            given = {}
        if not isinstance(given, dict):
            raise ValidationError("%s: must be a mapping" % section)
        for key in given:
            if key not in keys:
                raise ValidationError("%s.%s: unknown key" % (section, key))
        merged[section] = {}
        for key, default in keys.items():
            if key in given:
                merged[section][key] = given[key]
            elif default is _MANDATORY:
                raise MissingKey("%s.%s: mandatory key missing" % (section, key))
            else:
                merged[section][key] = copy.deepcopy(default)
    for section in data:
        if section not in _SCHEMA:
            raise ValidationError("%s: unknown section" % section)
    return merged


def _require(cond: bool, path: str, condition: str, value) -> None:
    if not cond:
        raise ValidationError(
            "%s: requires %s, got %r" % (path, condition, value))


def _integer(value, path: str) -> int:
    """A whole number, or ValidationError naming the key.

    Booleans, strings and fractional numbers are refused rather than
    truncated; floats with an integral value are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise ValidationError("%s: requires an integer, got %r" % (path, value))
    return int(value)


def _number(value, path: str) -> float:
    """A finite real number, not a bool or string, or ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValidationError(
            "%s: requires a finite number, got %r" % (path, value))
    return float(value)


def _boolean(value, path: str) -> bool:
    """true or false, or ValidationError naming the key."""
    if not isinstance(value, bool):
        raise ValidationError(
            "%s: requires true or false, got %r" % (path, value))
    return value


_PARSERS = {"int": _integer, "float": _number, "bool": _boolean,
            "str": lambda value, path: str(value)}


def _typed(merged: dict, section: str, cls) -> dict:
    """The section's entries for the fields of cls, typed by their fields."""
    return {f.name: _PARSERS[f.type](merged[section][f.name],
                                     "%s.%s" % (section, f.name))
            for f in fields(cls)}


def _per_axis(value, path: str, parse):
    """A scalar, or a list parsed entry by entry."""
    if isinstance(value, list):
        return [parse(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    return parse(value, path)


def _load_field_value(value, grid, cfg_dir, path):
    """Scalar or CSV path to a single field."""
    if isinstance(value, str):
        full = os.path.join(cfg_dir, value)
        if os.path.isdir(full):
            raise ValidationError(
                "%s: requires a scalar or field CSV path, got directory %r"
                % (path, value))
        return read_field_csv(full, grid)
    return as_field(grid, _number(value, path))


def _load_spacetime_value(value, tg, grid, base, cfg_dir, path):
    """Scalar, field CSV (replicated in time) or snapshot directory."""
    if isinstance(value, str):
        full = os.path.join(cfg_dir, value)
        if os.path.isdir(full):
            return read_snapshot_dir(full, base, tg, grid)
        return as_trajectory(tg, grid, read_field_csv(full, grid))
    return as_trajectory(tg, grid, _number(value, path))


def parse_config(path: str) -> RunConfig:
    """Read, validate and materialize one YAML run configuration."""
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except yaml.YAMLError as exc:
        raise ConfigError("cannot parse config %s: %s" % (path, exc))
    if data is None:
        data = {}
    merged = _merge_defaults(data)
    cfg_dir = os.path.dirname(os.path.abspath(path))

    dom = merged["domain"]
    dim = _integer(dom["dim"], "domain.dim")
    n = _per_axis(dom["n"], "domain.n", _integer)
    length = _per_axis(dom["length"], "domain.length", _number)
    # out-of-scope dim surfaces as UnsupportedDimension from the grid
    grid = make_grid(dim, n, length)

    tim = merged["time"]
    T = _number(tim["T"], "time.T")
    _require(T > 0, "time.T", "T > 0", T)
    N = _integer(tim["N"], "time.N")
    _require(N >= 1, "time.N", "N >= 1", N)
    tgrid = make_time_grid(T, N)

    par = {key: _number(value, "params." + key)
           for key, value in merged["params"].items()}
    _require(par["epsilon"] > 0, "params.epsilon", "epsilon > 0", par["epsilon"])
    _require(par["delta"] > 0, "params.delta", "delta > 0", par["delta"])
    _require(par["beta1"] >= 0, "params.beta1", "beta1 >= 0", par["beta1"])
    _require(par["beta2"] >= 0, "params.beta2", "beta2 >= 0", par["beta2"])

    pot = _typed(merged, "potential", Potential)
    _require(pot["c_log"] > 0, "potential.c_log", "c_log > 0", pot["c_log"])
    _require(pot["c_quad"] >= 0, "potential.c_quad", "c_quad >= 0",
             pot["c_quad"])

    ini = merged["init"]
    rho0 = _load_field_value(ini["rho0"], grid, cfg_dir, "init.rho0")
    mu0 = _load_field_value(ini["mu0"], grid, cfg_dir, "init.mu0")
    _require(float(np.min(rho0)) > 0.0, "init.rho0", "inf rho0 > 0",
             float(np.min(rho0)))
    _require(float(np.max(rho0)) < 1.0, "init.rho0", "sup rho0 < 1",
             float(np.max(rho0)))
    _require(float(np.min(mu0)) >= 0.0, "init.mu0", "mu0 >= 0",
             float(np.min(mu0)))

    ctl = merged["control"]
    u_max = _load_spacetime_value(ctl["u_max"], tgrid, grid, "u", cfg_dir,
                                  "control.u_max")
    _require(float(np.min(u_max)) >= 0.0, "control.u_max", "u_max >= 0",
             float(np.min(u_max)))
    u_init = _load_spacetime_value(ctl["u_init"], tgrid, grid, "u", cfg_dir,
                                   "control.u_init")

    tar = merged["targets"]
    from_state_control = None
    if tar["from_state"] is not None:
        fs = tar["from_state"]
        if not isinstance(fs, dict) or "u" not in fs:
            raise ValidationError(
                "targets.from_state: requires a mapping with key u, got %r"
                % (fs,))
        for key in fs:
            if key != "u":
                raise ValidationError(
                    "targets.from_state.%s: unknown key" % key)
        from_state_control = _load_spacetime_value(
            fs["u"], tgrid, grid, "u", cfg_dir, "targets.from_state.u")
    rho_target = _load_field_value(tar["rho_T"], grid, cfg_dir,
                                   "targets.rho_T")
    mu_target = _load_spacetime_value(tar["mu_T"], tgrid, grid, "mu", cfg_dir,
                                      "targets.mu_T")

    sol = _typed(merged, "solver", SolverConfig)
    _require(sol["newton_tol"] > 0, "solver.newton_tol", "newton_tol > 0",
             sol["newton_tol"])
    _require(sol["newton_max"] >= 1, "solver.newton_max", "newton_max >= 1",
             sol["newton_max"])
    _require(0.0 < sol["boundary_margin"] < 1.0, "solver.boundary_margin",
             "0 < boundary_margin < 1", sol["boundary_margin"])
    _require(sol["linear_tol"] > 0, "solver.linear_tol", "linear_tol > 0",
             sol["linear_tol"])
    _require(sol["bound_tol"] >= 0, "solver.bound_tol", "bound_tol >= 0",
             sol["bound_tol"])
    adjoint_mode = merged["solver"]["adjoint_mode"]
    _require(adjoint_mode in ADJOINT_MODES, "solver.adjoint_mode",
             "adjoint_mode in {discrete, pde}", adjoint_mode)

    opt = _typed(merged, "optimizer", OptimizerConfig)
    _require(opt["max_iters"] >= 0, "optimizer.max_iters", "max_iters >= 0",
             opt["max_iters"])
    _require(0.0 < opt["armijo_c"] < 1.0, "optimizer.armijo_c",
             "0 < armijo_c < 1", opt["armijo_c"])
    _require(0.0 < opt["armijo_shrink"] < 1.0, "optimizer.armijo_shrink",
             "0 < armijo_shrink < 1", opt["armijo_shrink"])
    _require(opt["step0"] > 0, "optimizer.step0", "step0 > 0", opt["step0"])
    _require(opt["stat_tol"] >= 0, "optimizer.stat_tol", "stat_tol >= 0",
             opt["stat_tol"])
    _require(opt["min_step"] > 0, "optimizer.min_step", "min_step > 0",
             opt["min_step"])

    out = _typed(merged, "output", OutputConfig)
    _require(out["snapshot_stride"] >= 1, "output.snapshot_stride",
             "snapshot_stride >= 1", out["snapshot_stride"])
    _require(out["seed"] >= 0, "output.seed", "seed >= 0", out["seed"])

    problem = ProblemData(
        grid=grid, tgrid=tgrid, potential=Potential(**pot), rho0=rho0,
        mu0=mu0, u_max=u_max, rho_target=rho_target, mu_target=mu_target,
        **par)
    return RunConfig(
        problem=problem, u_init=u_init, from_state_control=from_state_control,
        solver=SolverConfig(**sol), adjoint_mode=adjoint_mode,
        optimizer=OptimizerConfig(**opt), output=OutputConfig(**out))


def build_problem(rc: RunConfig) -> ProblemData:
    """The problem instance, with targets generated if requested.

    With targets.from_state set, the given control is forward-solved
    and its terminal order parameter and full potential trajectory
    become the targets, so the optimum is known reachable.
    """
    if rc.from_state_control is None:
        return rc.problem
    state = solve_state(rc.problem, rc.from_state_control, rc.solver)
    return replace(rc.problem, rho_target=state.rho[-1], mu_target=state.mu)
