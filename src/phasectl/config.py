"""Run configuration: parsing, defaults, validation, problem assembly.

A run is described by one YAML file with nested sections.  Field-valued
entries accept a scalar (broadcast over the grid and, for space-time
data, over time levels), a path to a field CSV (replicated over time
levels where a trajectory is expected), or a path to a directory of
numbered snapshot CSVs holding a full trajectory.  Relative paths
resolve against the directory containing the config file.

Unknown sections or keys are rejected so typos fail loudly.  This
module only types the values; each object checks the conditions on its
own fields, and every validation error names the offending key path and
the violated condition.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .errors import (ConfigError, MissingKey, ValidationError, renamed_keys,
                     require)
from .fields import as_field, as_trajectory, read_field_csv, read_snapshot_dir
from .forward import ProblemData, SolverConfig, solve_state
from .mesh import Grid, TimeGrid, make_grid, make_time_grid
from .optimize import OptimizerConfig
from .potential import Potential
from .sensitivity import ADJOINT_MODES, check_adjoint_mode


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    snapshot_stride: int = 1
    seed: int = 0
    iter_snapshots: bool = False

    def __post_init__(self):
        require(self.snapshot_stride >= 1, "snapshot_stride",
                "snapshot_stride >= 1", self.snapshot_stride)
        require(self.seed >= 0, "seed", "seed >= 0", self.seed)


def _defaults(cls, keys=None) -> dict:
    """Field defaults of cls by config key; keys maps key -> field name."""
    default = {f.name: f.default for f in fields(cls) if f.init}
    if keys is None:
        return default
    return {key: default[name] for key, name in keys.items()}


# Sections backed by a dataclass take its fields and defaults; params and
# targets take theirs from the ProblemData fields they fill.
_TARGET_FIELDS = {"rho_T": "rho_target", "mu_T": "mu_target"}
_SCHEMA = {
    "domain": _defaults(Grid),
    "time": _defaults(TimeGrid),
    "params": _defaults(ProblemData, {k: k for k in
                                      ("epsilon", "delta", "beta1", "beta2")}),
    "potential": _defaults(Potential),
    "init": {"rho0": 0.5, "mu0": 0.0},
    "control": {"u_max": 1.0, "u_init": 0.0},
    "targets": {**_defaults(ProblemData, _TARGET_FIELDS),
                "from_state": None},
    "solver": {**_defaults(SolverConfig), "adjoint_mode": ADJOINT_MODES[0]},
    "optimizer": _defaults(OptimizerConfig),
    "output": _defaults(OutputConfig),
}

# The key path of each field the objects name in their errors.
_PATHS = {_TARGET_FIELDS.get(key, key): "%s.%s" % (section, key)
          for section, keys in _SCHEMA.items() for key in keys}


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
            elif default is MISSING:  # a field without a default
                raise MissingKey("%s.%s: mandatory key missing" % (section, key))
            else:
                merged[section][key] = copy.deepcopy(default)
    for section in data:
        if section not in _SCHEMA:
            raise ValidationError("%s: unknown section" % section)
    return merged


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


@renamed_keys(_PATHS)
def parse_config(path: str) -> RunConfig:
    """Read, type and materialize one YAML run configuration."""
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

    dom, tim = merged["domain"], merged["time"]
    grid = make_grid(_integer(dom["dim"], "domain.dim"),
                     _per_axis(dom["n"], "domain.n", _integer),
                     _per_axis(dom["length"], "domain.length", _number))
    tgrid = make_time_grid(_number(tim["T"], "time.T"),
                           _integer(tim["N"], "time.N"))

    ini, ctl, tar = merged["init"], merged["control"], merged["targets"]
    problem = ProblemData(
        grid=grid, tgrid=tgrid,
        potential=Potential(**_typed(merged, "potential", Potential)),
        rho0=_load_field_value(ini["rho0"], grid, cfg_dir, "init.rho0"),
        mu0=_load_field_value(ini["mu0"], grid, cfg_dir, "init.mu0"),
        u_max=_load_spacetime_value(ctl["u_max"], tgrid, grid, "u", cfg_dir,
                                    "control.u_max"),
        rho_target=_load_field_value(tar["rho_T"], grid, cfg_dir,
                                     "targets.rho_T"),
        mu_target=_load_spacetime_value(tar["mu_T"], tgrid, grid, "mu",
                                        cfg_dir, "targets.mu_T"),
        **{key: _number(value, "params." + key)
           for key, value in merged["params"].items()})
    u_init = _load_spacetime_value(ctl["u_init"], tgrid, grid, "u", cfg_dir,
                                   "control.u_init")

    fs = tar["from_state"]
    if fs is not None:
        if not isinstance(fs, dict) or list(fs) != ["u"]:
            raise ValidationError(
                "targets.from_state: requires a mapping with the one key u, "
                "got %r" % (fs,))
        fs = _load_spacetime_value(fs["u"], tgrid, grid, "u", cfg_dir,
                                   "targets.from_state.u")

    return RunConfig(
        problem=problem, u_init=u_init, from_state_control=fs,
        solver=SolverConfig(**_typed(merged, "solver", SolverConfig)),
        adjoint_mode=check_adjoint_mode(merged["solver"]["adjoint_mode"]),
        optimizer=OptimizerConfig(**_typed(merged, "optimizer",
                                           OptimizerConfig)),
        output=OutputConfig(**_typed(merged, "output", OutputConfig)))


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
