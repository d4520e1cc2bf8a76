"""Run configuration: parsing, defaults, validation, problem assembly.

A run is described by one YAML file with nested sections.  Field-valued
entries accept a scalar (broadcast over the grid and, for space-time
data, over time levels), a path to a field CSV (replicated over time
levels where a trajectory is expected), or a path to a directory of
numbered snapshot CSVs holding a full trajectory.  Relative paths
resolve against the directory containing the config file.  The
problem instance parse_config returns is the one every command runs;
with targets.from_state, its targets are already those of the marched
control.

Unknown sections or keys are rejected so typos fail loudly.  This
module only types the values; each object checks the conditions on its
own fields, and every validation error names the offending key path and
the violated condition.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .errors import (ConfigError, MissingKey, ValidationError, renamed_keys,
                     require)
from .fields import read_field_csv, read_snapshot_dir
from .forward import ProblemData, SolverConfig, solve_state
from .mesh import Grid, TimeGrid, as_trajectory
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


def _defaults(cls, *keys) -> dict:
    """Field defaults of cls by config key: all fields, or the keys named."""
    default = {f.name: f.default for f in fields(cls) if f.init}
    if not keys:
        return default
    return {key: default[_TARGET_FIELDS.get(key, key)] for key in keys}


# Sections backed by a dataclass take its fields and defaults; params,
# init, control and targets take theirs from the ProblemData fields they
# fill.
_TARGET_FIELDS = {"rho_T": "rho_target", "mu_T": "mu_target"}
_SCHEMA = {
    "domain": _defaults(Grid),
    "time": _defaults(TimeGrid),
    "params": _defaults(ProblemData, "epsilon", "delta", "beta1", "beta2"),
    "potential": _defaults(Potential),
    "init": _defaults(ProblemData, "rho0", "mu0"),
    "control": {**_defaults(ProblemData, "u_max"), "u_init": 0.0},
    "targets": {**_defaults(ProblemData, *_TARGET_FIELDS), "from_state": None},
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
                merged[section][key] = default
    for section in data:
        if section not in _SCHEMA:
            raise ValidationError("%s: unknown section" % section)
    return merged


def _integer(value, path: str) -> int:
    """A whole number of magnitude below 2**63, or ValidationError naming
    the key.

    Booleans, strings and fractional numbers are refused rather than
    truncated; floats with an integral value are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise ValidationError("%s: requires an integer, got %r" % (path, value))
    require(abs(value) < 2**63, path, "an integer with |value| < 2**63", value)
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


def _load(value, path, cfg_dir, grid, tgrid, base=None):
    """A number, a field CSV or, for a trajectory key (one with the
    snapshot base name), a directory of snapshot CSVs."""
    if not isinstance(value, str):
        return _number(value, path)
    full = os.path.join(cfg_dir, value)
    if not os.path.isdir(full):
        return read_field_csv(full, grid)
    if base is None:
        raise ValidationError(
            "%s: requires a scalar or field CSV path, got directory %r"
            % (path, value))
    return read_snapshot_dir(full, base, tgrid, grid)


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

    dom = merged["domain"]
    grid = Grid(_integer(dom["dim"], "domain.dim"),
                _per_axis(dom["n"], "domain.n", _integer),
                _per_axis(dom["length"], "domain.length", _number))
    tgrid = TimeGrid(**_typed(merged, "time", TimeGrid))

    def load(name, base=None):
        section, key = _PATHS[name].split(".")
        return _load(merged[section][key], _PATHS[name], cfg_dir, grid,
                     tgrid, base)

    problem = ProblemData(
        grid=grid, tgrid=tgrid,
        potential=Potential(**_typed(merged, "potential", Potential)),
        **{key: load(key, base)
           for key, base in ProblemData.ARRAY_FIELDS.items()},
        **{key: _number(value, _PATHS[key])
           for key, value in merged["params"].items()})
    u_init = as_trajectory(tgrid, grid, load("u_init", "u"))
    solver = SolverConfig(**_typed(merged, "solver", SolverConfig))

    # targets.from_state: the state the given control reaches sets both
    # targets, so the optimum is known reachable.
    fs = merged["targets"]["from_state"]
    if fs is not None:
        require(isinstance(fs, dict) and list(fs) == ["u"], "from_state",
                "a mapping with the one key u", fs)
        for key, name in _TARGET_FIELDS.items():
            require(key not in data["targets"], name,
                    "%s unset with from_state" % key, data["targets"].get(key))
        u = _load(fs["u"], _PATHS["from_state"] + ".u", cfg_dir, grid, tgrid,
                  "u")
        state = solve_state(problem, u, solver)
        problem = replace(problem, rho_target=state.rho[-1],
                          mu_target=state.mu)

    return RunConfig(
        problem=problem, u_init=u_init, solver=solver,
        adjoint_mode=check_adjoint_mode(merged["solver"]["adjoint_mode"]),
        optimizer=OptimizerConfig(**_typed(merged, "optimizer",
                                           OptimizerConfig)),
        output=OutputConfig(**_typed(merged, "output", OutputConfig)))


def build_problem(rc: RunConfig) -> ProblemData:
    """The problem instance every command runs."""
    return rc.problem
