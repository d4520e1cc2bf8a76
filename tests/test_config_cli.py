import ast
import json
import os
import re
from dataclasses import MISSING

import numpy as np
import pytest
import yaml

import phasectl as pc
from phasectl import checks, cli, config, fields, forward, mesh, sensitivity
from phasectl.errors import (MissingKey, UnsupportedDimension,
                             ValidationError)
from conftest import build_problem, spoil

MINIMAL = """
domain: {dim: 1, n: 16, length: 1.0}
time: {T: 0.1, N: 8}
params: {epsilon: 0.5, delta: 1.0}
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    rc = config.parse_config(write(tmp_path, MINIMAL))
    prob = rc.problem
    assert prob.potential.c_log == 0.5 and prob.potential.c_quad == 2.0
    assert prob.solver.newton_tol == 1e-10
    assert rc.adjoint_mode == "discrete"
    assert np.all(rc.u_init == 0.0)
    assert np.all(prob.u_max == 1.0)
    assert np.all(prob.rho0 == 0.5) and np.all(prob.mu0 == 0.0)
    # init and control.u_max take the ProblemData defaults.
    default = pc.ProblemData(grid=prob.grid, tgrid=prob.tgrid, epsilon=0.5,
                             delta=1.0)
    assert prob.potential == default.potential
    for key in ("rho0", "mu0", "u_max"):
        assert np.array_equal(getattr(prob, key), getattr(default, key)), key
    assert prob.beta1 == 1.0 and prob.beta2 == 1e-4
    assert np.all(prob.rho_target == 0.5) and np.all(prob.mu_target == 0.0)
    assert config.build_problem(rc) is prob


def test_scalar_trajectories_are_held_once(tmp_path):
    """Scalar control.u_init, control.u_max and targets.mu_T are each
    held as a read-only broadcast of one field, as ProblemData holds
    them; a snapshot directory is held as a full stack."""
    rc = config.parse_config(write(tmp_path, MINIMAL))
    for a in (rc.u_init, rc.problem.u_max, rc.problem.mu_target):
        assert a.shape == (9, 16) and mesh.constant_in_time(a)
        assert not a.flags.writeable
    snaps = tmp_path / "u0"
    fields.write_snapshots(str(snaps), "u", rc.problem.tgrid, rc.problem.grid,
                           np.linspace(0.0, 0.8, 9)[:, None] * np.ones(16))
    rc = config.parse_config(write(tmp_path, MINIMAL
                                   + "control: {u_init: u0}\n"))
    assert not mesh.constant_in_time(rc.u_init)
    assert rc.u_init.flags.writeable


def test_rho0_gate_quotes_condition(tmp_path):
    path = write(tmp_path, MINIMAL + "init: {rho0: 0.0}\n")
    with pytest.raises(ValidationError, match="inf rho0 > 0"):
        config.parse_config(path)


def test_dim_three_rejected(tmp_path):
    bad = MINIMAL.replace("{dim: 1, n: 16, length: 1.0}",
                          "{dim: 3, n: [2, 2, 2], length: [1, 1, 1]}")
    with pytest.raises(UnsupportedDimension):
        config.parse_config(write(tmp_path, bad))


def test_dim_beyond_index_range_rejected(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("dim: 1", "dim: 1.0e+300"))
    with pytest.raises(ValidationError):
        config.parse_config(path)
    assert cli.main(["forward", "--config", path]) == 2
    assert capsys.readouterr().err == "error: domain.dim: requires an " \
        "integer with |value| < 2**63, got 1e+300\n"


@pytest.mark.parametrize("cls, field, value, condition", [
    (pc.SolverConfig, "newton_tol", 0.0, "newton_tol > 0"),
    (pc.SolverConfig, "newton_max", 0, "newton_max >= 1"),
    (pc.OptimizerConfig, "max_iters", -1, "max_iters >= 0"),
    (pc.OptimizerConfig, "step0", 0.0, "step0 > 0"),
    (pc.OptimizerConfig, "stat_tol", -1.0, "stat_tol >= 0"),
    (pc.OptimizerConfig, "min_step", 0.0, "min_step > 0"),
    (config.OutputConfig, "snapshot_stride", 0, "snapshot_stride >= 1"),
    (config.OutputConfig, "seed", -1, "seed >= 0"),
    (build_problem, "mu0", -1.0, "mu0 >= 0"),
])
def test_objects_check_their_fields(cls, field, value, condition):
    """The library constructors refuse what the config refuses."""
    with pytest.raises(ValidationError) as info:
        cls(**{field: value})
    assert str(info.value) == "%s: requires %s, got %r" % (field, condition,
                                                          value)
    assert info.value.key == field


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown section"):
        config.parse_config(write(tmp_path, MINIMAL + "params2: {x: 1}\n"))
    txt = MINIMAL.replace("{epsilon: 0.5, delta: 1.0}",
                          "{epsilon: 0.5, delta: 1.0, gamma: 2.0}")
    with pytest.raises(ValidationError, match="params.gamma"):
        config.parse_config(write(tmp_path, txt))


@pytest.mark.parametrize("section, key, value", [
    ("solver", "boundary_margin", 0.1),
    ("solver", "linear_tol", 1e-8),
    ("solver", "bound_tol", 1e-10),
    # Read as a slack, this value put every cell at both bounds, so
    # optimize ended Stationary after 0 iterations with kkt 0.
    ("solver", "bound_tol", 1e300),
    ("optimizer", "armijo_c", 1e-4),
    ("optimizer", "armijo_shrink", 0.5),
])
def test_fixed_constants_are_unknown_keys(tmp_path, capsys, section, key,
                                          value):
    """The Newton margin, the linear and bound slacks and the Armijo
    factors are constants; a config that sets one is refused."""
    data = yaml.safe_load(MINIMAL)
    data.update(time={"T": 0.05, "N": 16}, targets={"from_state": {"u": 0.5}},
                solver={}, optimizer={"step0": 2000.0})
    data[section][key] = value
    out = tmp_path / "out"
    assert run_cli(["optimize", "--config",
                    write(tmp_path, yaml.safe_dump(data)),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s.%s: unknown key\n" % (
        section, key)
    assert not out.exists()


def test_missing_mandatory_names_path(tmp_path):
    txt = MINIMAL.replace("time: {T: 0.1, N: 8}", "time: {T: 0.1}")
    with pytest.raises(MissingKey, match="time.N"):
        config.parse_config(write(tmp_path, txt))


def test_nonpositive_epsilon_rejected(tmp_path):
    txt = MINIMAL.replace("epsilon: 0.5", "epsilon: 0.0")
    with pytest.raises(ValidationError, match="epsilon > 0"):
        config.parse_config(write(tmp_path, txt))


@pytest.mark.parametrize("text, key", [
    (MINIMAL.replace("N: 8", "N: 1.5"), "time.N"),
    (MINIMAL.replace("N: 8", "N: abc"), "time.N"),
    (MINIMAL.replace("N: 8", "N: [3]"), "time.N"),
    (MINIMAL.replace("N: 8", "N: true"), "time.N"),
    (MINIMAL.replace("dim: 1", "dim: 1.5"), "domain.dim"),
    (MINIMAL.replace("n: 16", "n: abc"), "domain.n"),
    (MINIMAL.replace("dim: 1, n: 16, length: 1.0",
                     "dim: 2, n: [8, 4.5], length: [1.0, 1.0]"), "domain.n[1]"),
    (MINIMAL + "solver: {newton_max: 2.5}\n", "solver.newton_max"),
    (MINIMAL + "optimizer: {max_iters: '1'}\n", "optimizer.max_iters"),
], ids=["N-fraction", "N-string", "N-list", "N-bool", "dim-fraction",
        "n-string", "n-entry", "newton_max", "max_iters"])
def test_integer_keys_strict(tmp_path, capsys, text, key):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError, match=r"^%s: requires an integer"
                       % key.replace("[", r"\[")):
        config.parse_config(path)
    assert cli.main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: %s: requires an integer" % key in capsys.readouterr().err


# Every integer key, with a slot for its value, and the integral values
# whose exact integer would print hundreds of digits.
_INTEGER_KEYS = {
    "domain.dim": MINIMAL.replace("dim: 1", "dim: %s"),
    "domain.n": MINIMAL.replace("n: 16", "n: %s"),
    "time.N": MINIMAL.replace("N: 8", "N: %s"),
    "solver.newton_max": MINIMAL + "solver: {newton_max: %s}\n",
    "optimizer.max_iters": MINIMAL + "optimizer: {max_iters: %s}\n",
    "output.snapshot_stride": MINIMAL + "output: {snapshot_stride: %s}\n",
    "output.seed": MINIMAL + "output: {seed: %s}\n",
}
_HUGE = ("1.0e+300", "-1.0e+300")


@pytest.mark.parametrize("text, key, condition", [
    (MINIMAL.replace("delta: 1.0", "delta: '1.0'"), "params.delta",
     "a finite number"),
    (MINIMAL.replace("epsilon: 0.5", "epsilon: .nan"), "params.epsilon",
     "a finite number"),
    (MINIMAL.replace("length: 1.0", "length: abc"), "domain.length",
     "a finite number"),
    (MINIMAL.replace("dim: 1, n: 16, length: 1.0",
                     "dim: 2, n: [8, 4], length: [1.0, abc]"),
     "domain.length[1]", "a finite number"),
    (MINIMAL.replace("T: 0.1", "T: true"), "time.T", "a finite number"),
    (MINIMAL + "potential: {c_log: [0.5]}\n", "potential.c_log",
     "a finite number"),
    (MINIMAL + "solver: {newton_tol: '1e-10'}\n", "solver.newton_tol",
     "a finite number"),
    (MINIMAL + "optimizer: {step0: .inf}\n", "optimizer.step0",
     "a finite number"),
    (MINIMAL + "output: {iter_snapshots: 'false'}\n", "output.iter_snapshots",
     "true or false"),
    (MINIMAL + "output: {iter_snapshots: 1}\n", "output.iter_snapshots",
     "true or false"),
    (MINIMAL + "control: {u_max: true}\n", "control.u_max",
     "a finite number"),
    (MINIMAL + "control: {u_init: true}\n", "control.u_init",
     "a finite number"),
    (MINIMAL + "init: {rho0: true}\n", "init.rho0", "a finite number"),
    (MINIMAL + "init: {mu0: .nan}\n", "init.mu0", "a finite number"),
    (MINIMAL + "targets: {mu_T: .inf}\n", "targets.mu_T", "a finite number"),
    (MINIMAL + "targets: {from_state: {u: false}}\n", "targets.from_state.u",
     "a finite number"),
    (MINIMAL + "control: {u_init: [0.1]}\n", "control.u_init",
     "a finite number"),
    (MINIMAL + "output: {seed: -3}\n", "output.seed", "seed >= 0"),
    (MINIMAL.replace("n: 16", "n: 0"), "domain.n", "n >= 1"),
    (MINIMAL.replace("length: 1.0", "length: -1.0"), "domain.length",
     "1e-100 <= length <= 1e100"),
    (MINIMAL.replace("n: 16", "n: [16, 16]"), "domain.n",
     "one entry per axis"),
    (MINIMAL.replace("n: 16", "n: 4.0e+18"), "domain.n", "at most"),
    (MINIMAL.replace("N: 8", "N: 4.0e+18"), "time.N", "N < "),
    (MINIMAL + "init: {mu0: -1}\n", "init.mu0", "mu0 >= 0"),
    (MINIMAL + "solver: {adjoint_mode: abc}\n", "solver.adjoint_mode",
     "adjoint_mode in {discrete, pde}"),
    (MINIMAL.replace("dim: 1", "dim: 3"), "domain.dim", "dim in {1, 2}"),
    (MINIMAL + "targets: {rho_T: 0.3, from_state: {u: 0.2}}\n",
     "targets.rho_T", "rho_T unset with from_state"),
    (MINIMAL + "targets: {mu_T: 0.7, from_state: {u: 0.2}}\n",
     "targets.mu_T", "mu_T unset with from_state"),
] + [(text % value, key, "an integer with |value| < 2**63")
     for key, text in _INTEGER_KEYS.items() for value in _HUGE],
    ids=["delta-string", "epsilon-nan", "length-string", "length-entry",
         "T-bool", "c_log-list", "newton_tol-string", "step0-inf",
         "iter_snapshots-string", "iter_snapshots-int", "u_max-bool",
         "u_init-bool", "rho0-bool", "mu0-nan", "mu_T-inf", "from_state-bool",
         "u_init-list", "seed-negative", "n-zero", "length-negative",
         "n-entries", "n-huge", "N-huge", "mu0-negative", "adjoint_mode",
         "dim-three", "rho_T-from_state", "mu_T-from_state"]
    + ["%s%s" % (key, value) for key in _INTEGER_KEYS for value in _HUGE])
def test_float_and_boolean_keys_strict(tmp_path, capsys, text, key, condition):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError,
                       match="^" + re.escape("%s: requires %s"
                                             % (key, condition))):
        config.parse_config(path)
    assert cli.main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: %s: requires %s" % (key, condition) in err
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize("key", ["rho0", "u_init"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_nonfinite_field_csv_rejected(tmp_path, capsys, key, bad):
    grid = pc.Grid(1, 16, 1.0)
    values = np.full(16, 0.4)
    values[5] = bad
    csv = str(tmp_path / "field.csv")
    fields.write_field_csv(csv, grid, values)
    section = "init" if key == "rho0" else "control"
    path = write(tmp_path, MINIMAL + "%s: {%s: field.csv}\n" % (section, key))
    with pytest.raises(ValidationError,
                       match=r"field\.csv: requires finite values, got .* "
                             r"on line 7$"):
        config.parse_config(path)
    assert cli.main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "field.csv: requires finite values" in capsys.readouterr().err


def test_unreadable_field_csv_exits_two(tmp_path, capsys):
    path = write(tmp_path, MINIMAL + "init: {rho0: missing.csv}\n")
    assert cli.main(["forward", "--config", path]) == 2
    assert "cannot read field CSV" in capsys.readouterr().err
    (tmp_path / "bad.csv").write_text("x,value\n0.5,abc\n")
    path = write(tmp_path, MINIMAL + "init: {rho0: bad.csv}\n")
    assert cli.main(["forward", "--config", path]) == 2
    assert "cannot read field CSV" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, error", [
    ("x,value\n", "0 rows for a grid of 4 cells"),
    ("", "header '' does not match grid (expected 'x,value')")],
    ids=["header-only", "empty"])
def test_empty_field_csv_exits_two_without_warning(tmp_path, capsys, text,
                                                   error):
    """A field CSV without data rows is refused with its typed error and
    exit code 2, and no warning escapes the reader."""
    csv = tmp_path / "field.csv"
    csv.write_text(text)
    path = write(tmp_path, MINIMAL.replace("n: 16", "n: 4")
                 + "init: {rho0: field.csv}\n")
    assert cli.main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (csv, error)


def test_integral_float_accepted(tmp_path):
    rc = config.parse_config(write(tmp_path, MINIMAL.replace("N: 8", "N: 8.0")))
    assert rc.problem.tgrid.N == 8 and isinstance(rc.problem.tgrid.N, int)


def test_field_csv_loading(tmp_path):
    grid = pc.Grid(1, 16, 1.0)
    rho = 0.3 + 0.4 * np.random.default_rng(0).random(16)
    fields.write_field_csv(str(tmp_path / "rho0.csv"), grid, rho)
    rc = config.parse_config(write(tmp_path, MINIMAL + "init: {rho0: rho0.csv}\n"))
    assert np.array_equal(rc.problem.rho0, rho)


def test_from_state_targets(tmp_path):
    path = write(tmp_path, MINIMAL + "targets: {from_state: {u: 0.3}}\n")
    rc = config.parse_config(path)
    prob = rc.problem
    assert config.build_problem(rc) is prob
    st = pc.solve_state(prob, 0.3)
    assert np.array_equal(prob.rho_target, st.rho[prob.tgrid.N])
    assert np.array_equal(prob.mu_target, st.mu)


def run_cli(args):
    return cli.main(list(args))


def test_cli_forward_stationary(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_cli(["forward", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    rho = [n for n in names if n.startswith("rho_")]
    mu = [n for n in names if n.startswith("mu_")]
    assert len(rho) == 9 and len(mu) == 9
    assert not [n for n in names if n.endswith(".tmp")]
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert min(diag["min_coefficient"]) > 0.0 and not diag["bound_violations"]
    assert "config_hash" in diag and diag["max_mu_residual"] <= 1e-10
    assert "forward:" in capsys.readouterr().out


def test_cli_snapshot_stride_override(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "strided")
    assert run_cli(["forward", "--config", cfg, "--out", out,
                    "--snapshots", "4"]) == 0
    rho = sorted(n for n in os.listdir(out) if n.startswith("rho_"))
    assert rho == ["rho_0000.csv", "rho_0004.csv", "rho_0008.csv"]


def test_cli_optimize_manufactured(tmp_path, capsys):
    text = MINIMAL + (
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 3, step0: 100.0}\n")
    cfg = write(tmp_path, text)
    out = str(tmp_path / "opt")
    assert run_cli(["optimize", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "optimize_summary.json")))
    J = summary["J_history"]
    assert all(b <= a for a, b in zip(J, J[1:]))
    assert summary["termination"] in ("Stationary", "MaxIters", "Stalled")
    assert summary["rejected_trials"] == 0
    assert os.path.exists(os.path.join(out, "u_0000.csv"))


def test_cli_optimize_refused_summary_writes_no_csv(tmp_path, capsys,
                                                    monkeypatch):
    """The summary is checked before any snapshot is written, so a run
    whose summary JSON cannot hold a value leaves no files."""
    def spoiled(*args, **kwargs):
        result = pc.projected_gradient_descent(*args, **kwargs)
        result.kkt_history[-1] = float("nan")
        return result

    monkeypatch.setattr(cli, "projected_gradient_descent", spoiled)
    text = MINIMAL + (
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 3, step0: 100.0}\n")
    out = tmp_path / "opt"
    assert run_cli(["optimize", "--config", write(tmp_path, text),
                    "--out", str(out)]) == 2
    assert re.search(r"optimize_summary\.json: kkt_history\[\d+\] is nan",
                     capsys.readouterr().err)
    assert not out.exists()


def test_cli_optimize_gradient_ignores_adjoint_mode(tmp_path):
    """optimize prices its steps with the discrete adjoint whatever
    solver.adjoint_mode says."""
    text = MINIMAL + (
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 3, step0: 100.0}\n")
    histories = []
    for mode in ("discrete", "pde"):
        cfg = write(tmp_path, text + "solver: {adjoint_mode: %s}\n" % mode)
        out = tmp_path / mode
        assert run_cli(["optimize", "--config", cfg, "--out", str(out)]) == 0
        summary = json.load(open(out / "optimize_summary.json"))
        histories.append(summary["J_history"])
    assert len(histories[0]) > 2
    assert histories[0] == histories[1]


def test_cli_optimize_iter_snapshots_read_back(tmp_path):
    """Each iterate lands in u_iter_<k>/, which control.u_init reads."""
    text = MINIMAL + (
        "control: {u_init: 0.2}\n"
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 2, step0: 100.0}\n"
        "output: {iter_snapshots: true}\n")
    out = tmp_path / "iters"
    assert run_cli(["optimize", "--config", write(tmp_path, text),
                    "--out", str(out)]) == 0
    summary = json.load(open(out / "optimize_summary.json"))
    iters = sorted(n for n in os.listdir(out) if n.startswith("u_iter_"))
    assert iters == ["u_iter_%04d" % k
                     for k in range(summary["iterations"] + 1)]
    rc = config.parse_config(write(
        tmp_path, MINIMAL + "control: {u_init: iters/u_iter_0000}\n",
        "again.yaml"))
    np.testing.assert_array_equal(rc.u_init, 0.2)
    last = config.parse_config(write(
        tmp_path, MINIMAL + "control: {u_init: iters/%s}\n" % iters[-1],
        "last.yaml"))
    final = config.parse_config(write(
        tmp_path, MINIMAL + "control: {u_init: iters}\n", "final.yaml"))
    np.testing.assert_array_equal(last.u_init, final.u_init)


def test_cli_optimize_beta2_zero_converges_uncapped(tmp_path, capsys):
    text = MINIMAL.replace(
        "params: {epsilon: 0.5, delta: 1.0}",
        "params: {epsilon: 0.5, delta: 1.0, beta2: 0.0}") + (
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 60, step0: 50.0, stat_tol: 1.0e-14}\n")
    cfg = write(tmp_path, text)
    out = str(tmp_path / "bb")
    assert run_cli(["optimize", "--config", cfg, "--out", out]) == 0
    assert "beta2" not in capsys.readouterr().err  # no iteration cap
    summary = json.load(open(os.path.join(out, "optimize_summary.json")))
    assert summary["final_kkt"] <= 1e-9


def test_cli_check_grad_passes(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "chk")
    assert run_cli(["check", "grad", "--config", cfg, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "check_grad.json")))
    assert rep["pass"] and 0.8 <= rep["metrics"]["slope"] <= 1.2
    assert "check grad: PASS" in capsys.readouterr().out


def test_cli_check_bounds_and_seed_override(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "chk2")
    assert run_cli(["check", "bounds", "--config", cfg, "--out", out,
                    "--seed", "5"]) == 0
    rep = json.load(open(os.path.join(out, "check_bounds.json")))
    assert rep["seed"] == 5
    # A negative seed is a usage error, not a failing check.
    assert run_cli(["check", "grad", "--config", cfg, "--out", out,
                    "--seed", "-1"]) == 2
    assert "error: --seed: requires seed >= 0, got -1" \
        in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "check_grad.json"))


def test_cli_snapshot_stride_override_rejected(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "none"
    assert run_cli(["forward", "--config", cfg, "--out", str(out),
                    "--snapshots", "0"]) == 2
    assert "error: --snapshots: requires snapshot_stride >= 1, got 0" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_check_oracle_failure_exits_one(tmp_path, capsys):
    text = """
domain: {dim: 1, n: 16, length: 1.0}
time: {T: 1.0, N: 4}
params: {epsilon: 0.5, delta: 0.5}
init: {rho0: 0.4, mu0: 0.2}
control: {u_init: 0.1}
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "fail")
    assert run_cli(["check", "oracle", "--config", cfg, "--out", out]) == 1
    assert "check oracle: FAIL" in capsys.readouterr().out


def test_cli_check_oracle_integrator_failure_exits_two(tmp_path, capsys,
                                                       monkeypatch):
    """An integrator that gives up is a typed error, not a FAIL verdict:
    here the step budget runs out at the third attempt."""
    monkeypatch.setattr(checks, "ORACLE_MAX_STEPS", 2)
    text = MINIMAL + "init: {rho0: 0.4, mu0: 0.2}\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["check", "oracle", "--config", cfg, "--out",
                    str(out)]) == 2
    assert ("error: ode oracle failed: step budget of 2 attempts exhausted "
            "at t=0.025" in capsys.readouterr().err)
    assert not out.exists()


def test_readme_python_names_resolve():
    """Every pc.<name> the README's python blocks use exists."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        blocks = f.read().split("```python\n")[1:]
    names = {node.attr for block in blocks
             for node in ast.walk(ast.parse(block.split("```", 1)[0]))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "pc"}
    assert names
    assert [name for name in sorted(names) if not hasattr(pc, name)] == []


def test_cli_check_reports_named_as_command(tmp_path):
    """check_<which>.json names the check it was run as."""
    cfg = write(tmp_path, MINIMAL)
    for which in cli.CHECKS:
        out = tmp_path / which
        assert run_cli(["check", which, "--config", cfg,
                        "--out", str(out)]) in (0, 1)
        report = json.load(open(out / ("check_%s.json" % which)))
        assert report["name"] == which


def test_cli_bad_config_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert run_cli(["forward", "--config", missing]) == 2
    bad = write(tmp_path, MINIMAL + "init: {rho0: 0.0}\n")
    assert run_cli(["forward", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_solver_error_names_step(tmp_path, capsys):
    """A step whose Newton system is indefinite fails with its index and
    leaves the diagnostics of the levels solved before it."""
    grid = pc.Grid(1, 16, 1.0)
    x = grid.cell_centers()[:, 0]
    fields.write_field_csv(str(tmp_path / "rho0.csv"), grid,
                           0.5 + 0.05 * np.cos(np.pi * x))
    text = MINIMAL.replace("T: 0.1, N: 8", "T: 1.0, N: 1") + (
        "init: {rho0: rho0.csv}\ncontrol: {u_init: 0.3}\n")
    cfg = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert run_cli(["forward", "--config", cfg, "--out", out]) == 2
    assert "error: step 1 of 1: " in capsys.readouterr().err
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["failed_step"] == 1
    assert "not positive definite" in diag["error"]
    assert diag["newton_iters"] == [] and len(diag["rho_min"]) == 1
    # The first Newton system was refused after one residual evaluation.
    assert len(diag["failed_newton_residuals"]) == 1
    assert diag["failed_newton_residuals"][0] > 0.0
    assert diag["failed_min_coefficient"] is None
    # An indefinite 1D step system has a nonpositive shift entry.
    assert diag["failed_min_newton_shift"] <= 0.0
    assert diag["rho_min"][0] == pytest.approx(0.45, rel=1e-2)
    assert "config_hash" in diag


def test_cli_forward_names_a_step_found_by_its_block_check(
        tmp_path, capsys, monkeypatch):
    """Step 10's potential solve is 1% off; the check of its block, at
    the end of the 40-step march, names it."""
    text = MINIMAL.replace("n: 16", "n: 64").replace(
        "T: 0.1, N: 8", "T: 0.5, N: 40") + "control: {u_init: 0.3}\n"
    spoil(monkeypatch, forward, "step_mu", 10)
    out = str(tmp_path / "out")
    assert run_cli(["forward", "--config", write(tmp_path, text),
                    "--out", out]) == 2
    assert "error: step 10 of 40: " in capsys.readouterr().err
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["failed_step"] == 10 and "linear residual" in diag["error"]
    assert len(diag["rho_min"]) == 10 and len(diag["newton_iters"]) == 9


def test_cli_forward_records_failing_coefficient(tmp_path, capsys):
    """A potential step that loses positivity leaves its coefficient, in
    the units of min_coefficient, next to the diagnostics."""
    text = MINIMAL.replace("n: 16", "n: 8").replace(
        "T: 0.1, N: 8", "T: 0.98, N: 2").replace(
        "epsilon: 0.5", "epsilon: 0.01") + "init: {rho0: 0.3}\n"
    out = str(tmp_path / "out")
    assert run_cli(["forward", "--config", write(tmp_path, text),
                    "--out", out]) == 2
    assert "error: step 1 of 2: " in capsys.readouterr().err
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["failed_step"] == 1 and diag["min_coefficient"] == []
    assert diag["failed_newton_residuals"] is None
    assert diag["failed_min_newton_shift"] is None
    lo = float(re.search(r"min (\S+) is nonpositive", diag["error"]).group(1))
    assert lo < 0.0
    assert diag["failed_min_coefficient"] == pytest.approx(0.49 * lo,
                                                           rel=1e-3)


def test_cli_forward_records_newton_shift_and_start(tmp_path):
    """A desk forward records, per step, tau times the least Newton shift
    at the level reached, whether Newton started from the extrapolation,
    and whether it fell back to the previous level."""
    text = MINIMAL.replace("n: 16", "n: 64").replace(
        "T: 0.1, N: 8", "T: 1.0, N: 128") + (
        "init: {rho0: 0.4, mu0: 0.2}\ncontrol: {u_init: 0.1}\n")
    out = str(tmp_path / "out")
    assert run_cli(["forward", "--config", write(tmp_path, text),
                    "--out", out]) == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert len(diag["min_newton_shift"]) == 128
    assert min(diag["min_newton_shift"]) > 0.0
    assert len(diag["extrapolated"]) == 128 and any(diag["extrapolated"])
    assert diag["fell_back"] == [False] * 128
    assert "failed_min_newton_shift" not in diag


@pytest.mark.filterwarnings("error")
def test_cli_rejects_time_step_overflowing_the_coefficients(tmp_path, capsys):
    """A step length whose delta / tau or (epsilon + 3) / tau is not finite
    is refused before any step, naming time.T."""
    base = MINIMAL.replace("n: 16", "n: 8") + "init: {rho0: 0.3, mu0: 0.2}\n"
    for i, (old, new) in enumerate([
            ("T: 0.1, N: 8", "T: 1.0e-310, N: 4"),
            ("T: 0.1, N: 8", "T: 5.0e-324, N: 4"),
            ("delta: 1.0", "delta: 1.0e+308")]):
        out = str(tmp_path / ("out%d" % i))
        cfg = write(tmp_path, base.replace(old, new), "run%d.yaml" % i)
        assert run_cli(["forward", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time.T: requires delta / tau and "
                              "(epsilon + 3) / tau finite"), err
        assert not os.path.exists(os.path.join(out, "diagnostics.json"))


def test_cli_solver_key_reaches_the_march(tmp_path, capsys):
    """solver.newton_max bounds the Newton iteration of every march a
    command runs: the first step here needs two iterations."""
    text = MINIMAL + "init: {rho0: 0.3, mu0: 1.0}\ncontrol: {u_init: 0.3}\n"
    strict = text + "solver: {newton_max: 1}\n"
    runs = [("forward", text, 0), ("forward", strict, 2),
            ("check bounds", strict, 2),
            ("forward", strict + "targets: {from_state: {u: 0.3}}\n", 2)]
    for i, (command, config_text, code) in enumerate(runs):
        cfg = write(tmp_path, config_text, "run%d.yaml" % i)
        out = str(tmp_path / ("out%d" % i))
        assert run_cli(command.split() + ["--config", cfg,
                                          "--out", out]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: step 1 of 8: Newton residual ")
            assert err.rstrip().endswith("after 1 iterations")


def test_cli_check_summary_names_degeneracy(tmp_path, capsys):
    """A zero direction or pair of controls fails as degenerate, and the
    summary line says so; a check without the flag prints its metrics."""
    cfg = write(tmp_path, MINIMAL + "control: {u_max: 0.0}\n")
    lines = {}
    for which in ("grad", "tangent", "duality", "stability", "oracle"):
        code = run_cli(["check", which, "--config", cfg,
                        "--out", str(tmp_path / which)])
        assert code == (0 if which == "oracle" else 1)
        lines[which] = capsys.readouterr().out.strip()
    assert lines["grad"] == ("check grad: FAIL (degenerate; derivative=0, "
                             "rel_mismatch_smallest=0)")
    assert lines["tangent"] == "check tangent: FAIL (degenerate)"
    for which in ("duality", "stability"):
        assert lines[which].startswith(
            "check %s: FAIL (degenerate; " % which)
    assert lines["oracle"].startswith("check oracle: PASS (max_err=0, ")
    cfg = write(tmp_path, MINIMAL, "nondegenerate.yaml")
    assert run_cli(["check", "stability", "--config", cfg,
                    "--out", str(tmp_path / "ok")]) == 0
    assert "degenerate" not in capsys.readouterr().out


def test_cli_check_tangent_names_failing_step(tmp_path, capsys, monkeypatch):
    """A solve failing inside the tangent march names its step: a negated
    Newton shift at step 3 is not positive definite."""
    solved = sensitivity._solved

    def indefinite_at_step_3(problem, state, lo, hi):
        shift, diag, a = solved(problem, state, lo, hi)
        if lo <= 2 < hi:
            shift[2 - lo] = -shift[2 - lo]
        return shift, diag, a

    monkeypatch.setattr(sensitivity, "_solved", indefinite_at_step_3)
    cfg = write(tmp_path, MINIMAL)
    assert run_cli(["check", "tangent", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
    assert "error: step 3 of 8: " in capsys.readouterr().err


def test_cli_forward_one_cell(tmp_path):
    """A one-cell grid has no Laplacian: both dimensions march one ODE."""
    marches = []
    for domain in ("dim: 1, n: 1, length: 1.0",
                   "dim: 2, n: [1, 1], length: [1.0, 2.0]"):
        text = MINIMAL.replace("dim: 1, n: 16, length: 1.0", domain) + (
            "init: {rho0: 0.3, mu0: 0.1}\ncontrol: {u_init: 0.2}\n")
        out = str(tmp_path / ("out%d" % len(marches)))
        assert run_cli(["forward", "--config", write(tmp_path, text),
                        "--out", out]) == 0
        diag = json.load(open(os.path.join(out, "diagnostics.json")))
        assert diag["max_rho_residual"] <= 1e-10
        assert diag["max_mu_residual"] <= 1e-10
        assert len(diag["min_coefficient"]) == 8
        assert min(diag["min_coefficient"]) > 0.0
        assert diag["rho_max"][-1] != diag["rho_max"][0]
        marches.append(diag["rho_max"] + diag["mu_max"])
    np.testing.assert_allclose(marches[0], marches[1], rtol=1e-12)


def test_cli_dump_fields(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "dump")
    assert run_cli(["check", "duality", "--config", cfg, "--out", out,
                    "--dump-fields"]) == 0
    for base in ("rho", "mu", "xi", "eta", "p", "q"):
        assert os.path.exists(os.path.join(out, "%s_0000.csv" % base)), base
    # check grad certifies the discrete adjoint whatever the configured
    # mode, and check duality the configured one: each writes its own.
    cfg = write(tmp_path, MINIMAL + "solver: {adjoint_mode: pde}\n", "pde.yaml")
    rc = config.parse_config(cfg)
    prob = rc.problem
    u, _ = checks.check_instance(prob, rc.output.seed)
    state = pc.solve_state(prob, u)
    for which, mode in (("grad", "discrete"), ("duality", "pde")):
        out = str(tmp_path / which)
        assert run_cli(["check", which, "--config", cfg, "--out", out,
                        "--dump-fields"]) == 0
        q = pc.solve_adjoint(prob, state, mode=mode).q
        np.testing.assert_allclose(
            fields.read_snapshot_dir(out, "q", prob.tgrid, prob.grid), q,
            rtol=0.0, atol=1e-12)


def test_readme_config_block_matches_schema():
    """The README's yaml block lists every section and key of the schema,
    and no other, with the schema default wherever there is one."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    listed = yaml.safe_load(block)
    assert {s: set(keys) for s, keys in listed.items()} == \
        {s: set(keys) for s, keys in config._SCHEMA.items()}
    for section, keys in config._SCHEMA.items():
        for key, default in keys.items():
            if default is not MISSING:
                assert listed[section][key] == default, (section, key)
