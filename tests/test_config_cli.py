import json
import os

import numpy as np
import pytest

import phasectl as pc
from phasectl import cli, config, fields
from phasectl.errors import (MissingKey, UnsupportedDimension,
                             ValidationError)

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
    assert rc.potential.c_log == 0.5 and rc.potential.c_quad == 2.0
    assert rc.solver.newton_tol == 1e-10
    assert rc.adjoint_mode == "discrete"
    assert np.all(rc.u_init == 0.0)
    assert np.all(rc.u_max == 1.0)
    assert np.all(rc.rho0 == 0.5) and np.all(rc.mu0 == 0.0)


def test_rho0_gate_quotes_condition(tmp_path):
    path = write(tmp_path, MINIMAL + "init: {rho0: 0.0}\n")
    with pytest.raises(ValidationError, match="inf rho0 > 0"):
        config.parse_config(path)


def test_dim_three_rejected(tmp_path):
    bad = MINIMAL.replace("{dim: 1, n: 16, length: 1.0}",
                          "{dim: 3, n: [2, 2, 2], length: [1, 1, 1]}")
    with pytest.raises(UnsupportedDimension):
        config.parse_config(write(tmp_path, bad))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown section"):
        config.parse_config(write(tmp_path, MINIMAL + "params2: {x: 1}\n"))
    txt = MINIMAL.replace("{epsilon: 0.5, delta: 1.0}",
                          "{epsilon: 0.5, delta: 1.0, gamma: 2.0}")
    with pytest.raises(ValidationError, match="params.gamma"):
        config.parse_config(write(tmp_path, txt))


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
    (MINIMAL + "solver: {coupling_iters: '1'}\n", "solver.coupling_iters"),
], ids=["N-fraction", "N-string", "N-list", "N-bool", "dim-fraction",
        "n-string", "n-entry", "newton_max", "coupling_iters"])
def test_integer_keys_strict(tmp_path, capsys, text, key):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError, match=r"^%s: requires an integer"
                       % key.replace("[", r"\[")):
        config.parse_config(path)
    assert cli.main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: %s: requires an integer" % key in capsys.readouterr().err


def test_integral_float_accepted(tmp_path):
    rc = config.parse_config(write(tmp_path, MINIMAL.replace("N: 8", "N: 8.0")))
    assert rc.tgrid.N == 8 and isinstance(rc.tgrid.N, int)


def test_field_csv_loading(tmp_path):
    grid = pc.make_grid(1, 16, 1.0)
    rho = 0.3 + 0.4 * np.random.default_rng(0).random(16)
    fields.write_field_csv(str(tmp_path / "rho0.csv"), grid, rho)
    rc = config.parse_config(write(tmp_path, MINIMAL + "init: {rho0: rho0.csv}\n"))
    assert np.array_equal(rc.rho0, rho)


def test_from_state_targets(tmp_path):
    path = write(tmp_path, MINIMAL + "targets: {from_state: {u: 0.3}}\n")
    rc = config.parse_config(path)
    prob = config.build_problem(rc)
    generator = pc.ProblemData(
        grid=rc.grid, tgrid=rc.tgrid, epsilon=rc.epsilon, delta=rc.delta,
        potential=rc.potential, rho0=rc.rho0, mu0=rc.mu0, u_max=rc.u_max)
    st = pc.solve_state(generator, 0.3, rc.solver)
    assert np.array_equal(prob.rho_target, st.rho[rc.tgrid.N])
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
    assert diag["m_matrix_ok"] and not diag["bound_violations"]
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


def test_cli_optimize_beta2_zero_caps_iterations(tmp_path, capsys):
    text = MINIMAL.replace(
        "params: {epsilon: 0.5, delta: 1.0}",
        "params: {epsilon: 0.5, delta: 1.0, beta2: 0.0}") + (
        "targets: {from_state: {u: 0.3}}\n"
        "optimizer: {max_iters: 60, step0: 50.0, stat_tol: 1.0e-14}\n")
    cfg = write(tmp_path, text)
    out = str(tmp_path / "bb")
    assert run_cli(["optimize", "--config", cfg, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "beta2" in err  # warned about the missing curvature scale
    summary = json.load(open(os.path.join(out, "optimize_summary.json")))
    assert summary["iterations"] <= 50


def test_cli_check_grad_passes(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "chk")
    assert run_cli(["check", "grad", "--config", cfg, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "check_grad.json")))
    assert rep["pass"] and 0.8 <= rep["metrics"]["slope"] <= 1.2
    assert "check grad: PASS" in capsys.readouterr().out


def test_cli_check_bounds_and_seed_override(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "chk2")
    assert run_cli(["check", "bounds", "--config", cfg, "--out", out,
                    "--seed", "5"]) == 0
    rep = json.load(open(os.path.join(out, "check_bounds.json")))
    assert rep["seed"] == 5


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


def test_cli_bad_config_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert run_cli(["forward", "--config", missing]) == 2
    bad = write(tmp_path, MINIMAL + "init: {rho0: 0.0}\n")
    assert run_cli(["forward", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_dump_fields(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "dump")
    assert run_cli(["check", "duality", "--config", cfg, "--out", out,
                    "--dump-fields"]) == 0
    for base in ("rho", "mu", "xi", "eta", "p", "q"):
        assert os.path.exists(os.path.join(out, "%s_0000.csv" % base)), base
