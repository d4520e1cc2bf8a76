"""Config fuzz: a bad value at any key ends in exit code 0, 1 or 2,
with no numpy warning.

Each case takes a valid 4-cell, 2-step config with every key written
out, replaces one or two keys with values drawn from a fixed list and
runs one command on it.  The list holds no size between 10^4 and
10^300, so no case asks numpy for an array it would try to allocate.
"""

import json
import traceback
import warnings

import numpy as np
import pytest

from phasectl import cli

VALID = {
    "domain": {"dim": "1", "n": "4", "length": "1.0"},
    "time": {"T": "0.1", "N": "2"},
    "params": {"epsilon": "0.5", "delta": "1.0", "beta1": "1.0",
               "beta2": "1.0e-4"},
    "potential": {"c_log": "0.5", "c_quad": "2.0"},
    "init": {"rho0": "0.45", "mu0": "0.1"},
    "control": {"u_max": "1.0", "u_init": "0.2"},
    "targets": {"rho_T": "0.5", "mu_T": "0.0"},
    "solver": {"newton_tol": "1.0e-10", "newton_max": "30",
               "adjoint_mode": "discrete"},
    "optimizer": {"max_iters": "2", "step0": "1.0", "stat_tol": "1.0e-6",
                  "min_step": "1.0e-12"},
    "output": {"directory": "out", "snapshot_stride": "1", "seed": "0",
               "iter_snapshots": "false"},
}
KEYS = [(section, key) for section, keys in VALID.items() for key in keys]
VALUES = ["0", "-1", "0.5", "1.0e-300", "1.0e+300", ".nan", ".inf", "abc",
          "true", "[1]", "[]", "{}", "null"]
COMMANDS = [["forward"], ["optimize"]] + [
    ["check", which] for which in cli.CHECKS]


def render(sections):
    return "".join("%s: {%s}\n" % (section, ", ".join(
        "%s: %s" % item for item in keys.items()))
        for section, keys in sections.items())


def run(path, command, out):
    """Exit code of one command, or the traceback text if it raised."""
    try:
        return cli.main(command + ["--config", str(path), "--out", str(out)])
    except BaseException:
        return "%s on\n%s\n%s" % (" ".join(command), path.read_text(),
                                   traceback.format_exc())


def test_config_fuzz_exits_zero_one_or_two(tmp_path, capsys):
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(VALID))
    assert [run(path, command, out) for command in COMMANDS] == [0] * 8
    rng = np.random.default_rng(0)
    codes = []
    for case in range(200):
        sections = {section: dict(keys) for section, keys in VALID.items()}
        for i in rng.choice(len(KEYS), size=rng.integers(1, 3),
                            replace=False):
            section, key = KEYS[i]
            sections[section][key] = VALUES[rng.integers(len(VALUES))]
        path.write_text(render(sections))
        # An escaped warning raises, and run returns its traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes.append(run(path, COMMANDS[case % len(COMMANDS)], out))
        capsys.readouterr()
    assert [c for c in codes if c not in (0, 1, 2)] == []
    assert 0 in codes and 2 in codes


def test_huge_epsilon_runs_without_overflow(tmp_path, capsys):
    """epsilon = 1e300 squares past the float range inside step_mu's solve."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["params"]["epsilon"] = "1.0e+300"
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [run(path, command, out) for command in
                 (["forward"], ["check", "bounds"], ["check", "duality"])]
    assert codes == [0, 0, 0]


def test_huge_c_log_runs_without_overflow(tmp_path, capsys):
    """c_log = 1e300 squares past the float range in the Newton residual
    norm.  Newton reaches rho = 0.5, where f' is exactly 0: the residual
    0.9 is left, far below its rounding floor (the neighbours of 0.5 put
    f' at -2e284 and +4e284).  Both steps end on that floor, which
    diagnostics.json records, the march reaches T, and no warning
    escapes."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["potential"]["c_log"] = "1.0e+300"
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, ["forward"], out) == 0
        with open(out / "diagnostics.json") as f:
            diag = json.load(f)
        assert run(path, ["check", "tangent"], out) == 1
    assert diag["on_floor"] == [True, True]
    assert diag["newton_residuals"][0] == pytest.approx(0.9, rel=1e-12)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key", ["beta1", "beta2"])
def test_huge_cost_weight_optimizes_without_overflow(tmp_path, key):
    """A cost weight of 1e300 makes gradient entries near 1e298 whose
    squares overflow inside the KKT norm, which is formed on the gradient
    over its largest entry where it would: optimize ends without a
    warning and with a finite KKT history."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["params"][key] = "1.0e+300"
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(path, ["optimize"], out) == 0
    with open(out / "optimize_summary.json") as f:
        summary = json.load(f)
    assert summary["termination"] in ("Stationary", "MaxIters", "Stalled")
    assert np.isfinite(summary["kkt_history"]).all()


def test_overflowing_newton_shift_ends_the_step(tmp_path, capsys):
    """c_log = 1e308 overflows f'' in the Newton shift; the step ends at
    that first iterate with a NewtonDivergence naming the shift."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["potential"]["c_log"] = "1.0e+308"
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [run(path, command, out) for command in
                 (["forward"], ["check", "tangent"])]
    assert codes == [2, 2]
    assert capsys.readouterr().err.count("Newton shift") == 2
    with open(out / "diagnostics.json") as f:
        assert len(json.load(f)["failed_newton_residuals"]) == 1


def test_overflowing_cost_writes_no_nan(tmp_path, capsys):
    """mu_T = 1e300 overflows the cost: check grad exits 2 naming the
    first non-finite key of its report, optimize exits 2 naming the
    overflowing cost term, neither warns, and nothing is written."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["targets"]["mu_T"] = "1.0e+300"
    path, out = tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(render(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [run(path, command, out)
                 for command in (["check", "grad"], ["optimize"])]
    assert codes == [2, 2]
    err = capsys.readouterr().err
    assert "check_grad.json: metrics.fd_values[0] is nan" in err
    assert ("error: at the starting control, the tracking cost term is inf"
            in err)
    assert not out.exists()
