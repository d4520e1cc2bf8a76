"""Config fuzz: a bad value at any key ends in exit code 0, 1 or 2,
with no numpy warning.

Each case takes a valid 2-step config with every key written out, on
the 4-cell line and on the 4x4 square, replaces one or two keys with
values drawn from a fixed list and runs one command on it.  The list
holds no size between 10^4 and 10^300, so no case asks numpy for an
array it would try to allocate.
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
# The domains every test runs on: the 4-cell line and the 4x4 square.
DOMAINS = {"1d": VALID["domain"],
           "2d": {"dim": "2", "n": "4", "length": "1.0"}}


def render(sections):
    return "".join("%s: {%s}\n" % (section, ", ".join(
        "%s: %s" % item for item in keys.items()))
        for section, keys in sections.items())


def write_config(directory, domain, changes=()):
    """The valid config on ``domain`` with each (section, key) of
    ``changes`` set to its value, written to directory/run.yaml; returns
    that path and directory/out."""
    sections = {section: dict(keys) for section, keys in VALID.items()}
    sections["domain"] = dict(DOMAINS[domain])
    for (section, key), value in dict(changes).items():
        sections[section][key] = value
    directory.mkdir(exist_ok=True)
    path = directory / "run.yaml"
    path.write_text(render(sections))
    return path, directory / "out"


def run(path, command, out):
    """Exit code of one command, or the traceback text if it raised."""
    try:
        return cli.main(command + ["--config", str(path), "--out", str(out)])
    except BaseException:
        return "%s on\n%s\n%s" % (" ".join(command), path.read_text(),
                                   traceback.format_exc())


def test_config_fuzz_exits_zero_one_or_two(tmp_path, capsys):
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain)
        assert [run(path, command, out) for command in COMMANDS] == [0] * 8
        rng = np.random.default_rng(0)
        codes = []
        for case in range(200):
            changes = [KEYS[i] for i in rng.choice(
                len(KEYS), size=rng.integers(1, 3), replace=False)]
            write_config(tmp_path / domain, domain, {
                key: VALUES[rng.integers(len(VALUES))] for key in changes})
            # An escaped warning raises, and run returns its traceback.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes.append(run(path, COMMANDS[case % len(COMMANDS)], out))
            capsys.readouterr()
        assert [c for c in codes if c not in (0, 1, 2)] == [], domain
        assert 0 in codes and 2 in codes, domain


def test_huge_epsilon_runs_without_overflow(tmp_path, capsys):
    """epsilon = 1e300 squares past the float range inside step_mu's solve."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain,
                                 {("params", "epsilon"): "1.0e+300"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [run(path, command, out) for command in
                     (["forward"], ["check", "bounds"], ["check", "duality"])]
        assert codes == [0, 0, 0], domain


def test_huge_c_log_runs_without_overflow(tmp_path, capsys):
    """c_log = 1e300 squares past the float range in the Newton residual
    norm.  Newton reaches rho = 0.5, where f' is exactly 0: the residual
    0.9 is left, far below its rounding floor (the neighbours of 0.5 put
    f' at -2e284 and +4e284).  Both steps end on that floor, which
    diagnostics.json records, the march reaches T, and no warning
    escapes."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain,
                                 {("potential", "c_log"): "1.0e+300"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(path, ["forward"], out) == 0, domain
            with open(out / "diagnostics.json") as f:
                diag = json.load(f)
            assert run(path, ["check", "tangent"], out) == 1, domain
        assert diag["on_floor"] == [True, True], domain
        assert diag["newton_residuals"][0] == pytest.approx(0.9, rel=1e-12)
        assert capsys.readouterr().err == "", domain


@pytest.mark.parametrize("key", ["beta1", "beta2"])
def test_huge_cost_weight_optimizes_without_overflow(tmp_path, key):
    """A cost weight of 1e300 makes gradient entries near 1e298 whose
    squares overflow inside the KKT norm, which is formed on the gradient
    over its largest entry where it would: optimize ends without a
    warning and with a finite KKT history."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain,
                                 {("params", key): "1.0e+300"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(path, ["optimize"], out) == 0, domain
        with open(out / "optimize_summary.json") as f:
            summary = json.load(f)
        assert summary["termination"] in ("Stationary", "MaxIters",
                                          "Stalled"), domain
        assert np.isfinite(summary["kkt_history"]).all(), domain


def test_overflowing_newton_shift_ends_the_step(tmp_path, capsys):
    """c_log = 1e308 overflows f'' in the Newton shift; the step ends at
    that first iterate with a NewtonDivergence naming the shift."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain,
                                 {("potential", "c_log"): "1.0e+308"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [run(path, command, out) for command in
                     (["forward"], ["check", "tangent"])]
        assert codes == [2, 2], domain
        assert capsys.readouterr().err.count("Newton shift") == 2, domain
        with open(out / "diagnostics.json") as f:
            assert len(json.load(f)["failed_newton_residuals"]) == 1, domain


@pytest.mark.parametrize("init, what", [
    ({"rho0": "0.125"}, "Newton residual term f'(rho)"),
    ({"rho0": "0.3", "mu0": "1.0e+308"}, "Newton residual")],
    ids=["f_prime", "residual"])
def test_overflowing_newton_residual_ends_the_step(tmp_path, capsys, init,
                                                   what):
    """c_log = 1e308 overflows f'(rho) = c_log log(rho / (1 - rho)) + ...
    at rho0 = 0.125; at rho0 = 0.3 f' is finite, but f' - mu0 overflows
    with mu0 = 1e308.  Either ends the step at the first Newton iterate
    with a NewtonDivergence naming what overflowed, which forward's
    diagnostics.json records with no residual of the failing step, and
    no warning escapes."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain, {
            ("potential", "c_log"): "1.0e+308",
            **{("init", key): value for key, value in init.items()}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [run(path, command, out) for command in
                     (["forward"], ["check", "bounds"])]
        assert codes == [2, 2], domain
        message = "error: step 1 of 2: %s overflows at iterate 0\n" % what
        assert capsys.readouterr().err == 2 * message, domain
        with open(out / "diagnostics.json") as f:
            diag = json.load(f)
        assert diag["failed_step"] == 1, domain
        assert diag["failed_newton_residuals"] == [], domain


def test_overflowing_cost_writes_no_nan(tmp_path, capsys):
    """mu_T = 1e300 overflows the cost: check grad and optimize exit 2
    naming the control and the overflowing cost term, neither warns, and
    nothing is written."""
    for domain in DOMAINS:
        path, out = write_config(tmp_path / domain, domain,
                                 {("targets", "mu_T"): "1.0e+300"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [run(path, command, out)
                     for command in (["check", "grad"], ["optimize"])]
        assert codes == [2, 2], domain
        assert capsys.readouterr().err == (
            "error: at the base control, the tracking cost term is inf\n"
            "error: at the starting control, the tracking cost term is "
            "inf\n"), domain
        assert not out.exists(), domain
