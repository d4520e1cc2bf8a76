"""The names the benchmark tracer wraps and the set-up probe imports
must keep resolving.

perfbench/tracer.py patches phasectl functions by module and attribute
name from outside the package, so renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``; perfbench/setup_probe.py imports
phasectl names, so deleting one breaks ``setup_s``.  The tracer source
is compiled and the probe source parsed here without importing either
as a module, so nothing is written under perfbench/.
"""

import ast
import importlib
import os
import sys
import types

import numpy as np

import phasectl as pc
import phasectl.cli  # noqa: F401  (traced, and not imported by phasectl)
from conftest import build_problem, fallback_instance

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
PROBE = os.path.join(PERFBENCH, "setup_probe.py")


def load_tracer():
    with open(TRACER) as f:
        source = f.read()
    module = types.ModuleType("perfbench_tracer")
    exec(compile(source, TRACER, "exec"), module.__dict__)
    return module


def resolve(module, attr):
    owner = sys.modules["phasectl." + module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def package_bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "phasectl" or name.startswith("phasectl.")
            for key, value in vars(module).items() if callable(value)}


def test_traced_names_resolve():
    tracer = load_tracer()
    missing = []
    for module, attr, _, _ in tracer.TRACED:
        try:
            resolve(module, attr)
        except (KeyError, AttributeError):
            missing.append("%s.%s" % (module, attr))
    assert not missing


def test_tracer_install_round_trip():
    tracer = load_tracer()
    before = package_bindings()
    originals = {(m, a): resolve(m, a) for m, a, _, _ in tracer.TRACED}
    t = tracer.Tracer()
    t.install()
    try:
        assert pc.forward.solve_state is not originals["forward",
                                                       "solve_state"]
        prob = build_problem(N=4)
        h = np.full((5, prob.grid.num_cells), 0.1)
        state = pc.forward.solve_state(prob, 0.2)
        pc.sensitivity.solve_tangent(prob, state, h)
        for mode in ("discrete", "pde"):
            pc.sensitivity.solve_adjoint(prob, state, mode=mode)
    finally:
        t.uninstall()
    spans = t.take()
    # The tracer reads mode by keyword, so each march gets its own layer.
    layers = [s.layer for s in spans if s.layer.startswith(
        "sensitivity.solve_adjoint")]
    assert layers == ["sensitivity.solve_adjoint.discrete",
                      "sensitivity.solve_adjoint.pde"]
    for name, (got, expected) in tracer.identities(spans).items():
        assert got == expected, name
    assert {k: resolve(*k) for k in originals} == originals
    assert package_bindings() == before


def test_tracer_identities_hold_across_a_newton_fallback():
    """A step whose extrapolated start fails runs Newton again from the
    previous level inside one step_rho call: both tracer identities
    count it exactly, one rho step and every solve of both attempts."""
    tracer = load_tracer()
    prob, u = fallback_instance()
    t = tracer.Tracer()
    t.install()
    try:
        state = pc.forward.solve_state(prob, u)
    finally:
        t.uninstall()
    assert state.diagnostics.fell_back == [False, False, True]
    identities = tracer.identities(t.take())
    assert identities == {"solves": (53, 53), "steps": (3, 3)}


def test_setup_probe_imports_resolve(tmp_path):
    with open(PROBE) as f:
        tree = ast.parse(f.read(), PROBE)
    imported = {alias.name: getattr(importlib.import_module(node.module),
                                    alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "phasectl"
                for alias in node.names}
    assert {"build_problem", "parse_config"} <= set(imported)
    # The probe times both calls as set-up; the instance is parse_config's.
    path = tmp_path / "run.yaml"
    path.write_text("domain: {dim: 1, n: 8, length: 1.0}\n"
                    "time: {T: 0.1, N: 4}\n"
                    "params: {epsilon: 0.5, delta: 1.0}\n"
                    "targets: {from_state: {u: 0.2}}\n")
    rc = imported["parse_config"](str(path))
    assert imported["build_problem"](rc) is rc.problem
