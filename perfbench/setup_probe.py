"""Time one cold set-up of a workload in a fresh interpreter.

Run by run.py as a child process, so the import is as cold as a user's
``phasectl`` command (apart from the OS file cache):

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
    python3 perfbench/setup_probe.py --reference

Set-up is importing ``phasectl`` (with numpy, scipy and yaml), writing
the workload's seeded inputs, and ``parse_config`` plus
``build_problem`` (including any ``from_state`` target march) for each
distinct config of the workload.  ``--reference`` times the cold import
of ``REFERENCE_MODULES`` alone, the modules phasectl imports without
phasectl itself; run.py scales each set-up by the reference import run
just before it.  Prints one JSON line of seconds.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

REFERENCE_MODULES = ("argparse", "copy", "dataclasses", "hashlib", "tempfile",
                     "numpy", "scipy.integrate", "scipy.linalg",
                     "scipy.sparse", "scipy.sparse.linalg", "yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(workload, seed, workdir):
    import phasectl.cli  # noqa: F401  (the import being timed)
    from phasectl.config import build_problem, parse_config
    imported = time.perf_counter()

    import workloads
    os.makedirs(workdir, exist_ok=True)
    commands = workloads.WORKLOADS[workload](workdir, seed)
    generated = time.perf_counter()

    configs = []
    for command in commands:
        config = command.argv[command.argv.index("--config") + 1]
        if config not in configs:
            configs.append(config)
    parse_s = build_s = 0.0
    for config in configs:
        tic = time.perf_counter()
        rc = parse_config(config)
        mid = time.perf_counter()
        build_problem(rc)
        parse_s += mid - tic
        build_s += time.perf_counter() - mid
    print(json.dumps({
        "setup_s": time.perf_counter() - START,
        "import_s": imported - START,
        "generate_s": generated - imported,
        "parse_s": parse_s,
        "build_s": build_s,
    }))


def reference():
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(json.dumps({"reference_s": time.perf_counter() - START}))


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        reference()
    else:
        main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
