#!/usr/bin/env python3
"""Outside-in benchmark of the phasectl CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  The workload's
inputs are generated from ``--seed`` into a scratch directory inside the
checkout, then its round of commands (``phasectl.cli.main`` in-process)
is repeated for about ``--seconds`` seconds, at least ``MIN_ROUNDS``
times.
Every command's output is checked in every round.  An operation is one
command of the workload; the rounds repeat it on the same inputs to time
it, so ``attempted`` is the number of commands and ``failed`` the number
of them that gave a nonzero exit, an exception or a wrong output.  The
count depends on the seed alone, not on how many rounds fitted in.
``correct`` is false when an output is wrong: a crash, a missing or
inconsistent report, a result outside the workload's thresholds, a
command whose outcome changed from one round to the next, or, in a
traced run, a broken count identity.  A check that runs and reports FAIL
with exit code 1 is a failed operation, not a wrong output.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
a round to a checked result, scaled to the host's reference speed by
the calibration samples on either side of it, see calibration.py),
``setup_s`` (median of ``SETUP_REPS`` cold set-ups in child processes,
each scaled by a cold reference import run just before it)
and ``peak_rss_mb`` (peak resident memory of this process).

``--trace 1`` alternates untraced and traced rounds.  Traced rounds
wrap the package's public functions (see tracer.py) and give the
per-layer metrics as the median over traced rounds; the untraced
rounds give the tracing overhead.  The two count identities of
tracer.identities must hold exactly in every traced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment and the per-round figures.  Exit code 0 means a
result was printed; any other code means the benchmark could not run.
"""

import os

# Single-threaded BLAS/OpenMP, set before numpy is imported here or in
# any child process.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
SETUP_REPS = 5
# Seconds of the cold reference import of setup_probe.py on the 2-vCPU
# Xeon the bounds were set on: about 0.45 s in the host's fast state and
# 0.85 s in its slow one.
REFERENCE_IMPORT_S = 0.65
PROBE_TIMEOUT = 120


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed):
    """What the figures depend on besides the code: pins, versions, CPU."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def cache(index):
        path = "/sys/devices/system/cpu/cpu0/cache/index%d/size" % index
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return None

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {}).get("name")
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = None
    return {
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": cache(2),
        "l3": cache(3),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return None


def _probe(args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")] + args,
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, seed, workdir):
    """Median of cold set-ups, each in its own child process.

    Each set-up is scaled by REFERENCE_IMPORT_S over a cold reference
    import timed in a child process just before it.  How fast the host
    lets a fresh interpreter import changes twofold from minute to
    minute, while the ratio of the two stays put (see README.md).
    """
    probes, raw, refs = [], [], []
    for rep in range(SETUP_REPS):
        refs.append(_probe(["--reference"])["reference_s"])
        probe = _probe([workload, str(seed),
                        os.path.join(workdir, "setup%d" % rep)])
        raw.append(probe["setup_s"])
        probes.append({key: value * REFERENCE_IMPORT_S / refs[-1]
                       for key, value in probe.items()})
    print("# setup raw_s=%s reference_s=%s" % (
        " ".join("%.4f" % r for r in raw), " ".join("%.4f" % r for r in refs)))
    return {key: statistics.median(p[key] for p in probes)
            for key in probes[0]}


def run_command(cli, command):
    """Run one command to a checked result.

    Returns (seconds, exit code or None, wrong outputs, captured output).
    An exception is a wrong output: the command gave no result.
    """
    shutil.rmtree(command.out, ignore_errors=True)
    sink = io.StringIO()
    code = None
    tic = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(command.argv)
        wrong = command.check(code, command.out)
    except SystemExit as exc:
        wrong = ["exited via SystemExit(%r)" % exc.code]
    except Exception as exc:  # a crash is a failed operation, not a crash here
        wrong = ["raised %s: %s" % (type(exc).__name__, exc)]
    return time.perf_counter() - tic, code, wrong, sink.getvalue()


def run_round(cli, commands, outcomes):
    """Run every command once; returns the round's seconds.

    Each command's outcome (exit code, wrong outputs, captured output) is
    appended to ``outcomes[label]``.
    """
    total = 0.0
    for command in commands:
        seconds, code, wrong, output = run_command(cli, command)
        total += seconds
        outcomes.setdefault(command.label, []).append(
            (code, wrong, output.strip()))
    return total


def failed_operations(outcomes):
    """One entry per command that failed, with the rounds it failed in.

    A command fails on a nonzero exit or a wrong output.  The inputs are
    the same in every round, so a command whose exit code or verdict on
    its output differs between rounds gives a wrong output as well.
    """
    failures = []
    for label, runs in outcomes.items():
        bad = [r for r, (code, wrong, _) in enumerate(runs)
               if code != 0 or wrong]
        if not bad:
            continue
        code, wrong, output = runs[bad[0]]
        wrong = list(wrong)
        if len({(c, bool(w)) for c, w, _ in runs}) > 1:
            wrong.append("outcome changed between rounds: exit codes %s"
                         % [c for c, _, _ in runs])
        failures.append({"command": label, "exit": code, "wrong": wrong,
                         "rounds_failed": "%d of %d" % (len(bad), len(runs)),
                         "output": output})
    return failures


def report_rounds(kind, rounds):
    print("# %s rounds=%d raw_s=%s scaled_s=%s" % (
        kind, len(rounds), " ".join("%.4f" % raw for raw, _ in rounds),
        " ".join("%.4f" % scaled for _, scaled in rounds)))


def median_metrics(rounds):
    return {key: statistics.median(r[key] for r in rounds)
            for key in rounds[0]}


class Terminated(BaseException):
    """SIGTERM, raised past the per-command handlers so that the scratch
    directory is still removed."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "phasectl", "__init__.py")):
        print("error: no phasectl sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(scratch, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        return benchmark(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)


def declared(trace):
    """Names and units of the metrics BENCHMARK.json declares for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if trace else "end_to_end"]
    return spec, {m["name"]: m["unit"] for m in entries}


def benchmark(args, workloads, workdir):
    spec, units = declared(args.trace)
    setup = measure_setup(args.workload, args.seed, workdir)

    from phasectl import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("error: imported phasectl from %s" % cli.__file__,
              file=sys.stderr)
        return 2
    import tracer as tracing

    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    commands = workloads.WORKLOADS[args.workload](inputs, args.seed)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print("# env " + json.dumps(environment(args.seed)))
    print("# workload %s: %s" % (args.workload, why.get(args.workload)))

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, layer_rounds, identity_rounds = [], [], [], []
    outcomes = {}
    meter = calibration.Calibration()
    speed = [meter.sample()]
    # Start another round while it is expected to end closer to the
    # deadline than stopping now would, so runs last about --seconds.
    deadline = time.perf_counter() + args.seconds
    while len(untraced) + len(traced) < MIN_ROUNDS or (
            time.perf_counter() + statistics.median(
                raw for raw, _ in untraced) / 2 < deadline):
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                raw = run_round(cli, commands, outcomes)
            finally:
                tracer.uninstall()
            rounds = traced
            spans = tracer.take()
            layer_rounds.append(tracing.layer_metrics(spans))
            identity_rounds.append(tracing.identities(spans))
        else:
            raw = run_round(cli, commands, outcomes)
            rounds = untraced
        speed.append(meter.sample())
        rounds.append((raw, calibration.scale(raw, speed[-2], speed[-1])))

    attempted = len(commands)
    failures = failed_operations(outcomes)
    for failure in failures:
        print("# failed " + json.dumps(failure))
    report_rounds("untraced", untraced)
    print("# calibration samples_s=%s" % " ".join("%.5f" % c for c in speed))
    wall = statistics.median(scaled for _, scaled in untraced)
    broken = False
    if tracer is None:
        values = {
            "wall_s": wall,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        report_rounds("traced", traced)
        for rnd, ids in enumerate(identity_rounds):
            for name, (seen, expected) in ids.items():
                broken = broken or seen != expected
                print("# identity %s round %d: %d observed, %d expected"
                      % (name, rnd, seen, expected))
        traced_wall = statistics.median(scaled for _, scaled in traced)
        values = median_metrics(layer_rounds)
        values.update({
            "cli.import_s": setup["import_s"],
            "cli.error_rate": len(failures) / attempted,
            "machine.calibration_s": statistics.median(speed),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
        })
    if set(values) != set(units):
        print("error: measured metrics %s differ from BENCHMARK.json"
              % sorted(set(values) ^ set(units)), file=sys.stderr)
        return 2

    print(json.dumps({
        "correct": not broken and not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
