"""In-memory span tracer that wraps phasectl's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
binding inside the ``phasectl`` package: modules such as ``cli``,
``checks``, ``config`` and ``optimize`` import ``solve_state``,
``solve_adjoint`` and ``solve_tangent`` by name, so patching only the
defining module would miss their calls.  ``uninstall`` restores every
binding.  Nothing inside ``src/`` is edited.

Each span records its layer, start, end and the index of the span that
was open when it started.  A layer's self time is its span's duration
minus the durations of its direct children.  A call into a layer that
is already the innermost open span (``norm_h`` calling ``inner_h``)
does not open a second span, so calls count entries into a layer.

``layer_metrics`` turns one round's spans into the per-layer metrics,
and ``identities`` checks two exact count identities that fail if any
binding escaped the wrapping.
"""

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("layer", "parent", "start", "end", "attrs")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _solve_kind(args, kwargs):
    shift = np.asarray(_arg(args, kwargs, 1, "shift"))
    const = shift.size > 0 and shift.max() == shift.min()
    return "mesh.solve_shifted.const" if const else "mesh.solve_shifted.var"


def _adjoint_kind(args, kwargs):
    return "sensitivity.solve_adjoint." + _arg(args, kwargs, 3, "mode",
                                               "discrete")


def _steps(args, kwargs, result):
    return {"N": _arg(args, kwargs, 0, "problem").tgrid.N}


def _forward(args, kwargs, result):
    return {"N": _arg(args, kwargs, 0, "problem").tgrid.N,
            "newton": int(sum(result.diagnostics.newton_iters))}


def _optimize(args, kwargs, result):
    return {"iterations": result.iterations}


def _snapshot_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (module, attribute, layer or classifier, annotator).  A class name in
# the attribute ("Potential.d1") wraps the method on the class.
TRACED = [
    ("mesh", "solve_shifted", _solve_kind, None),
    ("mesh", "laplacian_apply", "mesh.laplacian_apply", None),
] + [
    ("mesh", name, "mesh.norms", None)
    for name in ("inner_h", "norm_h", "grad_inner", "inner_v", "norm_v",
                 "norm_w", "inner_q", "norm_q")
] + [
    ("potential", "Potential." + name, "potential", None)
    for name in ("value", "d1", "d2", "d3")
] + [
    ("forward", "solve_state", "forward.solve_state", _forward),
    ("forward", "step_rho", "forward.step_rho", None),
    ("forward", "step_mu", "forward.step_mu", None),
    ("sensitivity", "solve_tangent", "sensitivity.solve_tangent", _steps),
    ("sensitivity", "solve_adjoint", _adjoint_kind, _steps),
    ("optimize", "projected_gradient_descent", "optimize.descent", _optimize),
    ("optimize", "reduced_gradient", "optimize.reduced_gradient", None),
    ("checks", "fd_gradient_check", "checks.grad", None),
    ("checks", "tangent_remainder_check", "checks.tangent", None),
    ("checks", "duality_gap_check", "checks.duality", None),
    ("checks", "stability_ratio_check", "checks.stability", None),
    ("checks", "ode_oracle_check", "checks.oracle", None),
    ("checks", "bounds_check", "checks.bounds", None),
    ("checks", "random_control", "checks.random_fields", _steps),
    ("checks", "random_direction", "checks.random_fields", _steps),
    ("checks", "remainder_norm", "checks.remainder_norm", None),
    ("checks", "stability_ratios", "checks.stability_ratios", None),
    ("checks", "ode_oracle_solution", "checks.ode_oracle", None),
    ("config", "parse_config", "config.parse_config", None),
    ("config", "build_problem", "config.build_problem", None),
    ("fields", "write_snapshots", "fields.write_snapshots", _snapshot_bytes),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, layer, annotate):
        spans, stack = self.spans, self._stack
        classify = layer if callable(layer) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = classify(args, kwargs) if classify else layer
            if stack and spans[stack[-1]].layer == name:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at every binding in the package."""
        wrappers = {}
        for module, attr, layer, annotate in TRACED:
            owner = sys.modules["phasectl." + module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(fn, layer, annotate))
            else:
                fn = getattr(owner, attr)
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, annotate))
        for name, module in list(sys.modules.items()):
            if name != "phasectl" and not name.startswith("phasectl."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _totals(spans):
    """Per layer: calls, inclusive seconds, self seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for s, c in zip(spans, child):
        t = totals[s.layer]
        t[0] += 1
        t[1] += s.end - s.start
        t[2] += s.end - s.start - c
    return totals


def _attr_sum(spans, layers, key, scale=1, offset=0):
    # A span whose call raised has no attributes.
    return sum(scale * s.attrs[key] + offset for s in spans
               if s.layer in layers and s.attrs is not None)


SENSITIVITY = ("sensitivity.solve_tangent",
               "sensitivity.solve_adjoint.discrete",
               "sensitivity.solve_adjoint.pde")


def identities(spans):
    """Both sides of the two count identities for one round.

    solves: shifted solves = Newton iterations + N per forward march
            + 2N per tangent or adjoint march + (N+1) per random field.
    steps:  rho steps = N per forward march.
    """
    solves = sum(1 for s in spans if s.layer.startswith("mesh.solve_shifted"))
    expected = (_attr_sum(spans, ("forward.solve_state",), "newton")
                + _attr_sum(spans, ("forward.solve_state",), "N")
                + _attr_sum(spans, SENSITIVITY, "N", scale=2)
                + _attr_sum(spans, ("checks.random_fields",), "N", offset=1))
    steps = sum(1 for s in spans if s.layer == "forward.step_rho")
    return {"solves": (solves, expected),
            "steps": (steps, _attr_sum(spans, ("forward.solve_state",), "N"))}


def layer_metrics(spans):
    """Per-layer counts and times of one round, keyed by metric name."""
    t = _totals(spans)
    m = {}

    def put(layer, calls=True, incl=False, self_s=False):
        calls_n, incl_s, self_t = t.get(layer, (0, 0.0, 0.0))
        if calls:
            m[layer + ".calls"] = calls_n
        if incl:
            m[layer + ".s"] = incl_s
        if self_s:
            m[layer + ".self_s"] = self_t

    for kind in ("var", "const"):
        put("mesh.solve_shifted." + kind, self_s=True)
    solves = (m["mesh.solve_shifted.var.calls"]
              + m["mesh.solve_shifted.const.calls"])
    m["mesh.solve_shifted.const_share"] = (
        m["mesh.solve_shifted.const.calls"] / solves if solves else 0.0)
    put("mesh.laplacian_apply", self_s=True)
    put("mesh.norms", self_s=True)
    put("potential", self_s=True)

    put("forward.solve_state", incl=True)
    put("forward.step_rho", self_s=True)
    put("forward.step_mu", self_s=True)
    newton = _attr_sum(spans, ("forward.solve_state",), "newton")
    steps = _attr_sum(spans, ("forward.solve_state",), "N")
    m["forward.newton_iters"] = newton
    m["forward.newton_per_step"] = newton / steps if steps else 0.0
    m["forward.solve_state.median_s"] = _median_span(
        spans, "forward.solve_state")

    put("sensitivity.solve_tangent", incl=True)
    put("sensitivity.solve_adjoint.discrete", incl=True)
    put("sensitivity.solve_adjoint.pde", incl=True)
    m["sensitivity.solve_adjoint.discrete.median_s"] = _median_span(
        spans, "sensitivity.solve_adjoint.discrete")

    descents = {i for i, s in enumerate(spans)
                if s.layer == "optimize.descent"}
    iterations = _attr_sum(spans, ("optimize.descent",), "iterations")
    # Every forward solve a descent makes is its direct child: one at
    # the start, then one per line-search trial.
    trials = sum(1 for s in spans if s.layer == "forward.solve_state"
                 and s.parent in descents) - len(descents)
    m["optimize.iterations"] = iterations
    m["optimize.trials"] = trials
    m["optimize.accept_ratio"] = iterations / trials if trials else 0.0
    put("optimize.reduced_gradient", incl=True)

    for name in ("grad", "tangent", "duality", "stability", "oracle",
                 "bounds"):
        put("checks." + name, calls=False, incl=True)
    put("checks.random_fields", incl=True)
    m["checks.norm_loops.s"] = _norm_loop_seconds(spans)
    put("checks.ode_oracle", calls=False, incl=True)

    put("config.parse_config", calls=False, incl=True)
    put("config.build_problem", calls=False, incl=True)
    put("fields.write_snapshots", incl=True)
    m["fields.bytes_written"] = _attr_sum(
        spans, ("fields.write_snapshots",), "bytes")
    return m


def _median_span(spans, layer):
    """Median inclusive seconds of one call; the base instance's cost
    even when refinement ladders add larger calls."""
    durations = [s.end - s.start for s in spans if s.layer == layer]
    return float(np.median(durations)) if durations else 0.0


def _norm_loop_seconds(spans):
    """Time in the per-level norm loops of the tangent and stability checks.

    ``remainder_norm`` is all norm loops; ``stability_ratios`` is norm
    loops apart from the two forward marches it calls.
    """
    total = 0.0
    marches = defaultdict(float)
    for s in spans:
        if s.layer == "forward.solve_state" and s.parent >= 0:
            marches[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        if s.layer == "checks.remainder_norm":
            total += s.end - s.start
        elif s.layer == "checks.stability_ratios":
            total += s.end - s.start - marches[i]
    return total
