"""Span tracing of freemarg's layers, installed from outside the package.

A layer is a set of public functions or methods of one module.  A module
function is replaced at every binding site: each attribute of a loaded
freemarg module that holds the same function object (`solve`, for one, is
imported by name into `state_rmp` and `channel_rmp`).  A method is replaced
on its class.  If any name of a layer is missing, the whole layer stays
unwrapped, so its time falls to its callers, and its metrics are reported
absent with the reason.

A span records its layer, the function, the operation (and histogram
sample) it served, its start and end, and its parent.  Self time is the
span's duration minus the time its child spans cover; inclusive time is the
whole duration, summed per function.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

SOLVER = "freemarg.solver"
STATE = "freemarg.state_rmp"
CHANNEL = "freemarg.channel_rmp"
DISC = "freemarg.discrimination"

# layer -> (module, attribute or Class.method) pairs
LAYERS = {
    "cli": [("freemarg.cli", "main")],
    "io.load": [("freemarg.io", "load_instance")],
    "io.dump": [("freemarg.io", "dump_result")],
    "state_rmp": [(STATE, name) for name in (
        "check_rfree_compatible", "robustness", "linear_max_over_set", "extract_witness",
        "verify_w_uniqueness", "activation_criterion", "apply_free_operation",
        "product_channels_on_family", "CompatibleSetModel.__init__",
        "CompatibleSetModel.maximize")],
    "channel_rmp": [(CHANNEL, name) for name in (
        "marginal_channel", "check_channel_compatible", "channel_robustness",
        "channel_linear_max_over_set", "channel_witness", "state_discrimination_task",
        "channel_success_probability", "channel_task_advantage",
        "ChannelCompatibleSetModel.__init__", "ChannelCompatibleSetModel.maximize")],
    "discrimination": [(DISC, name) for name in (
        "histogram_experiment", "w_histogram_instance", "sample_w_advantage", "advantage", "success_probability",
        "task_from_witness", "epsilon_bound_terms")],
    "programs.attach": [("freemarg.programs", "attach_free_state_cone")],
    "solver.build": [(SOLVER, "ConicProgram." + name) for name in (
        "add_variable", "add_scalar_equality", "add_matrix_equality", "add_psd_inequality",
        "set_objective", "with_objective")],
    "solver.compile": [(SOLVER, "ConicProgram.compile")],
    "solver.solve": [(SOLVER, "solve")],
}

# per-layer metric -> (unit, layer it needs)
PER_LAYER = {
    "solver.solve.self_s": ("s", "solver.solve"),
    "solver.solves_per_op": ("count", "solver.solve"),
    "solver.iterations": ("count", "solver.solve"),
    "solver.iters_per_solve": ("count", "solver.solve"),
    "solver.ms_per_iter": ("ms", "solver.solve"),
    "solver.status.optimal": ("count", "solver.solve"),
    "solver.status.infeasible": ("count", "solver.solve"),
    "solver.status.other": ("count", "solver.solve"),
    "solver.compile.self_s": ("s", "solver.compile"),
    "solver.compile.calls": ("count", "solver.compile"),
    "solver.rows": ("count", "solver.compile"),
    "solver.rank_ratio": ("ratio", "solver.compile"),
    "solver.build.self_s": ("s", "solver.build"),
    "programs.attach.self_s": ("s", "programs.attach"),
    "state_rmp.self_s": ("s", "state_rmp"),
    "state_rmp.calls": ("count", "state_rmp"),
    "channel_rmp.self_s": ("s", "channel_rmp"),
    "channel_rmp.calls": ("count", "channel_rmp"),
    "discrimination.self_s": ("s", "discrimination"),
    "discrimination.calls": ("count", "discrimination"),
    "io.load.self_s": ("s", "io.load"),
    "io.dump.self_s": ("s", "io.dump"),
    "io.dump.bytes": ("B", "io.dump"),
    "cli.self_s": ("s", "cli"),
    "trace.overhead_pct": ("%", None),
    "trace.items": ("count", None),
}


def _observe_solve(tracer, ctx, args, kwargs, result):
    status = getattr(getattr(result, "status", None), "value", None)
    bucket = {"Optimal": "optimal", "Infeasible": "infeasible"}.get(status, "other")
    tracer.count("solver.status." + bucket)
    iters = getattr(result, "iterations", None)
    if iters is None:
        tracer.absent.setdefault("solver.iterations", "SolveResult has no 'iterations'")
    else:
        tracer.count("solver.iterations", iters)


def _compile_cached(args, kwargs):
    return getattr(args[0], "_compiled", None) is not None


def _observe_compile(tracer, cached, args, kwargs, result):
    if cached:
        return
    tracer.count("solver.compile.real")
    try:
        tracer.count("solver.rows", result["u_r"].shape[0])
        tracer.count("solver.rank", result["A"].shape[0])
    except (KeyError, TypeError, AttributeError, IndexError):
        tracer.absent.setdefault("solver.rows", "compile() result has no 'u_r'/'A' arrays")


def _observe_dump(tracer, ctx, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if path not in (None, "-"):
        tracer.count("io.dump.bytes", os.path.getsize(path))


def _set_sample(args, kwargs):
    return args[0] if args else kwargs.get("index")


# (module, name) -> (pre hook or None, post hook or None)
HOOKS = {
    (SOLVER, "solve"): (None, _observe_solve),
    (SOLVER, "ConicProgram.compile"): (_compile_cached, _observe_compile),
    ("freemarg.io", "dump_result"): (None, _observe_dump),
    (DISC, "sample_w_advantage"): (_set_sample, None),
}


class Tracer:
    """Installs the wrappers, records spans while `enabled`, and restores
    every replaced attribute on `uninstall`."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.sample = None
        self.spans: list[list] = []   # [layer, function, op, sample, t0, t1, parent, self_s]
        self.stack: list[list] = []   # [span index, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}   # function -> summed duration
        self.counters: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, targets in LAYERS.items():
            found, missing = [], []
            for modname, attr in targets:
                owner, name, fn = _resolve(modname, attr)
                if fn is None:
                    missing.append(f"{modname}.{attr}")
                else:
                    found.append((modname, attr, owner, name, fn))
            if missing:
                self.absent[layer] = "not found: " + ", ".join(missing)
                continue
            for modname, attr, owner, name, fn in found:
                wrapper = self._wrap(layer, fn, HOOKS.get((modname, attr), (None, None)))
                if isinstance(owner, type):
                    self._patch(owner, name, wrapper)
                else:
                    for mod in _freemarg_modules():
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer, fn, hooks):
        pre, post = hooks
        tracer = self
        name = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ctx = pre(args, kwargs) if pre else None
            if pre is _set_sample:
                tracer.sample = ctx
            tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
                if pre is _set_sample:
                    tracer.sample = None
            if post:
                post(tracer, ctx, args, kwargs, result)
            return result

        return wrapper

    # -- spans and counters ------------------------------------------------

    def _enter(self, layer, name):
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([layer, name, self.op, self.sample, time.perf_counter(), 0.0,
                           parent, 0.0])
        self.stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        t1 = time.perf_counter()
        index, child = self.stack.pop()
        span = self.spans[index]
        span[5] = t1
        duration = t1 - span[4]
        span[7] = duration - child
        if self.stack:
            self.stack[-1][1] += duration
        layer, name = span[0], span[1]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + span[7]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results -----------------------------------------------------------

    def metrics(self, items: int, overhead_pct: float | None) -> dict:
        """Per-layer metrics, each per traced item (sample, request or q6
        operation) unless it is a ratio.  Absent ones carry a reason."""
        per = 1.0 / items if items else float("nan")
        c = self.counters
        solves = self.calls.get("solver.solve", 0)
        iters = c.get("solver.iterations", 0)
        real = c.get("solver.compile.real", 0)
        values = {
            "solver.solves_per_op": solves * per,
            "solver.iterations": iters * per,
            "solver.iters_per_solve": iters / solves if solves else 0.0,
            "solver.ms_per_iter": 1000 * self.self_s.get("solver.solve", 0.0) / iters if iters else 0.0,
            "solver.compile.calls": real * per,
            "solver.rows": c.get("solver.rows", 0) / real if real else 0.0,
            "solver.rank_ratio": c.get("solver.rank", 0) / c["solver.rows"] if c.get("solver.rows") else 0.0,
            "io.dump.bytes": c.get("io.dump.bytes", 0) * per,
            "trace.overhead_pct": overhead_pct,
            "trace.items": float(items),
        }
        for status in ("optimal", "infeasible", "other"):
            values[f"solver.status.{status}"] = c.get(f"solver.status.{status}", 0) * per
        out = {}
        for name, (unit, layer) in PER_LAYER.items():
            if name.endswith(".self_s"):
                value = self.self_s.get(name[: -len(".self_s")], 0.0) * per
            elif name.endswith(".calls") and name not in values:
                value = self.calls.get(name[: -len(".calls")], 0) * per
            else:
                value = values[name]
            reason = self.absent.get(layer) if layer else None
            reason = reason or self.absent.get(name)
            if name == "solver.rank_ratio":
                reason = reason or self.absent.get("solver.rows")
            if value is None and reason is None:
                reason = "no untraced round to compare with"
            out[name] = {"value": None if reason else value, "unit": unit}
            if reason:
                out[name]["absent"] = reason
        return out

    def shares(self, api_seconds: float) -> dict:
        """Where the traced API time went: each layer's self time and each
        function's inclusive time, as a share of `api_seconds`."""
        if not api_seconds:
            return {}
        return {"self": {k: v / api_seconds for k, v in sorted(self.self_s.items())},
                "inclusive": {k: v / api_seconds for k, v in sorted(self.inclusive_s.items())}}

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"columns": ["layer", "function", "op", "sample", "t0_s", "t1_s", "parent",
                                   "self_s"],
                       "spans": [s[:4] + [s[4] - self._t0, s[5] - self._t0] + s[6:]
                                 for s in self.spans]}, fh)


def _freemarg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "freemarg" or name.startswith("freemarg."))]


def _resolve(modname, attr):
    """(owner, name, function) for 'func' or 'Class.method'; function is None
    when the module, class or attribute does not exist."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, attr, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None, name, None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return owner, name, fn if callable(fn) else None
