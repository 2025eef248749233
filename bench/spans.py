"""Spans at the plrds module boundaries, recorded from outside the package.

`from .x import y` binds `y` separately in every importing module, so a span
around a layer's function must replace each of those bindings, and also the
defining module's own attribute, which same-module callers, function-level
imports and `module.name` calls read at call time.  `Tracer.install` does
that for every plrds function that some plrds module (the package namespace
included) binds outside its defining module, plus the few entry points that
are only reached as module attributes.  `Tracer.restore` puts every original
back.  Nothing under src/ changes.

A span is `[rep, name, start_ns, end_ns, parent, error, amount]`: `parent`
indexes the enclosing span (-1 at the top), `error` names an exception that
left the call, and `amount` is the work count a hook derives from the call
(integrator steps, kernel nodes, OU nodes, bytes written).  Spans stay in
memory; `Tracer.dump` writes them when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "config", "analysis", "integrator", "fields", "noise",
          "problem")

# Entry points reached only as module attributes, never bound elsewhere:
# the benchmark calls cli.main, main calls run_experiment, and analysis calls
# absorbing_bound from its own tasks.  EndpointEnsemble.spread is the set
# distance estimate-attractor uses.
_EXTRA = (("plrds.cli", "main"), ("plrds.cli", "run_experiment"),
          ("plrds.analysis", "absorbing_bound"))
_METHODS = (("plrds.fields", "EndpointEnsemble", "spread"),)

IO_SPANS = ("fields.field_to_csv", "fields.field_to_binary")
SPAN_FIELDS = ("rep", "name", "start_ns", "end_ns", "parent", "error",
               "amount")


def _bound_arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _steps_hook(fn):
    def steps(args, kwargs, result):
        t = _bound_arg(fn, "t", args, kwargs)
        cfg = _bound_arg(fn, "cfg", args, kwargs)
        return int(round(t / cfg.dt))
    return steps


def _nodes_hook(fn):
    return lambda args, kwargs, result: int(args[0].size)


def _ou_hook(fn):
    return lambda args, kwargs, result: len(result.values)


def _bytes_hook(fn):
    def written(args, kwargs, result):
        return os.path.getsize(_bound_arg(fn, "path", args, kwargs))
    return written


_HOOKS = {
    "integrator.cocycle_apply": _steps_hook,
    "fields.face_data": _nodes_hook,
    "noise.ou_from_path": _ou_hook,
    "fields.field_to_csv": _bytes_hook,
    "fields.field_to_binary": _bytes_hook,
}


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", None) or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "plrds" and parts[1] in LAYERS:
        return parts[1]
    return None


def _is_function(obj) -> bool:
    return callable(obj) and not inspect.isclass(obj) \
        and _layer_of(obj) is not None


def _plrds_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if name == "plrds" or name.startswith("plrds.")}


def find_bindings():
    """[(owner, attribute, original, span name)] for every traced binding."""
    modules = _plrds_modules()
    targets = {id(getattr(modules[m], attr)) for m, attr in _EXTRA}
    for modname, mod in modules.items():
        targets.update(id(v) for v in vars(mod).values()
                       if _is_function(v) and v.__module__ != modname)
    out = []
    for mod in modules.values():
        for attr, value in sorted(vars(mod).items()):
            if id(value) in targets:
                out.append((mod, attr, value,
                            f"{_layer_of(value)}.{value.__name__.lstrip('_')}"))
    for modname, cls, attr in _METHODS:
        owner = getattr(modules[modname], cls)
        value = vars(owner)[attr]
        out.append((owner, attr, value, f"{_layer_of(value)}.{attr}"))
    return out


class Tracer:
    """Installs span wrappers on every binding and records spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.rep = -1
        self._stack = []
        self._bindings = find_bindings()
        self._wrappers = {}
        for _, _, fn, name in self._bindings:
            if id(fn) not in self._wrappers:
                hook = _HOOKS.get(name)
                self._wrappers[id(fn)] = self._wrap(
                    name, fn, hook(fn) if hook else None)

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tracer.rep, name, 0, 0, stack[-1] if stack else -1,
                    None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            return result
        return traced

    def install(self, rep: int) -> None:
        self.rep = rep
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, self._wrappers[id(fn)])

    def restore(self) -> None:
        for owner, attr, fn, _ in reversed(self._bindings):
            setattr(owner, attr, fn)
        if self._stack:
            raise RuntimeError("span stack not empty after a traced call")
        leftover = [f"{o.__name__}.{a}" for o, a, fn, _ in self._bindings
                    if vars(o)[a] is not fn]
        if leftover:
            raise RuntimeError("bindings not restored: " + ", ".join(leftover))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": SPAN_FIELDS,
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _aggregate(spans, idx):
    """One pass over a call's spans: per-name calls, busy time (outermost
    spans of the name only), work amount and errors, per-layer self time,
    and the kernel time spent inside cocycle_apply."""
    dur = {i: (spans[i][3] - spans[i][2]) * 1e-9 for i in idx}
    child = dict.fromkeys(idx, 0.0)
    calls, busy, amount, errors = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    kernel_in_apply = 0.0
    for i in idx:
        if spans[i][4] >= 0:
            child[spans[i][4]] += dur[i]
    for i in idx:
        _, name, _, _, parent, error, work = spans[i]
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0) + work
        if error:
            errors[(name, error)] = errors.get((name, error), 0) + 1
        layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][1])
            p = spans[p][4]
        if name not in ancestors:
            busy[name] = busy.get(name, 0.0) + dur[i]
        if name == "fields.face_data" and \
                "integrator.cocycle_apply" in ancestors:
            kernel_in_apply += dur[i]
    return calls, busy, amount, errors, layer_self, kernel_in_apply


def rep_metrics(spans, rep: int) -> dict:
    """Per-layer numbers for one traced experiment call."""
    idx = [i for i, s in enumerate(spans) if s[0] == rep]
    calls, busy, amount, errors, layer_self, kernel = _aggregate(spans, idx)

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    steps = amount.get("integrator.cocycle_apply", 0)
    apply_busy = busy.get("integrator.cocycle_apply", 0.0)
    ou_nodes = amount.get("noise.ou_from_path", 0)
    ou_busy = busy.get("noise.ou_from_path", 0.0)
    out = {
        "integrator.steps": steps,
        "integrator.cocycle_apply.calls":
            calls.get("integrator.cocycle_apply", 0),
        "integrator.cocycle_apply.busy_s": apply_busy,
        "integrator.us_per_step": apply_busy / steps * 1e6 if steps else 0.0,
        "integrator.stiffness_errors":
            errors.get(("integrator.cocycle_apply", "StiffnessError"), 0),
        "fields.face_data.calls": calls.get("fields.face_data", 0),
        "fields.face_data.busy_s": busy.get("fields.face_data", 0.0),
        "fields.face_data.nodes": amount.get("fields.face_data", 0),
        "fields.kernel_share": kernel / apply_busy if apply_busy else 0.0,
        "fields.hausdorff.busy_s":
            busy.get("fields.hausdorff_semidistance", 0.0),
        "fields.spread.busy_s": busy.get("fields.spread", 0.0),
        "fields.io.busy_s": total(busy, *IO_SPANS),
        "fields.io.bytes": total(amount, *IO_SPANS),
        "noise.ou_from_path.calls": calls.get("noise.ou_from_path", 0),
        "noise.ou_from_path.busy_s": ou_busy,
        "noise.ou_nodes": ou_nodes,
        "noise.ns_per_ou_node": ou_busy / ou_nodes * 1e9 if ou_nodes else 0.0,
        "noise.make_eta.busy_s": busy.get("noise.make_eta", 0.0),
        "noise.ergodic_diagnostics.busy_s":
            busy.get("noise.ergodic_diagnostics", 0.0),
        "analysis.absorbing_bound.calls":
            calls.get("analysis.absorbing_bound", 0),
        "analysis.absorbing_bound.busy_s":
            busy.get("analysis.absorbing_bound", 0.0),
        "analysis.energy_audit.busy_s": busy.get("analysis.energy_audit", 0.0),
        "analysis.sample_initial_ball.busy_s":
            busy.get("analysis.sample_initial_ball", 0.0),
        "problem.check_growth_condition.busy_s":
            busy.get("problem.check_growth_condition", 0.0),
        "cli.run_experiment.busy_s": busy.get("cli.run_experiment", 0.0),
        "config.parse_config.busy_s": busy.get("config.parse_config", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


# Counts that must repeat bit for bit between traced calls of one workload.
EXACT = ("integrator.steps", "fields.face_data.calls", "noise.ou_nodes",
         "fields.io.bytes")


def summarize(per_rep: list) -> dict:
    """Median of each per-layer number over the traced calls (the lower
    middle value, so counts stay whole numbers)."""
    return {k: statistics.median_low(r[k] for r in per_rep)
            for k in per_rep[0]}
