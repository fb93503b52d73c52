"""Outside-in tracing of the lccsub layers, and the per-layer metrics it yields.

`Tracer.install()` wraps the public functions of the traced modules and
rebinds every name under which another lccsub module looks them up (a
name imported with `from .x import f` is a separate binding from `x.f`).
Each wrapped call records a span (id, parent, name, start, end, thread,
attributes) in memory; `dump()` writes them out when the command ends.

Rules that keep the numbers honest:
  * generators (`fileio.stream_rows`) are timed per `next()`, so the
    consumer's work between chunks is not charged to the parser;
  * each thread keeps its own parent stack; a span opened on an empty
    worker-thread stack takes the main thread's innermost span as parent;
  * `fileio.format_value` is counted, not timed, to keep per-cell cost low;
  * work no wrapper can see is listed in NOT_MEASURED and has no metric,
    so it never reads as zero.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import types

import numpy as np

LAYERS = ("cli", "fileio", "sampling", "_kernels", "glm", "populations", "asymptotics", "experiments")

# Private functions wrapped anyway: the replication body each worker runs.
_EXTRA = {
    ("experiments", "_replicate_explicit"): "experiments.replicate",
    ("experiments", "_replicate_implicit"): "experiments.replicate",
}
# The entry points are the root of the trace; atomic_write returns a context
# manager, so a call span would time only its construction.
_SKIP = {("cli", "main"), ("cli", "build_parser"), ("fileio", "atomic_write")}
_COUNT_ONLY = {"fileio.format_value"}
# Spans that also record the CPU time of their own thread: a worker waiting
# for the interpreter lock is inside its span but not busy.
_THREAD_CPU = {"experiments.replicate"}
_GENERATORS = {"fileio.stream_rows"}

NOT_MEASURED = [
    "populations._soft_newton iterations and step halvings (private, called in-module)",
    "fileio._parse_cell calls (private, called in-module per cell)",
    "cli per-row reservoir loop and row writing (only the cli.unattributed_s remainder)",
    "work in child processes started by the program (none at this commit)",
]


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[4:]
    return f"{layer.lstrip('_')}.{attr}"


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _kernel_attrs(args, kwargs, result):
    outs = result if isinstance(result, tuple) else (result,)
    return {"elements": int(np.size(args[0])), "bytes": _nbytes(args) + _nbytes(outs)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


_ATTRS = {
    "glm.fit_logistic": lambda a, k, r: {
        "rows": int(_arg(a, k, 0, "data").n),
        "iterations": int(r.iterations),
    },
    "populations.integration_grid": lambda a, k, r: {"nodes": int(r.points.shape[0])},
    "populations.population_theta_star": lambda a, k, r: {
        "mc_se_max": float(np.max(r.mc_se))
    },
    "populations.sample_population": lambda a, k, r: {"rows": int(r.n)},
    "experiments.run_experiment": lambda a, k, r: {
        "workers": int(k.get("threads", a[1] if len(a) > 1 else 1))
    },
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span = [next(self._ids), parent, name, time.perf_counter(), None, threading.get_ident(), None]
        stack.append(span)
        return span

    def _close(self, span, attrs=None):
        span[4] = time.perf_counter()
        self._stack().pop()
        span[6] = attrs
        self.spans.append(span)

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, name):
        attrs_fn = _ATTRS.get(name)
        if name.startswith("kernels."):
            attrs_fn = _kernel_attrs

        thread_cpu = name in _THREAD_CPU

        def wrapper(*args, **kwargs):
            span = self._open(name)
            cpu0 = time.thread_time() if thread_cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, {"error": type(exc).__name__})
                raise
            self._close(span)
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            if thread_cpu:
                attrs["cpu_s"] = time.thread_time() - cpu0
            span[6] = attrs or None
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counters[name + ".passes"] = self.counters.get(name + ".passes", 0) + 1
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    chunk = next(inner)
                except StopIteration:
                    self._close(span, {"rows": 0})
                    return
                except BaseException as exc:
                    self._close(span, {"error": type(exc).__name__})
                    raise
                self._close(span, {"rows": int(chunk[3].shape[0])})
                yield chunk

        return wrapper

    def _wrap_counter(self, fn, name):
        key = name + ".calls"
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever lccsub looks it up."""
        modules = {layer: importlib.import_module(f"lccsub.{layer}") for layer in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                    continue
                if (layer, attr) in _EXTRA:
                    targets[value] = _EXTRA[(layer, attr)]
                elif not attr.startswith("_") and (layer, attr) not in _SKIP:
                    targets[value] = _span_name(layer, attr)
        wrappers = {}
        for fn, name in targets.items():
            if name in _COUNT_ONLY:
                wrappers[fn] = self._wrap_counter(fn, name)
            elif name in _GENERATORS:
                wrappers[fn] = self._wrap_generator(fn, name)
            else:
                wrappers[fn] = self._wrap_call(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lccsub" and not mod_name.startswith("lccsub."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"run_id": self.run_id, "spans": self.spans, "counters": self.counters},
                handle,
            )


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _self_times(spans) -> dict:
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - _union_length(children.get(span[0], ()), span[3], span[4])
        for span in spans
    }


def tail_value(durations) -> float:
    """Highest order statistic with at least ten samples above it; the median if too few."""
    values = sorted(durations)
    if not values:
        return 0.0
    if len(values) >= 11:
        return values[-11]
    return float(np.median(values))


def _scipy_import_s(importtime_lines) -> float:
    """Cumulative seconds of the outermost scipy subtrees in `-X importtime` output."""
    rows = []
    for line in importtime_lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip("\n")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[1])))
    total_us = 0
    stack = []  # (depth, inside_scipy) in pre-order, i.e. reversed output
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent_inside = bool(stack) and stack[-1][1]
        inside = parent_inside or name == "scipy" or name.startswith("scipy.")
        if inside and not parent_inside:
            total_us += cumulative
        stack.append((depth, inside))
    return total_us / 1e6


def layer_metrics(dumps, importtime_lines_per_process, import_s_untraced, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced workload iteration.

    dumps: one Tracer dump per command process of the iteration.
    """
    by_name = {}
    self_by_name = {}
    counters = {}
    exp = {"rep_s": 0.0, "busy_s": 0.0, "eff_den": 0.0, "failed": 0, "run_s": 0.0}
    cmd_self = 0.0
    for dump in dumps:
        spans = dump["spans"]
        selfs = _self_times(spans)
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for span in spans:
            by_name.setdefault(span[2], []).append(span)
            self_by_name.setdefault(span[2], []).append(selfs[span[0]])
        for span in spans:
            if span[2] in ("cli.sample", "cli.fit", "cli.simulate", "cli.asymptotics", "cli.oracle"):
                cmd_self += selfs[span[0]]
            if span[2] == "experiments.run_experiment":
                reps = [s for s in spans if s[1] == span[0] and s[2] == "experiments.replicate"]
                workers = (span[6] or {}).get("workers", 1)
                if reps:
                    rep_s = max(s[4] for s in reps) - min(s[3] for s in reps)
                    exp["rep_s"] += rep_s
                    exp["busy_s"] += sum(s[6]["cpu_s"] for s in reps if s[6] and "cpu_s" in s[6])
                    exp["eff_den"] += rep_s * workers
                    exp["failed"] += sum(1 for s in reps if (s[6] or {}).get("error"))
                exp["run_s"] += span[4] - span[3]

    def total(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name.get(name, ()))

    def self_total(name):
        return sum(self_by_name.get(name, ()))

    kernel_names = [n for n in by_name if n.startswith("kernels.")]
    kernels_s = sum(total(n) for n in kernel_names)
    fit_durations = [s[4] - s[3] for s in by_name.get("glm.fit_logistic", ())]
    rows = attr_sum("fileio.stream_rows", "rows")
    stream_s = total("fileio.stream_rows")
    theta_se = [(s[6] or {}).get("mc_se_max", 0.0) for s in by_name.get("populations.population_theta_star", ())]
    scipy_s = [_scipy_import_s(lines) for lines in importtime_lines_per_process]
    run_s, rep_s = exp["run_s"], exp["rep_s"]

    return {
        "cli.import_s": float(np.median(import_s_untraced)),
        "cli.import.scipy_s": float(np.median(scipy_s)) if scipy_s else 0.0,
        "cli.sample.s": total("cli.sample"),
        "cli.fit.s": total("cli.fit"),
        "cli.simulate.s": total("cli.simulate"),
        "cli.asymptotics.s": total("cli.asymptotics"),
        "cli.unattributed_s": cmd_self,
        "fileio.stream_rows.passes": counters.get("fileio.stream_rows.passes", 0),
        "fileio.stream_rows.rows": rows,
        "fileio.stream_rows.s": stream_s,
        "fileio.stream_rows.rows_per_s": rows / stream_s if stream_s > 0 else 0.0,
        "fileio.read_observations_csv.s": total("fileio.read_observations_csv"),
        "fileio.format_value.calls": counters.get("fileio.format_value.calls", 0),
        "sampling.draw_subsample.s": total("sampling.draw_subsample"),
        "sampling.draw_subsample.calls": calls("sampling.draw_subsample"),
        "sampling.fit_pilot_wcc.s": total("sampling.fit_pilot_wcc"),
        "sampling.calibrate_lcc_rate.s": total("sampling.calibrate_lcc_rate"),
        "kernels.lcc_accept.s": total("kernels.lcc_accept"),
        "kernels.lcc_accept.elements": attr_sum("kernels.lcc_accept", "elements"),
        "kernels.s": kernels_s,
        "kernels.calls": sum(calls(n) for n in kernel_names),
        "kernels.bytes_computed": sum(attr_sum(n, "bytes") for n in kernel_names),
        "kernels.share": kernels_s / traced_wall_s,
        "glm.fit_logistic.s": total("glm.fit_logistic"),
        "glm.fit_logistic.calls": calls("glm.fit_logistic"),
        "glm.fit_logistic.iterations": attr_sum("glm.fit_logistic", "iterations"),
        "glm.fit_logistic.rows": attr_sum("glm.fit_logistic", "rows"),
        "glm.fit_logistic.p50_s": float(np.median(fit_durations)) if fit_durations else 0.0,
        "glm.fit_logistic.tail_s": tail_value(fit_durations),
        "populations.integration_grid.s": total("populations.integration_grid"),
        "populations.integration_grid.calls": calls("populations.integration_grid"),
        "populations.integration_grid.nodes": attr_sum("populations.integration_grid", "nodes"),
        "populations.population_theta_star.s": total("populations.population_theta_star"),
        "populations.population_theta_star.calls": calls("populations.population_theta_star"),
        "populations.population_theta_star.self_s": self_total("populations.population_theta_star"),
        "populations.theta_mc_se": max(theta_se, default=0.0),
        "populations.sample_population.s": total("populations.sample_population"),
        "populations.sample_population.rows": attr_sum("populations.sample_population", "rows"),
        "asymptotics.eval_matrices.s": total("asymptotics.eval_matrices"),
        "asymptotics.eval_matrices.self_s": self_total("asymptotics.eval_matrices"),
        "asymptotics.sigma_full.s": total("asymptotics.sigma_full"),
        "experiments.run_experiment.s": run_s,
        "experiments.replications.s": rep_s,
        "experiments.replications.busy_s": exp["busy_s"],
        "experiments.parallel_eff": exp["busy_s"] / exp["eff_den"] if exp["eff_den"] > 0 else 0.0,
        "experiments.bootstrap_se.s": total("experiments.bootstrap_se"),
        "experiments.bootstrap_se.calls": calls("experiments.bootstrap_se"),
        "experiments.failed_reps": exp["failed"],
        "experiments.speedup_cap_2x": run_s / (run_s - rep_s / 2) if run_s > 0 else 0.0,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
