#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the lccsub command-line paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The workloads (see BENCHMARK.json and
workloads.py) run the real `lccsub` commands, each in a fresh Python
process started through launch.py, on inputs generated from the seed.

An untraced run repeats the workload (at least twice, with the same seed)
while one more iteration is expected to end within S seconds, and reports
the medians of the end-to-end metrics.  A traced run repeats it untraced
within S/2 seconds (at least once), then once more with every layer
wrapped, and reports the per-layer metrics of the traced iteration plus
its overhead against the untraced median.  Every iteration's output files must be byte-identical
to the first's (the determinism contract) and pass the workload's checks.

The last stdout line is the result object; the line before it is a detail
object with the raw samples, the failed checks, and run metadata.  Both
are also written to .perfbench/results/.  --smoke runs toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_DEADLINE_S = 165.0  # commands still running this long after the start are killed
SETUP_PROBES = 2  # import-only processes per run, beside the command processes


def _median(values):
    return float(statistics.median(values))


class Process:
    """One finished command process: its timings, exit code and peak RSS."""

    def __init__(self, label, rc, spawn, end, usage, import_s, stderr_path):
        self.label, self.rc = label, rc
        self.spawn, self.end = spawn, end
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.import_s = import_s
        self.stderr_path = stderr_path


def spawn(label, argv, it_dir: Path, deadline: float, trace_id=None) -> Process:
    meta = it_dir / f"{label}.meta.json"
    cmd = [sys.executable]
    if trace_id is not None:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "launch.py"), "--meta", str(meta)]
    if trace_id is not None:
        cmd += ["--trace", str(it_dir / f"{label}.spans.json"), "--run-id", trace_id]
    cmd += ["--", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    stderr_path = it_dir / f"{label}.stderr"
    with open(it_dir / f"{label}.stdout", "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    import_s = None
    if meta.exists():
        import_s = json.loads(meta.read_text())["import_s"]
    return Process(label, rc, start, end, usage, import_s, stderr_path)


class Iteration:
    def __init__(self, index, processes, problems, facts, outputs):
        self.index = index
        self.processes = processes
        self.problems = problems  # {label: [problem, ...]}
        self.facts = facts
        self.outputs = outputs  # {(label, file): bytes}

    @property
    def wall_s(self):
        return self.processes[-1].end - self.processes[0].spawn


def run_iteration(workload, prep, run_dir: Path, index: int, seed: int, deadline: float,
                  trace_id=None):
    it_dir = run_dir / f"it{index}"
    it_dir.mkdir()
    processes, problems, facts, outputs = [], {}, {}, {}
    normalize = getattr(workload, "normalize", lambda name, data: data)
    for command in workload.commands(prep, it_dir, seed):
        proc = spawn(command.label, command.argv, it_dir, deadline, trace_id)
        processes.append(proc)
        issues = problems.setdefault(command.label, [])
        if proc.rc != 0:
            tail = proc.stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            issues.append(f"exit code {proc.rc}: {' | '.join(tail)}")
            break
        try:
            found, more = command.check(it_dir)
        except (OSError, ValueError, KeyError, StopIteration, IndexError) as exc:
            found, more = [f"output unreadable: {type(exc).__name__}: {exc}"], {}
        issues.extend(found)
        facts.update(more)
        for name in command.outputs:
            path = it_dir / name
            if path.exists():
                outputs[(command.label, name)] = normalize(name, path.read_bytes())
    return Iteration(index, processes, problems, facts, outputs)


def check_determinism(iterations):
    """Mark a command failed when its outputs differ from the first iteration's."""
    first = iterations[0]
    for it in iterations[1:]:
        for (label, name), data in it.outputs.items():
            if first.outputs.get((label, name)) != data:
                it.problems.setdefault(label, []).append(
                    f"{name} differs from iteration {first.index} (same seed)"
                )


def count_operations(iterations):
    """Operations are command invocations and study replications."""
    attempted = failed = 0
    for it in iterations:
        attempted += len(it.processes) + it.facts.get("replications", 0)
        failed += sum(1 for issues in it.problems.values() if issues)
        failed += it.facts.get("failed_replications", 0)
    return attempted, failed


def run_metadata(workload, prep, seed):
    import numpy as np
    import scipy

    from lccsub import _kernels

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        from lccsub import populations

        sobol_nodes = 2 * 2 ** populations._QMC_LOG2_PER_CLASS
    except AttributeError:
        sobol_nodes = None
    threads_env = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.active_backend_name,
        "blas": blas,
        "blas_threads_env": threads_env,
        "grid_nodes": {"theta_star_sobol": sobol_nodes, "mc_nodes": prep.meta.get("mc_nodes")},
        **prep.meta,
    }


def setup_probes(run_dir: Path, deadline: float) -> list:
    probe_dir = run_dir / "probes"
    probe_dir.mkdir()
    probes = [spawn(f"probe{i}", [], probe_dir, deadline) for i in range(SETUP_PROBES)]
    return [p.import_s for p in probes if p.rc == 0 and p.import_s is not None]


def end_to_end(iterations, probe_imports):
    imports = [p.import_s for it in iterations for p in it.processes if p.import_s is not None]
    per_iteration = max(len(it.processes) for it in iterations)
    samples = {
        "wall_s": [it.wall_s for it in iterations],
        "cpu_s": [sum(p.cpu_s for p in it.processes) for it in iterations],
        "import_s": imports,
        "probe_import_s": probe_imports,
        "peak_rss_mb": [max(p.rss_mb for p in it.processes) for it in iterations],
    }
    metrics = {
        "wall_s": _median(samples["wall_s"]),
        # set-up: median import of one fresh process, times command processes per iteration
        "setup_s": _median(imports + probe_imports) * per_iteration,
        "peak_rss_mb": _median(samples["peak_rss_mb"]),
    }
    return metrics, samples


def repeat(workload, prep, run_dir, seed, budget_s, min_iterations, deadline):
    """Run untraced iterations while another one is expected to end within budget_s.

    A failed command ends the repetition: its outputs are missing or wrong anyway.
    """
    iterations = []
    start = time.perf_counter()
    while len(iterations) < min_iterations or (
        time.perf_counter() + _median([it.wall_s for it in iterations])
        <= min(start + budget_s, deadline)
    ):
        iterations.append(run_iteration(workload, prep, run_dir, len(iterations), seed, deadline))
        if any(p.rc != 0 for p in iterations[-1].processes):
            break
    return iterations


def traced_layers(traced, run_dir, samples, untraced_wall_s, results_dir, trace_id):
    from tracer import layer_metrics

    dumps, importtime = [], []
    for proc in traced.processes:
        spans = run_dir / f"it{traced.index}" / f"{proc.label}.spans.json"
        if spans.exists():
            dumps.append(json.loads(spans.read_text()))
        importtime.append(proc.stderr_path.read_text(errors="replace").splitlines())
    with open(results_dir / f"{trace_id}.spans.json", "w") as handle:
        json.dump(dumps, handle)
    values = layer_metrics(dumps, importtime, samples["import_s"], traced.wall_s, untraced_wall_s)
    values["sampling.target_size_err"] = traced.facts.get("target_size_err", 0.0)
    return values, sum(len(d["spans"]) for d in dumps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (SRC / "lccsub" / "cli.py").is_file():
        print(f"error: no lccsub sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{run_id}-{os.getpid()}"
    run_dir.mkdir()
    try:
        t0 = time.perf_counter()
        import lccsub.cli  # noqa: F401  (warms bytecode and file caches before timing)

        prep = workload.prepare(run_dir, args.seed)
        prepare_s = time.perf_counter() - t0
        meta = run_metadata(workload, prep, args.seed)
        probe_imports = setup_probes(run_dir, deadline)

        if args.trace:
            untraced = repeat(workload, prep, run_dir, args.seed, args.seconds / 2, 1, deadline)
            traced = run_iteration(workload, prep, run_dir, len(untraced), args.seed, deadline,
                                   run_id)
            iterations = untraced + [traced]
        else:
            iterations = untraced = repeat(workload, prep, run_dir, args.seed, args.seconds, 2,
                                          deadline)
        check_determinism(iterations)
        if not any(p.import_s is not None for it in untraced for p in it.processes):
            print("error: no command process got past importing lccsub.cli", file=sys.stderr)
            for it in iterations:
                for proc in it.processes:
                    sys.stderr.write(proc.stderr_path.read_text(errors="replace")[-2000:])
            return 1

        e2e, samples = end_to_end(untraced, probe_imports)
        attempted, failed = count_operations(iterations)
        detail = {
            "meta": meta,
            "prepare_s": prepare_s,
            "iterations": len(untraced),
            "samples": samples,
            "failed_checks": {
                f"it{it.index}.{label}": issues
                for it in iterations for label, issues in it.problems.items() if issues
            },
            "failed_frac": failed / attempted,
            "facts": iterations[-1].facts,
        }
        if args.trace:
            from tracer import NOT_MEASURED

            values, detail["trace_spans"] = traced_layers(
                traced, run_dir, samples, e2e["wall_s"], results_dir, run_id)
            detail["traced_wall_s"] = traced.wall_s
            detail["not_measured"] = NOT_MEASURED
            declared = spec["per_layer"]
        else:
            values, declared = e2e, spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not detail["failed_checks"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (results_dir / f"{run_id}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
