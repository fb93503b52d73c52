#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times each hot kernel on large arrays, for both backends in one process.
The package-level selection is the env flag LCCSUB_NO_NUMBA; here both
backends are exercised directly.  End-to-end runs of the CLI commands,
with a per-layer split, are in perfbench/ (see perfbench/README.md).

Usage: python benchmarks/bench_kernels.py [--n 2000000] [--repeats 5]
"""

import argparse
import time

import numpy as np

from lccsub import _kernels as K


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    eta = rng.standard_normal(args.n) * 6
    y = (rng.random(args.n) < 0.1).astype(np.float64)
    w = rng.uniform(0.5, 2.0, args.n)
    u = rng.random(args.n)

    cases = {
        "log1pexp": lambda b: b["log1pexp"](eta),
        "sigmoid": lambda b: b["sigmoid"](eta),
        "nll_sum": lambda b: b["nll_sum"](eta, y, w),
        "score_residual": lambda b: b["score_residual"](eta, y, w),
        "curvature_weights": lambda b: b["curvature_weights"](eta, w),
        "lcc_accept(c=5)": lambda b: b["lcc_accept"](eta, y, 5.0, u, False),
    }

    backends = {"numpy": K.numpy_backend}
    if K.numba_backend is not None:
        backends["numba"] = K.numba_backend
        for call in cases.values():  # compile outside the timed region
            call(K.numba_backend)
    else:
        print("numba unavailable; timing the numpy backend only")

    header = f"{'kernel':<22}" + "".join(f"{name:>12}" for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(f"n = {args.n:,} rows, best of {args.repeats}")
    print(header)
    print("-" * len(header))
    for label, call in cases.items():
        times = {name: best_of(lambda b=b: call(b), args.repeats) for name, b in backends.items()}
        line = f"{label:<22}" + "".join(f"{times[name] * 1e3:>10.2f}ms" for name in times)
        if len(times) == 2:
            line += f"{times['numpy'] / times['numba']:>9.2f}x"
        print(line)


if __name__ == "__main__":
    main()
