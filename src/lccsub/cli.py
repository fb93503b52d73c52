"""Command-line interface.

Commands: oracle (population limits), sample (subsample a CSV by the
library's pilot rule and accept pass), fit (logistic fit of a CSV),
asymptotics (population matrices/variance), simulate (replication studies).

Every run resolves one seed (explicit --seed or a fresh random one),
prints it on stderr, and records it in the outputs, so identical
invocations are byte-identical.  Exit codes: 0 success, 1 usage/parse
errors, 2 numerical failures (separation/singularity), 3 budget or
acceptance caps exceeded.
"""

from __future__ import annotations

import argparse
import copy
import csv
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .asymptotics import conditional_bias_slope, eval_matrices, lcc_variance
from .experiments import TooManyFailures, one_blas_thread, run_experiment
from .fileio import (
    ConfigError,
    CsvFormatError,
    OFFSET_COLUMN,
    WEIGHT_COLUMN,
    _require_keys,
    convert_records,
    format_value,
    load_config_file,
    map_shards,
    parse_experiment,
    parse_population,
    read_coefficients,
    read_observations_csv,
    shard_plan,
    write_coefficients,
    write_observations_csv,
    write_report,
)
from .glm import FitConfig, GlmError, ModelParams, ObservationSet, fit_logistic
from .populations import (
    DiscretePopulation,
    StepLogit,
    equal_class_bias,
    integration_grid,
    marginal_odds_ratio,
    population_theta_star,
    theta_cc_limit,
    true_log_odds,
)
from .sampling import (
    CaseControl,
    EmptySubsample,
    LocalCaseControl,
    TooFewCases,
    Uniform,
    WeightedCaseControl,
    accept_finish,
    accept_scan,
    class_balanced_scheme,
    class_counts,
    fit_subsample,
    pilot_scan,
    pilot_subsample,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        import secrets  # here: a run given --seed never needs it
        seed = secrets.randbits(63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _emit(rows, args, comments=(), json_extra=None, out=None):
    out = out or getattr(args, "out", None) or "-"
    write_report(out, rows, args.format, comments=comments, json_extra=json_extra)


def _load_population(path):
    raw = load_config_file(path)
    if "population" not in raw:
        raise ConfigError(f"{path}: missing key 'population'")
    return parse_population(raw["population"])


def _coef_rows(label, params: ModelParams, names):
    values = [params.intercept, *(float(v) for v in params.slopes)]
    return [
        {"quantity": label, "coefficient": name, "value": value}
        for name, value in zip(["intercept", *names], values)
    ]


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    seed = _resolve_seed(args)
    spec = _load_population(args.spec)
    names = [f"x{i + 1}" for i in range(spec.p)]
    star = population_theta_star(spec, tol=args.tol)
    b_eq = equal_class_bias(spec)
    rows = _coef_rows("theta_star", star.params, names)
    rows.append({"quantity": "equal_class_bias", "coefficient": "", "value": b_eq})
    b_values = [b_eq, *(args.b or [])]
    for b in b_values:
        cc = theta_cc_limit(spec, b, tol=args.tol)
        rows.extend(_coef_rows(f"theta_cc[b={b:.6g}]", cc.params, names))
    if isinstance(spec, DiscretePopulation):
        for j in range(spec.p):
            col = spec.points[:, j]
            if set(np.unique(col)) == {0.0, 1.0}:
                rows.append(
                    {
                        "quantity": "marginal_odds_ratio",
                        "coefficient": names[j],
                        "value": marginal_odds_ratio(spec, j),
                    }
                )
    if isinstance(spec, StepLogit):
        plot_path = args.plot_out or (
            (args.out or "steplogit") + ".fig1.csv"
            if args.out != "-"
            else "steplogit.fig1.csv"
        )
        _write_steplogit_plot(plot_path, spec, star.params)
        print(f"plot data: {plot_path}", file=sys.stderr)
    _emit(rows, args, comments=[f"seed {seed}", f"spec {args.spec}"], json_extra={"seed": seed})
    return EXIT_OK


def _write_steplogit_plot(path, spec: StepLogit, params: ModelParams):
    x = integration_grid(spec).points
    f_true = true_log_odds(spec, x)
    f_fit = params.intercept + params.slopes[0] * x[:, 0]
    rows = [
        {
            "x": float(xi),
            "true_log_odds": float(t),
            "fit_log_odds": float(f),
            "true_prob": float(1 / (1 + np.exp(-t))),
            "fit_prob": float(1 / (1 + np.exp(-f))),
        }
        for xi, t, f in zip(x[:, 0], f_true, f_fit)
    ]
    write_report(path, rows, "csv")


# ---------------------------------------------------------------------------
# sample


def _count_pass(path, plan):
    def scan(chunks, first):
        return [class_counts(labels) for _, _, _, labels, _, _ in chunks]

    _, shards = map_shards(path, scan, plan, labels_only=True)
    return tuple(map(sum, zip(*(counts for shard in shards for counts in shard))))


def _generator_at(rng, row: int):
    """A copy of rng at the draw a pass from row 0 reaches at `row`: one random() per row."""
    rng = copy.deepcopy(rng)
    rng.bit_generator.advance(row)
    return rng


def _pilot_pass(path, per_class, rng, plan):
    """`sample`'s pilot: sampling.pilot_scan over each shard's positions, labels,
    keys and raw records, one key per row in file order as fit_pilot_wcc, and
    then over the shards' kept rows; only the records kept at the end are
    converted.  rng ends where one draw per row leaves it."""

    def scan(chunks, first):
        keys_rng = _generator_at(rng, first)
        return pilot_scan(((np.arange(start - 1, start - 1 + labels.shape[0]), labels,
                            keys_rng.random(labels.shape[0]), np.fromiter(records, object))
                           for _, start, records, labels, _, _ in chunks), per_class)

    header, shards = map_shards(path, scan, plan, labels_only=True)
    seen = tuple(map(sum, zip(*(shard[0] for shard in shards))))
    rng.bit_generator.advance(sum(seen))
    _, (rows, labels, _, records) = pilot_scan([shard[1] for shard in shards], per_class)
    return pilot_subsample(seen, rows, labels, convert_records(header, records)[2])


def _read_through(chunks, first):
    for _ in chunks:
        pass


@contextmanager
def _file_errors_first(path, plan):
    """On any exception from a label-only step, one full check pass runs
    first, so a bad file raises its first CsvFormatError as a full pass would."""
    try:
        yield
    except Exception:
        map_shards(path, _read_through, plan)
        raise


# the options each scheme reads, and pairs whose first option leaves the second unused
_SCHEME_OPTIONS = {
    "uniform": ("rate",),
    "cc": ("a0", "a1", "target_size"),
    "wcc": ("a0", "a1", "target_size"),
    "lcc": ("pilot", "pilot_size", "c", "target_size", "retain_cases"),
}
_OVERRIDES = (("target_size", "a0"), ("target_size", "a1"), ("pilot", "pilot_size"))
# the smallest sizes: the pilot keeps pilot_size // 2 rows of each class
_LEAST_SIZES = (("pilot_size", 4), ("target_size", 1))


def _refuse_bad_options(args):
    """A sample option the run would ignore or needs and lacks, or a size
    below its least, is a usage error."""
    names = sorted({name for names in _SCHEME_OPTIONS.values() for name in names})
    # `is`, not `in`: --rate 0 is given, though 0.0 == False
    given = [n for n in names if getattr(args, n) is not None and getattr(args, n) is not False]
    flag = {name: "--" + name.replace("_", "-") for name in names}
    for name in given:
        if name not in _SCHEME_OPTIONS[args.scheme]:
            raise _UsageError(f"{flag[name]} is not used by --scheme {args.scheme}")
    for first, second in _OVERRIDES:
        if first in given and second in given:
            raise _UsageError(f"{flag[second]} is not used with {flag[first]}")
    for name, least in _LEAST_SIZES:
        if name in given and getattr(args, name) < least:
            raise _UsageError(f"{flag[name]} must be at least {least}")
    if args.scheme == "uniform" and args.rate is None:
        raise _UsageError("--rate is required for uniform sampling")
    if args.scheme in ("cc", "wcc") and args.target_size is None and None in (args.a0, args.a1):
        raise _UsageError(f"--a0/--a1 or --target-size required for {args.scheme}")


def _build_scheme(args, seed, plan, pilot):
    """Resolve the scheme, running count/pilot passes over plan's shards if needed.

    `pilot` is --pilot's coefficients, if given.  Returns (scheme,
    pilot_source); for lcc with --target-size the acceptance pass then
    solves c.
    """
    if args.scheme == "uniform":
        return Uniform(args.rate), None
    if args.scheme in ("cc", "wcc"):
        cls = CaseControl if args.scheme == "cc" else WeightedCaseControl
        if args.target_size is None:
            return cls(a0=args.a0, a1=args.a1), None
        with _file_errors_first(args.data, plan):
            counts = _count_pass(args.data, plan)
            return class_balanced_scheme(counts, args.target_size, args.scheme == "wcc"), None
    # lcc
    if pilot is not None:
        pilot_source = args.pilot
    else:
        pilot_size = 1000 if args.pilot_size is None else args.pilot_size
        rng_pilot = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        with _file_errors_first(args.data, plan):
            pilot = fit_subsample(_pilot_pass(args.data, pilot_size // 2, rng_pilot, plan)).params
        pilot_source = f"wcc reservoir (size {pilot_size})"
    scheme = LocalCaseControl(
        pilot, c=1.0 if args.c is None else args.c, retain_cases=args.retain_cases
    )
    return scheme, pilot_source


def cmd_sample(args) -> int:
    if not args.out or args.out == "-":
        raise _UsageError("sample needs --out PATH for the subsample CSV")
    _refuse_bad_options(args)
    with open(args.data, newline="") as src:
        columns = next(csv.reader(src), [])
    if WEIGHT_COLUMN in columns or OFFSET_COLUMN in columns:
        raise CsvFormatError(
            "input already has weight/offset columns; sample from raw feature CSVs"
        )
    seed = _resolve_seed(args)
    pilot = None if args.pilot is None else read_coefficients(args.pilot)[0]
    plan = shard_plan(args.data)  # after every usage error: one newline scan serves every pass
    scheme, pilot_source = _build_scheme(args, seed, plan, pilot)
    target_size = args.target_size if args.scheme == "lcc" else None
    rng = np.random.default_rng(seed)

    def scan(chunks, first):
        shard_rng = _generator_at(rng, first)
        draws = ((f, labels, shard_rng.random(labels.shape[0])) for _, _, f, labels, _, _ in chunks)
        return accept_scan(scheme, draws, target_size, first)

    header, shards = map_shards(args.data, scan, plan)
    sub = accept_finish(shards)
    write_observations_csv(args.out, sub.to_observation_set(), header.feature_names)
    summary = {
        "seed": seed,
        "scheme": _scheme_label(sub.scheme),
        "rows_read": sub.rows_read,
        "realized_size": sub.realized_size,
        "expected_size": sub.expected_size,
        "acceptance_rate_estimate": sub.expected_size / sub.rows_read,
        "pilot_source": pilot_source or "",
        "adjustment": " ".join(format_value(v) for v in sub.adjustment),
    }
    summary_rows = [{"key": key, "value": value} for key, value in summary.items()]
    if args.summary:
        write_report(
            args.summary,
            summary_rows,
            args.format,
            comments=[f"subsample of {args.data}"],
            json_extra={"seed": seed},
        )
    realized, expected, variance = sub.realized_size, sub.expected_size, sub.size_variance
    z = (realized - expected) / np.sqrt(variance) if variance > 0 else 0.0
    print(
        f"kept {realized} of {sub.rows_read} rows "
        f"(expected {expected:.1f}, z {z:+.2f}) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _scheme_label(scheme) -> str:
    if isinstance(scheme, Uniform):
        return f"uniform(rate={scheme.rate:.6g})"
    if isinstance(scheme, CaseControl):
        return f"cc(a0={scheme.a0:.6g}, a1={scheme.a1:.6g})"
    if isinstance(scheme, WeightedCaseControl):
        return f"wcc(a0={scheme.a0:.6g}, a1={scheme.a1:.6g})"
    return f"lcc(c={scheme.c:.6g}, retain_cases={scheme.retain_cases})"


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    seed = _resolve_seed(args)
    obs, names = read_observations_csv(args.data)
    if args.ignore_offsets:
        obs = ObservationSet(obs.features, obs.labels, weights=obs.weights)
    config = FitConfig(grad_tol=args.grad_tol)
    result = fit_logistic(obs, config)
    params = result.params
    if args.adjustment:
        adj, _ = read_coefficients(args.adjustment)
        if adj.slopes.size != params.slopes.size:
            raise ConfigError("adjustment dimension does not match the fit")
        params = ModelParams.from_array(params.as_array() + adj.as_array())
    if args.out and args.out != "-":
        write_coefficients(args.out, params, names)
    rows = _coef_rows("coefficients", params, names)
    for quantity, value in (("grad_norm", result.grad_norm), ("iterations", result.iterations)):
        rows.append({"quantity": quantity, "coefficient": "", "value": float(value)})
    # the coefficient file goes to --out; the report always to stdout
    _emit(
        rows,
        args,
        comments=[f"seed {seed}", f"fit of {args.data}"],
        json_extra={"seed": seed},
        out="-",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotics


def cmd_asymptotics(args) -> int:
    seed = _resolve_seed(args)
    spec = _load_population(args.spec)
    star = None
    if "star" in (args.theta, args.pilot):
        star = population_theta_star(spec, tol=args.tol).params
    theta, pilot = (
        star if value == "star" else read_coefficients(value)[0]
        for value in (args.theta, args.pilot)
    )
    report = eval_matrices(spec, theta, LocalCaseControl(pilot, args.c))
    variance = lcc_variance(report)
    slope = conditional_bias_slope(report)
    rows = [{"quantity": "abar", "row": 0, "col": 0, "value": report.abar}]
    mats = {"G": report.G[:, None], "H": report.H, "J": report.J, "C": report.C,
            "Sigma": report.Sigma, "SigmaFull": report.SigmaFull, "variance": variance,
            "bias_slope": slope}
    for name, mat in mats.items():
        for (i, j), value in np.ndenumerate(mat):
            rows.append({"quantity": name, "row": i, "col": j, "value": float(value)})
    extra = {
        "seed": seed,
        "c": report.scheme.c,
        "theta": report.theta.as_array(),
        "pilot": report.scheme.pilot.as_array(),
    }
    _emit(rows, args, comments=[f"seed {seed}", f"spec {args.spec}"], json_extra=extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _print_failures(failures):
    print(f"failed replications: {len(failures)}", file=sys.stderr)
    for rep, kind, message in failures:
        print(f"  replication {rep}: {kind}: {message}", file=sys.stderr)


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise _UsageError("--threads must be at least 1")
    raw = load_config_file(args.config)
    _require_keys(raw, {"population", "experiment"}, {"population", "experiment"}, args.config)
    spec = parse_population(raw["population"])
    config = parse_experiment(raw["experiment"], spec)
    echo = dict(raw["experiment"])  # the config the study runs with
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
        echo["master_seed"] = args.seed
    print(f"seed: {config.master_seed}", file=sys.stderr)
    try:
        report = run_experiment(config, threads=args.threads)
    except TooManyFailures as exc:
        _print_failures(exc.failures)
        raise
    blas = report.blas_threads
    per_worker = "not pinned" if blas is None else f"{blas[0]} (was {blas[1]})"
    print(f"runtime: {report.runtime_seconds:.3f} s, workers: {report.workers}, "
          f"BLAS threads per worker: {per_worker}", file=sys.stderr)
    _print_failures(report.failures)
    columns = ("bias_sq", "bias_sq_se", "var", "var_se", "mean_subsample_size", "n_failures")
    rows = [{"method": method, **{name: getattr(summary, name) for name in columns}}
            for method, summary in report.methods.items()]
    extra = {
        "seed": config.master_seed,
        "config": echo,
        "theta_star": report.theta_star.params.as_array(),
        "theta_star_mc_se": report.theta_star.mc_se,
        "n_failures": len(report.failures),
    }
    if report.lcc_draws:
        rates = [draw.acceptance_rate for draw in report.lcc_draws]
        extra["lcc_acceptance_rate_mean"] = float(np.mean(rates))
    comments = [
        f"seed {config.master_seed}",
        f"config {args.config}",
        "config echo: " + ", ".join(f"{k}={v}" for k, v in sorted(echo.items())),
        f"replications {config.replications}, failures {len(report.failures)}",
    ]
    _emit(rows, args, comments=comments, json_extra=extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lccsub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("oracle", help="population limits for a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--b", type=float, action="append", help="extra CC bias values")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--plot-out", help="steplogit plot-data CSV path")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sample", help="subsample a CSV with weights/offsets")
    p.add_argument("--data", required=True)
    p.add_argument("--scheme", required=True, choices=("lcc", "cc", "wcc", "uniform"))
    p.add_argument("--pilot", help="coefficient file for the lcc pilot")
    p.add_argument("--pilot-size", type=int, help="default 1000")
    rate = p.add_mutually_exclusive_group()
    rate.add_argument("--c", type=float)
    rate.add_argument("--target-size", type=int)
    p.add_argument("--retain-cases", action="store_true")
    p.add_argument("--rate", type=float)
    p.add_argument("--a0", type=float)
    p.add_argument("--a1", type=float)
    p.add_argument("--summary")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="weighted, offset-aware logistic fit of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--adjustment", help="coefficient file added to the fit")
    p.add_argument("--ignore-offsets", action="store_true")
    p.add_argument("--grad-tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("asymptotics", help="population matrices and variance")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta", default="star")
    p.add_argument("--pilot", default="star")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument(
        "--mc-nodes",
        type=int,
        help="ignored: every population's rule is exact (accepted so older command lines run)",
    )
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("simulate", help="run a replication study config")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1, help="worker processes, one per core at most")
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with one_blas_thread():
            return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, CsvFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GlmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TooManyFailures, EmptySubsample, TooFewCases) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
