"""Command-line interface.

Commands: oracle (population limits), sample (subsample a CSV), fit
(logistic fit of a CSV), asymptotics (population matrices/variance),
simulate (replication studies).

Every run resolves one seed (explicit --seed or a fresh random one),
prints it on stderr, and records it in the outputs, so identical
invocations are byte-identical.  Exit codes: 0 success, 1 usage/parse
errors, 2 numerical failures (separation/singularity), 3 budget or
acceptance caps exceeded.
"""

from __future__ import annotations

import argparse
import csv
import secrets
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
    convert_records,
    format_value,
    load_config_file,
    parse_experiment,
    parse_population,
    read_coefficients,
    read_observations_csv,
    stream_rows,
    write_coefficients,
    write_observations_csv,
    write_report,
)
from .glm import FitConfig, GlmError, ModelParams, ObservationSet, fit_logistic
from .populations import (
    AcceptanceTooLow,
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
    accept_pass,
    class_balanced_scheme,
    class_counts,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BUDGET = 3

_MC_NODES_DEFAULT = 4 * 10**6  # asymptotics --mc-nodes


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
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


def _coef_rows(label, params: ModelParams, names, se=None):
    values = [params.intercept, *(float(v) for v in params.slopes)]
    se = [0.0] * len(values) if se is None else [float(v) for v in se]
    return [
        {"quantity": label, "coefficient": name, "value": value, "mc_se": mc_se}
        for name, value, mc_se in zip(["intercept", *names], values, se)
    ]


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    seed = _resolve_seed(args)
    spec = _load_population(args.spec)
    names = [f"x{i + 1}" for i in range(spec.p)]
    star = population_theta_star(spec, tol=args.tol)
    b_eq = equal_class_bias(spec)
    rows = _coef_rows("theta_star", star.params, names, star.mc_se)
    rows.append(
        {"quantity": "equal_class_bias", "coefficient": "", "value": b_eq, "mc_se": 0.0}
    )
    b_values = [b_eq, *(args.b or [])]
    for b in b_values:
        cc = theta_cc_limit(spec, b, tol=args.tol)
        rows.extend(_coef_rows(f"theta_cc[b={b:.6g}]", cc.params, names, cc.mc_se))
    if isinstance(spec, DiscretePopulation):
        for j in range(spec.p):
            col = spec.points[:, j]
            if set(np.unique(col)) == {0.0, 1.0}:
                rows.append(
                    {
                        "quantity": "marginal_odds_ratio",
                        "coefficient": names[j],
                        "value": marginal_odds_ratio(spec, j),
                        "mc_se": 0.0,
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


def _count_pass(path):
    chunks = stream_rows(path, labels_only=True)
    return tuple(map(sum, zip(*(class_counts(labels) for _, _, _, labels, _, _ in chunks))))


def _reservoir_balanced_pass(path, per_class, rng):
    """One-pass per-class uniform sample; returns a WCC-weighted pilot set.

    Every row draws one uniform key in file order and each class keeps the
    rows with its per_class smallest keys: a uniform sample without
    replacement that does not depend on the chunking.  The keys ignore row
    content, so only the labels are converted; the pass holds the raw
    records of rows still among their class's smallest keys and converts
    the kept ones at the end.
    """
    seen, keys, kept = [0, 0], [np.empty(0), np.empty(0)], [[], []]
    for header, _, records, labels, _, _ in stream_rows(path, labels_only=True):
        chunk_keys = rng.random(labels.shape[0])
        for y in (0, 1):
            rows = np.flatnonzero(labels == y)
            seen[y] += rows.size
            if keys[y].size == per_class:
                rows = rows[chunk_keys[rows] < keys[y].max()]
            keys[y] = np.concatenate([keys[y], chunk_keys[rows]])
            kept[y] += [records[i] for i in rows]
            if keys[y].size > per_class:
                top = np.argpartition(keys[y], per_class - 1)[:per_class]
                keys[y], kept[y] = keys[y][top], [kept[y][i] for i in top]
    if not (seen[0] and seen[1]):
        raise TooFewCases("pilot needs both classes present")
    records = [kept[y][i] for y in (0, 1) for i in np.argsort(keys[y])]
    sizes = [keys[0].size, keys[1].size]
    return ObservationSet(
        convert_records(header, records)[2],
        np.repeat([0.0, 1.0], sizes),
        weights=np.repeat([seen[0] / sizes[0], seen[1] / sizes[1]], sizes),
    )


@contextmanager
def _file_errors_first(path):
    """On any exception from a label-only step, one full check pass runs
    first, so a bad file raises its first CsvFormatError as a full pass would."""
    try:
        yield
    except Exception:
        for _ in stream_rows(path):
            pass
        raise


# the options each scheme reads, and pairs whose first option leaves the second unused
_SCHEME_OPTIONS = {
    "uniform": ("rate",),
    "cc": ("a0", "a1", "target_size"),
    "wcc": ("a0", "a1", "target_size"),
    "lcc": ("pilot", "pilot_size", "c", "target_size", "retain_cases"),
}
_OVERRIDES = (("target_size", "a0"), ("target_size", "a1"), ("pilot", "pilot_size"))
# the smallest sizes: the pilot reservoir keeps pilot_size // 2 rows of each class
_LEAST_SIZES = (("pilot_size", 4), ("target_size", 1))


def _refuse_bad_options(args):
    """A sample option the run would ignore, or a size below its least, is a usage error."""
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


def _build_scheme(args, seed):
    """Resolve the scheme, running count/pilot passes if needed.

    Returns (scheme, pilot_source); for lcc with --target-size the
    acceptance pass then solves c.
    """
    if args.scheme == "uniform":
        if args.rate is None:
            raise _UsageError("--rate is required for uniform sampling")
        return Uniform(args.rate), None
    if args.scheme in ("cc", "wcc"):
        cls = CaseControl if args.scheme == "cc" else WeightedCaseControl
        if args.a0 is not None and args.a1 is not None:
            return cls(a0=args.a0, a1=args.a1), None
        if args.target_size is None:
            raise _UsageError(f"--a0/--a1 or --target-size required for {args.scheme}")
        with _file_errors_first(args.data):
            counts = _count_pass(args.data)
            return class_balanced_scheme(counts, args.target_size, args.scheme == "wcc"), None
    # lcc
    if args.pilot is not None:
        pilot, _ = read_coefficients(args.pilot)
        pilot_source = args.pilot
    else:
        pilot_size = 1000 if args.pilot_size is None else args.pilot_size
        rng_pilot = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        with _file_errors_first(args.data):
            pilot_obs = _reservoir_balanced_pass(args.data, pilot_size // 2, rng_pilot)
            pilot = fit_logistic(pilot_obs).params
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
    scheme, pilot_source = _build_scheme(args, seed)
    rng, header = np.random.default_rng(seed), None

    def chunks():
        nonlocal header
        for header, _, feats, labels, _, _ in stream_rows(args.data):
            yield feats, labels, rng.random(labels.shape[0])

    sub = accept_pass(scheme, chunks(), args.target_size if args.scheme == "lcc" else None)
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
        rows.append({"quantity": quantity, "coefficient": "", "value": float(value), "mc_se": 0.0})
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
    grid = integration_grid(spec, mc_nodes=args.mc_nodes, rng=np.random.default_rng(seed))
    report = eval_matrices(spec, theta, pilot, c=args.c, grid=grid)
    variance = lcc_variance(report)
    slope = conditional_bias_slope(report)
    rows = [
        {"quantity": "abar", "row": 0, "col": 0, "value": report.abar, "mc_se": report.mc_se["abar"]}
    ]
    # a quantity without an SE is exact only on an exact grid
    no_se = 0.0 if grid.exact else None
    ses = dict(report.mc_se, G=report.mc_se["G"][:, None])
    for name, mat in (
        ("G", report.G[:, None]),
        ("H", report.H),
        ("J", report.J),
        ("C", report.C),
        ("Sigma", report.Sigma),
        ("SigmaFull", report.SigmaFull),
        ("variance", variance),
        ("bias_slope", slope),
    ):
        se = ses.get(name)
        for (i, j), value in np.ndenumerate(mat):
            rows.append(
                {
                    "quantity": name,
                    "row": i,
                    "col": j,
                    "value": float(value),
                    "mc_se": no_se if se is None else float(se[i, j]),
                }
            )
    extra = {
        "seed": seed,
        "c": report.c,
        "theta": report.theta.as_array(),
        "pilot": report.pilot.as_array(),
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
    raw = load_config_file(args.config)
    for key in ("population", "experiment"):
        if key not in raw:
            raise ConfigError(f"{args.config}: missing key {key!r}")
    unknown = set(raw) - {"population", "experiment"}
    if unknown:
        raise ConfigError(f"{args.config}: unknown key {sorted(unknown)[0]!r}")
    spec = parse_population(raw["population"])
    config = parse_experiment(raw["experiment"], spec)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    print(f"seed: {config.master_seed}", file=sys.stderr)
    try:
        report = run_experiment(config, threads=args.threads)
    except TooManyFailures as exc:
        _print_failures(exc.failures)
        raise
    blas = report.blas_threads
    per_worker = "not pinned" if blas is None else f"{blas[0]} (was {blas[1]})"
    print(
        f"runtime: {report.runtime_seconds:.3f} s, workers: {max(args.threads, 1)}, "
        f"BLAS threads per worker: {per_worker}",
        file=sys.stderr,
    )
    _print_failures(report.failures)
    rows = []
    for method, summary in report.methods.items():
        rows.append(
            {
                "method": method,
                "bias_sq": summary.bias_sq,
                "bias_sq_se": summary.bias_sq_se,
                "var": summary.var,
                "var_se": summary.var_se,
                "mean_subsample_size": summary.mean_subsample_size,
                "n_failures": summary.n_failures,
            }
        )
    echo = dict(raw["experiment"])
    extra = {
        "seed": config.master_seed,
        "config": echo,
        "theta_star": report.theta_star.params.as_array(),
        "theta_star_mc_se": report.theta_star.mc_se,
        "n_failures": len(report.failures),
    }
    if report.lcc_acceptance_rates is not None:
        extra["lcc_acceptance_rate_mean"] = float(report.lcc_acceptance_rates.mean())
    comments = [
        f"seed {config.master_seed}",
        f"config {args.config}",
        "config echo: "
        + ", ".join(f"{k}={v}" for k, v in sorted(echo.items())),
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
    p.add_argument("--mc-nodes", type=int, default=_MC_NODES_DEFAULT)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("simulate", help="run a replication study config")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
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
    except (AcceptanceTooLow, TooManyFailures, EmptySubsample, TooFewCases) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
