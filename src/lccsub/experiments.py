"""Seeded Monte-Carlo replication harness comparing the subsampling methods.

Protocol per replication: draw fresh data, fit a weighted case-control
pilot of the requested expected size, take the local case-control sample,
and give the comparison estimators (cc, wcc, uniform) the combined
pilot-plus-second-stage budget so the pilot cost is paid for.  With
implicit_full the full sample is never materialized: the pilot comes from
class-balanced draws and the second stage samples the tilted measure by
rejection.

Determinism: every stage of every replication derives its generator from
(master_seed, replication, stage), and reduction is in replication order,
so reports are bit-identical for a given config regardless of worker count.
"""

from __future__ import annotations

import ctypes
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .glm import FitConfig, GlmError, ModelParams, ObservationSet, fit_logistic
from .populations import (
    OracleFit,
    PopulationSpec,
    equal_class_bias,
    population_theta_star,
    positive_rate,
    sample_conditional,
    sample_population,
    sample_tilted,
)
from .sampling import (
    EmptySubsample,
    LocalCaseControl,
    TooFewCases,
    Uniform,
    class_balanced_scheme,
    class_counts,
    draw_subsample,
    fit_pilot_wcc,
    fit_subsample,
)

__all__ = [
    "ExperimentConfig",
    "MethodSummary",
    "ExperimentReport",
    "TooManyFailures",
    "run_experiment",
    "summarize",
    "bootstrap_se",
    "convergence_study",
]

_METHODS = ("lcc", "wcc", "cc", "uniform", "full")
_STAGES = {
    "data": 0,
    "pilot": 1,
    "uniforms": 2,
    "lcc": 3,
    "cc": 4,
    "wcc": 5,
    "bootstrap": 6,
}
_FAILURE_KINDS = (GlmError, EmptySubsample, TooFewCases)


class TooManyFailures(Exception):
    """Over the tolerated fraction of replications failed, or under 2 succeeded.

    failures holds every failed replication as (rep, kind, message).
    """

    def __init__(self, message: str, failures: tuple):
        super().__init__(message)
        self.failures = failures


def derived_rng(master_seed: int, replication: int, stage: str) -> np.random.Generator:
    """Deterministic per-(replication, stage) stream."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(replication, _STAGES[stage]))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class ExperimentConfig:
    spec: PopulationSpec
    n_full: int
    n_pilot: int
    n_lcc: int
    replications: int
    methods: tuple[str, ...] = ("lcc", "wcc", "cc")
    c: float | None = None  # None: calibrate so the expected LCC size is n_lcc
    retain_cases: bool = False
    bootstrap_B: int = 400
    master_seed: int = 0
    recycle_pilot: bool = True
    implicit_full: bool = False
    max_failure_fraction: float = 0.2
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        if min(self.n_full, self.n_pilot, self.n_lcc) < 1:
            raise ValueError("budgets must be positive")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.implicit_full:
            if self.c is not None and self.c != 1.0:
                raise ValueError("implicit_full supports only c=1")
            bad = {"full", "uniform"} & set(self.methods)
            if bad:
                raise ValueError(f"{sorted(bad)} need materialized data")
        object.__setattr__(self, "methods", tuple(self.methods))

    @property
    def comparison_budget(self) -> int:
        return self.n_pilot + self.n_lcc


@dataclass(frozen=True)
class MethodSummary:
    bias_sq: float
    var: float
    bias_sq_se: float
    var_se: float
    mean_subsample_size: float
    draws: np.ndarray  # (n_success, p+1) coefficient vectors
    n_failures: int


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    theta_star: OracleFit
    methods: dict
    failures: tuple
    lcc_acceptance_rates: np.ndarray | None
    runtime_seconds: float
    blas_threads: tuple[int, int] | None = None  # (while replicating, before)


def summarize(draws: np.ndarray, truth: ModelParams) -> tuple[float, float]:
    """Slope-only squared bias and summed variance over replications.

    bias_sq = ||mean(slopes) - truth.slopes||^2, var = sum_j Var(slope_j)
    with the unbiased (R-1) divisor; intercepts are excluded.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] < 2:
        raise ValueError("need at least 2 replication draws")
    slopes = draws[:, 1:]
    bias_sq = float(np.sum((slopes.mean(axis=0) - truth.slopes) ** 2))
    var = float(np.sum(slopes.var(axis=0, ddof=1)))
    return bias_sq, var


def bootstrap_se(
    draws: np.ndarray, truth: ModelParams, B: int, rng=None
) -> tuple[float, float]:
    """Nonparametric bootstrap SEs of the summarize() statistics."""
    if B < 100:
        raise ValueError("need at least 100 bootstrap resamples")
    draws = np.asarray(draws, dtype=np.float64)
    rng = rng or np.random.default_rng(0)
    n = draws.shape[0]
    idx = np.array([rng.integers(0, n, size=n) for _ in range(B)])
    # summarize() on every resample at once: (B, n, p) slopes
    slopes = draws[idx][:, :, 1:]
    bias_sq = np.sum((slopes.mean(axis=1) - truth.slopes) ** 2, axis=1)
    var = np.sum(slopes.var(axis=1, ddof=1), axis=1)
    return float(bias_sq.std(ddof=1)), float(var.std(ddof=1))


def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None."""
    for path in sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded, not a second one
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_PINNED = []  # OpenBLAS thread counts before each open one_blas_thread()


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread: its threaded products round
    differently at different thread counts.  Yields (1, the count before
    the outermost open pin), or None where numpy has no OpenBLAS of its own.
    """
    blas = _openblas()
    if blas is None:
        yield None
        return
    get, set_ = blas
    _PINNED.append(get())
    set_(1)
    try:
        yield 1, _PINNED[0]
    finally:
        set_(_PINNED.pop())


def _wcc_weights(labels: np.ndarray, prior1: float) -> np.ndarray:
    # Horvitz-Thompson weights for equal-expected-class draws: 1/a(y)
    # with a1/a0 = (1-prior1)/prior1, up to an irrelevant common scale.
    return np.where(labels == 1.0, prior1, 1.0 - prior1)


def _replicate_explicit(config: ExperimentConfig, rep: int) -> dict:
    data = sample_population(
        config.spec, config.n_full, derived_rng(config.master_seed, rep, "data")
    )
    pilot_fit = fit_pilot_wcc(
        data, config.n_pilot, derived_rng(config.master_seed, rep, "pilot"), config.fit
    )
    pilot = pilot_fit.params
    uniforms = derived_rng(config.master_seed, rep, "uniforms").random(config.n_full)
    if config.recycle_pilot:
        second, second_uniforms = data, uniforms
    else:
        mask = np.ones(config.n_full, dtype=bool)
        mask[pilot_fit.subsample.rows] = False
        second = ObservationSet(data.features[mask], data.labels[mask])
        second_uniforms = uniforms[mask]

    out = {}
    for method in config.methods:
        if method == "full":
            out[method] = (fit_logistic(data, config.fit).params.as_array(), data.n)
            continue
        source, source_uniforms, target = data, uniforms, None
        if method == "lcc":
            c = 1.0 if config.c is None else config.c
            scheme = LocalCaseControl(pilot, c=c, retain_cases=config.retain_cases)
            source, source_uniforms = second, second_uniforms
            target = config.n_lcc if config.c is None else None
        elif method == "uniform":
            scheme = Uniform(min(1.0, config.comparison_budget / config.n_full))
        else:
            scheme = class_balanced_scheme(
                class_counts(data.labels), config.comparison_budget, weighted=(method == "wcc")
            )
        sub = draw_subsample(source, scheme, source_uniforms, target)
        out[method] = (fit_subsample(sub, config.fit).params.as_array(), sub.realized_size)
    return out


def _replicate_implicit(config: ExperimentConfig, rep: int) -> dict:
    spec = config.spec
    prior1 = positive_rate(spec)
    bias = equal_class_bias(spec)

    rng_pilot = derived_rng(config.master_seed, rep, "pilot")
    labels = (rng_pilot.random(config.n_pilot) < 0.5).astype(np.float64)
    feats = sample_conditional(spec, labels, rng_pilot)
    pilot_obs = ObservationSet(feats, labels, weights=_wcc_weights(labels, prior1))
    pilot = fit_logistic(pilot_obs, config.fit).params

    out = {}
    for method in config.methods:
        if method == "lcc":
            rng = derived_rng(config.master_seed, rep, "lcc")
            tilt = sample_tilted(spec, pilot, config.n_lcc, rng)
            obs = tilt.observations
            fitted = fit_logistic(
                ObservationSet(
                    obs.features,
                    obs.labels,
                    offsets=-pilot.linear_predictor(obs.features),
                ),
                config.fit,
            )
            out[method] = (fitted.params.as_array(), obs.n, tilt.acceptance_rate)
        elif method in ("cc", "wcc"):
            rng = derived_rng(config.master_seed, rep, method)
            n = config.comparison_budget
            labels = (rng.random(n) < 0.5).astype(np.float64)
            feats = sample_conditional(spec, labels, rng)
            if method == "cc":
                obs = ObservationSet(feats, labels, offsets=np.full(n, bias))
            else:
                obs = ObservationSet(feats, labels, weights=_wcc_weights(labels, prior1))
            fitted = fit_logistic(obs, config.fit)
            out[method] = (fitted.params.as_array(), n)
    return out


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    theta_star: OracleFit | None = None,
) -> ExperimentReport:
    """Run the replication study and summarize bias/variance per method.

    Failed replications (separation, empty subsamples) are recorded and
    excluded; more than max_failure_fraction of them, or fewer than two
    successes, abort the study.
    """
    t0 = time.monotonic()
    truth = theta_star or population_theta_star(config.spec)
    replicate = _replicate_implicit if config.implicit_full else _replicate_explicit

    def one(rep: int):
        try:
            return replicate(config, rep)
        except _FAILURE_KINDS as exc:
            return (rep, type(exc).__name__, str(exc))

    reps = range(config.replications)
    # One BLAS thread per worker at every worker count: OpenBLAS's own
    # threads would oversubscribe the cores the workers use.
    with one_blas_thread() as blas:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, reps))
        else:
            results = [one(rep) for rep in reps]

    failures = tuple(r for r in results if isinstance(r, tuple))
    successes = [r for r in results if isinstance(r, dict)]
    tolerated = config.max_failure_fraction * config.replications
    if len(successes) < 2 or len(failures) > tolerated:
        raise TooManyFailures(
            f"{len(failures)}/{config.replications} replications failed (tolerated "
            f"fraction {config.max_failure_fraction:g}; at least 2 must succeed)",
            failures,
        )

    boot_rng = derived_rng(config.master_seed, 0, "bootstrap")
    methods = {}
    accept_rates = None
    for method in config.methods:
        draws = np.array([r[method][0] for r in successes])
        sizes = np.array([r[method][1] for r in successes], dtype=np.float64)
        bias_sq, var = summarize(draws, truth.params)
        bias_se, var_se = bootstrap_se(draws, truth.params, config.bootstrap_B, boot_rng)
        methods[method] = MethodSummary(
            bias_sq=bias_sq,
            var=var,
            bias_sq_se=bias_se,
            var_se=var_se,
            mean_subsample_size=float(sizes.mean()),
            draws=draws,
            n_failures=len(failures),
        )
        if method == "lcc" and config.implicit_full:
            accept_rates = np.array([r[method][2] for r in successes])
    return ExperimentReport(
        config=config,
        theta_star=truth,
        methods=methods,
        failures=failures,
        lcc_acceptance_rates=accept_rates,
        runtime_seconds=time.monotonic() - t0,
        blas_threads=blas,
    )


def convergence_study(
    spec: PopulationSpec,
    n_grid,
    methods=("lcc", "cc", "wcc"),
    seeds: int = 30,
    master_seed: int = 0,
    pilot_fraction: float = 0.1,
    fit: FitConfig | None = None,
    theta_star: OracleFit | None = None,
):
    """Error quantiles of each method along an increasing sample-size grid.

    Per seed and n: fresh data, WCC pilot of expected size pilot_fraction*n,
    LCC at c=1 over all rows; cc/wcc take all of the rarer class with
    matched counts from the other.  Errors are ||estimate - theta*|| over
    the full coefficient vector.  Returns one row per (n, method) with
    median and quartiles.
    """
    n_grid = sorted(int(n) for n in n_grid)
    fit = fit or FitConfig()
    truth = (theta_star or population_theta_star(spec)).params.as_array()
    errors = {(n, m): [] for n in n_grid for m in methods}
    for seed in range(seeds):
        for idx, n in enumerate(n_grid):
            rep = seed * len(n_grid) + idx
            data = sample_population(spec, n, derived_rng(master_seed, rep, "data"))
            uniforms = derived_rng(master_seed, rep, "uniforms").random(n)
            for method in methods:
                try:
                    if method == "lcc":
                        pilot = fit_pilot_wcc(
                            data,
                            max(int(pilot_fraction * n), data.p + 2),
                            derived_rng(master_seed, rep, "pilot"),
                            fit,
                        ).params
                        sub = draw_subsample(data, LocalCaseControl(pilot), uniforms)
                    else:
                        scheme = class_balanced_scheme(
                            class_counts(data.labels), n, weighted=(method == "wcc")
                        )
                        sub = draw_subsample(data, scheme, uniforms)
                    vec = fit_subsample(sub, fit).params.as_array()
                    errors[(n, method)].append(float(np.linalg.norm(vec - truth)))
                except _FAILURE_KINDS:
                    continue
    rows = []
    for n in n_grid:
        for method in methods:
            errs = np.array(errors[(n, method)])
            rows.append(
                {
                    "n": n,
                    "method": method,
                    "median_error": float(np.median(errs)),
                    "q25_error": float(np.quantile(errs, 0.25)),
                    "q75_error": float(np.quantile(errs, 0.75)),
                    "seeds": int(errs.size),
                }
            )
    return rows
