"""Seeded Monte-Carlo replication harness comparing the subsampling methods.

Protocol per replication: draw fresh data; for the local method fit
`sample`'s pilot, n_pilot // 2 uniform rows per class (fit_pilot_wcc's rule,
pilot_scan), and take the local sample; give the comparison estimators (cc,
wcc, uniform) the combined pilot-plus-second-stage budget so the pilot cost
is paid for.  Every draw is one WeightedSubsample, fitted by fit_subsample.

A replication (_Rows) holds one byte per row, its label, and features only
for the rows a method keeps; like `sample` on a file, every full-length step
(uniforms, pilot keys, pilot predictors, accept-reject) runs in CHUNK_ROWS
blocks.  The data stream draws every row's label; one scan of the uniforms
stream then records the candidates, every row a label-only scheme could
keep (u <= max(a_y, uniform rate), a_y the class-balanced rates), and cc,
wcc and uniform accept among them alone.  The data stream draws the
candidates' features, in row order, then, for `full`, every other row's.
The local method draws on its own stream: features from X | Y for pilot
rows that have none, and the pilot predictor t of every row (pilot'(1, x)
where x is drawn), on which it accepts.  A Gaussian population draws t from
T | Y, then X | (Y, t) for the kept rows; any other draws x from X | Y,
and a kept row keeps it.  So every row's (y, x) is a population draw, cc,
wcc and uniform draw the same whichever methods run, and the local
method's draws depend on whether `full` runs.  run_experiment and
convergence_study run this one protocol.

Determinism: every stage of every replication derives its generator from
(master_seed, replication, stage), and reduction is in replication order,
so reports are bit-identical for a given config regardless of worker count.
"""

from __future__ import annotations

import copy
import ctypes
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._workers import fork_map
from .glm import FitConfig, GlmError, ModelParams, ObservationSet, fit_logistic
from .populations import (
    OracleFit,
    PopulationSpec,
    TwoClassGaussian,
    population_theta_star,
    predictor_laws,
    sample_conditional,
    sample_labels,
    sample_predictor,
)
from .sampling import (
    CHUNK_ROWS,
    CaseControl,
    EmptySubsample,
    LocalCaseControl,
    TooFewCases,
    Uniform,
    WeightedSubsample,
    accept_pass,
    accept_rows,
    class_balanced_scheme,
    class_counts,
    fit_subsample,
    pilot_scan,
    pilot_subsample,
)

__all__ = [
    "ExperimentConfig",
    "MethodSummary",
    "ExperimentReport",
    "LccDraw",
    "TooManyFailures",
    "run_experiment",
    "summarize",
    "bootstrap_se",
    "convergence_study",
]

_METHODS = ("lcc", "wcc", "cc", "uniform", "full")
# position = spawn key: "cc" and "wcc" draw nothing, but dropping them would move "bootstrap"
_STAGES = ("data", "pilot", "uniforms", "lcc", "cc", "wcc", "bootstrap")
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
    seq = np.random.SeedSequence(master_seed, spawn_key=(replication, _STAGES.index(stage)))
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
class LccDraw:
    """One replication's local case-control draw: its scheme (pilot and c) and
    its acceptance rate per unit c, expected_size / (c * rows read), whose
    population value is eval_abar(spec, scheme) / c.  While no row is capped
    (c a_i <= 1, as at c <= 1) and no case is retained, it is sum_i a_i / n,
    the acceptance rate at c = 1 with a_i = |y_i - ptilde(x_i)|."""

    scheme: LocalCaseControl
    acceptance_rate: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    theta_star: OracleFit
    methods: dict
    failures: tuple
    lcc_draws: tuple  # one LccDraw per successful replication when lcc runs
    runtime_seconds: float
    blas_threads: tuple[int, int] | None = None  # (while replicating, before)
    workers: int = 1  # processes the replications ran on


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


_NO_ROWS = np.empty(0, dtype=np.intp)


def _skipping(rows, skip):
    """Each index into the rows that remain without skip (sorted), as a position among all rows."""
    return rows + np.searchsorted(skip - np.arange(skip.size), rows, side="right")


@dataclass
class _Rows:
    """One replication's rows, of any population.  Per row it holds one byte,
    the label.  It also holds the uniforms stream at row 0, which each pass
    draws again from a copy, one random() per row, CHUNK_ROWS rows at a time
    (scan); the features drawn and kept so far, by position in row order (at,
    features); and the candidates, every row a label-only scheme can keep,
    as (positions, labels, uniforms)."""

    spec: PopulationSpec
    labels: np.ndarray
    uniforms: np.random.Generator
    at: np.ndarray
    features: np.ndarray
    candidates: tuple = ()

    def draw(self, rows, rng, pilot=None, t=None) -> np.ndarray:
        """The features of rows; those that have none are drawn, in order, from
        X | Y, or given a pilot from X | (Y, t), t each row's pilot predictor, and
        kept: increasing rows that include every stored row become the store."""
        i = np.searchsorted(self.at, rows)
        have = i < self.at.size
        have[have] = self.at[i[have]] == rows[have]
        out = np.empty((rows.size, self.spec.p))
        out[have] = self.features[i[have]]
        if not have.all():
            new = ~have
            t = None if pilot is None else t[new]
            out[new] = sample_conditional(self.spec, self.labels[rows[new]], rng, pilot, t)
            if np.count_nonzero(have) == self.at.size and np.all(rows[1:] > rows[:-1]):
                self.at, self.features = rows, out
                return out
            at = np.concatenate([self.at, rows[new]])
            order = np.argsort(at, kind="stable")
            self.at, self.features = at[order], np.concatenate([self.features, out[new]])[order]
        return out

    def blocks(self, skip=_NO_ROWS):
        """The positions of the rows but skip (sorted), CHUNK_ROWS at a time:
        slices where skip is empty."""
        left = self.labels.shape[0] - skip.size
        for start in range(0, left, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, left)
            yield _skipping(np.arange(start, stop), skip) if skip.size else slice(start, stop)

    def scan(self, skip=_NO_ROWS):
        """Each of blocks(skip) with its rows' labels, as floats, and uniforms,
        one random() per row from a copy of the uniforms stream; the skipped
        rows' uniforms are drawn with the block after them and dropped."""
        rng, read = copy.deepcopy(self.uniforms), 0
        for at in self.blocks(skip):
            first, read = read, at.stop if isinstance(at, slice) else int(at[-1]) + 1
            u = rng.random(read - first)
            u = u if isinstance(at, slice) else u[at - first]
            yield at, self.labels[at].astype(np.float64), u

    def chunk(self, at, labels, u, pilot, laws, rng):
        """One of scan's blocks as an accept-reject chunk (features, labels, u, t),
        t = pilot'(1, x) of a row with features.  For the others, in order, t is a
        draw of T | Y from laws = predictor_laws(spec, pilot), with no features;
        or, without laws, x is a draw of X | Y and t = pilot'(1, x)."""
        positions = np.arange(at.start, at.stop) if isinstance(at, slice) else at
        lo, hi = np.searchsorted(self.at, (positions[0], positions[-1] + 1))
        j = np.searchsorted(positions, self.at[lo:hi])
        found = positions[j] == self.at[lo:hi]
        missing = np.ones(labels.size, dtype=bool)
        missing[j[found]] = False
        if laws is None:
            x = np.empty((labels.size, self.spec.p))
            x[missing] = sample_conditional(self.spec, labels[missing], rng)
            x[j[found]] = self.features[lo:hi][found]
            return x, labels, u, pilot.linear_predictor(x)
        t = np.empty(labels.size)
        t[missing] = sample_predictor(laws, labels[missing], rng)
        t[j[found]] = pilot.linear_predictor(self.features[lo:hi][found])
        return np.empty((labels.size, 0)), labels, u, t

    def accept(self, scheme, rng, target=None, skip=_NO_ROWS) -> WeightedSubsample:
        """Local case-control's draw on the rows but skip, in CHUNK_ROWS blocks of
        them as draw_subsample splits rows in memory, accepting on each row's
        pilot predictor t (chunk, on rng); its rows count only the rows read.  A
        Gaussian population's kept rows then draw features (draw, on rng)."""
        pilot = scheme.pilot
        laws = predictor_laws(self.spec, pilot) if isinstance(self.spec, TwoClassGaussian) else None
        chunks = (self.chunk(*block, pilot, laws, rng) for block in self.scan(skip))
        sub = accept_pass(scheme, chunks, target)
        if laws is None:
            return sub
        return replace(sub, features=self.draw(_skipping(sub.rows, skip), rng, pilot, -sub.offsets))

    def keep(self, scheme) -> WeightedSubsample:
        """A label-only scheme's draw over every row, read off the candidates,
        among which is every row it can keep.  The size's mean and variance
        come from the class counts: n0 a0 + n1 a1 and n0 a0 (1 - a0) + n1 a1 (1 - a1)."""
        rows, labels, uniforms = self.candidates
        keep, weights, offsets, _ = accept_rows(scheme, None, labels, uniforms)
        a = accept_rows(scheme, None, np.array([0.0, 1.0]), np.ones(2))[3]
        counts = np.array(class_counts(self.labels))
        expected, variance = float(counts @ a), float(counts @ (a - a * a))
        rows = rows[keep]
        return WeightedSubsample(scheme, self.labels.size, expected, variance, rows, labels[keep],
                                 self.draw(rows, None), weights[keep], offsets[keep])


def _replication_rows(config: ExperimentConfig, rep: int) -> _Rows:
    """The replication's rows from the data stream: every row's label, then the
    candidates, the rows whose uniform u <= max(a_y, uniform rate), a_y the
    class-balanced rates, then the candidates' features, and for `full` every
    other row's."""
    spec, n = config.spec, config.n_full
    rng = derived_rng(config.master_seed, rep, "data")
    labels = sample_labels(spec, n, rng, np.uint8)
    uniforms = derived_rng(config.master_seed, rep, "uniforms")
    rows = _Rows(spec, labels, uniforms, _NO_ROWS, np.empty((0, spec.p)))
    rate, counts = _uniform_rate(config), class_counts(labels)
    a = CaseControl(rate, rate)  # without both classes cc and wcc keep no row
    if min(counts):
        a = class_balanced_scheme(counts, config.comparison_budget, weighted=False)
    a0, a1 = max(a.a0, rate), max(a.a1, rate)
    parts = []
    for block, y, u in rows.scan():
        pick = np.flatnonzero(u <= np.where(y == 1.0, a1, a0))
        parts.append((pick + block.start, y[pick], u[pick]))
    rows.candidates = tuple(map(np.concatenate, zip(*parts)))
    rows.draw(rows.candidates[0], rng)
    if "full" in config.methods:
        rows.draw(np.arange(n), rng)
    return rows


def _uniform_rate(config: ExperimentConfig) -> float:
    return min(1.0, config.comparison_budget / config.n_full)


def _lcc_subsample(config: ExperimentConfig, rep: int, rows: _Rows) -> WeightedSubsample:
    """lcc's draw on the replication's rows, accepting on each row's pilot
    predictor t, after fit_pilot_wcc's pilot, kept by pilot_scan on the pilot
    stream; every draw it adds comes from the lcc stream."""
    if 2 * (config.n_pilot // 2) < config.spec.p + 2:
        raise ValueError("n_pilot too small to fit the model")
    rng = derived_rng(config.master_seed, rep, "lcc")
    pilot_rng = derived_rng(config.master_seed, rep, "pilot")
    chunks = ((np.arange(at.start, at.stop), rows.labels[at], pilot_rng.random(at.stop - at.start))
              for at in rows.blocks())
    seen, (picked, labels, _) = pilot_scan(chunks, config.n_pilot // 2)
    pilot_sub = pilot_subsample(seen, picked, labels, rows.draw(picked, rng))
    pilot = fit_subsample(pilot_sub, config.fit).params
    c = 1.0 if config.c is None else config.c
    scheme = LocalCaseControl(pilot, c=c, retain_cases=config.retain_cases)
    target = config.n_lcc if config.c is None else None
    skip = _NO_ROWS if config.recycle_pilot else np.sort(picked)
    sub = rows.accept(scheme, rng, target, skip)
    return replace(sub, offsets=-pilot.linear_predictor(sub.features))


def _replicate_explicit(config: ExperimentConfig, rep: int) -> dict:
    """Each method's (estimate, subsample size), and for lcc its LccDraw, on
    one draw of rows, or the failure it raised in its place."""
    rows = _replication_rows(config, rep)
    out = {}
    for method in config.methods:
        try:
            if method == "full":
                data = ObservationSet(rows.features, rows.labels)
                out[method] = (fit_logistic(data, config.fit).params.as_array(), data.n)
                continue
            if method == "lcc":
                sub = _lcc_subsample(config, rep, rows)
            elif method == "uniform":
                sub = rows.keep(Uniform(_uniform_rate(config)))
            else:
                counts, budget = class_counts(rows.labels), config.comparison_budget
                sub = rows.keep(class_balanced_scheme(counts, budget, method == "wcc"))
            out[method] = (fit_subsample(sub, config.fit).params.as_array(), sub.realized_size)
            if method == "lcc":
                rate = sub.expected_size / (sub.scheme.c * sub.rows_read)
                out[method] += (LccDraw(sub.scheme, rate),)
        except _FAILURE_KINDS as exc:
            out[method] = exc
    return out


def run_experiment(
    config: ExperimentConfig, threads: int = 1, theta_star: OracleFit | None = None
) -> ExperimentReport:
    """Run the replication study and summarize bias/variance per method.

    The replications run in contiguous blocks on min(threads, replications,
    usable cores) processes: this one runs the first, forked workers the rest.
    Failed replications (separation, empty subsamples) are recorded and
    excluded; more than max_failure_fraction of them, or fewer than two
    successes, abort the study.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    t0 = time.monotonic()
    truth = theta_star or population_theta_star(config.spec)

    def one(rep: int):
        try:
            out = _replicate_explicit(config, rep)
            for result in out.values():  # the first failed method drops the replication
                if isinstance(result, Exception):
                    raise result
            return out
        except _FAILURE_KINDS as exc:
            return (rep, type(exc).__name__, str(exc))

    workers = min(threads, config.replications, len(os.sched_getaffinity(0)))
    blocks = [range(w * config.replications // workers, (w + 1) * config.replications // workers)
              for w in range(workers)]
    # One BLAS thread per worker at every worker count, inherited by the forked
    # ones: OpenBLAS's own threads would oversubscribe the cores the workers use.
    with one_blas_thread() as blas:
        results = [r for block in fork_map(lambda reps: list(map(one, reps)), blocks) for r in block]

    failures = tuple(r for r in results if isinstance(r, tuple))
    successes = [r for r in results if isinstance(r, dict)]
    tolerated = config.max_failure_fraction * config.replications
    if len(successes) < 2 or len(failures) > tolerated:
        raise TooManyFailures(
            f"{len(failures)}/{config.replications} replications failed (tolerated "
            f"fraction {config.max_failure_fraction:g}; at least 2 must succeed)", failures)

    boot_rng = derived_rng(config.master_seed, 0, "bootstrap")
    methods = {}
    for method in config.methods:
        draws = np.array([r[method][0] for r in successes])
        sizes = np.array([r[method][1] for r in successes], dtype=np.float64)
        bias_sq, var = summarize(draws, truth.params)
        bias_se, var_se = bootstrap_se(draws, truth.params, config.bootstrap_B, boot_rng)
        methods[method] = MethodSummary(
            bias_sq=bias_sq, var=var, bias_sq_se=bias_se, var_se=var_se,
            mean_subsample_size=float(sizes.mean()), draws=draws, n_failures=len(failures),
        )
    return ExperimentReport(
        config=config, theta_star=truth, methods=methods, failures=failures,
        lcc_draws=tuple(r["lcc"][2] for r in successes if "lcc" in r),
        runtime_seconds=time.monotonic() - t0,
        blas_threads=blas, workers=workers,
    )


def convergence_study(
    spec: PopulationSpec, n_grid, methods=("lcc", "cc", "wcc"), seeds: int = 30,
    master_seed: int = 0, pilot_fraction: float = 0.1, fit: FitConfig | None = None,
    theta_star: OracleFit | None = None,
):
    """Error quantiles of each method along an increasing sample-size grid.

    Each seed and n runs the explicit replication once on n rows, and a
    method that fails drops only its own error: LCC at c=1 with a pilot of
    pilot_fraction*n rows (at least p + 2, rounded up to even), cc/wcc at
    budget n.  Errors are ||estimate - theta*|| over the full
    coefficient vector.  Returns one row per (n, method) with median and
    quartiles, NaN where every seed failed, and the seeds that succeeded.
    """
    if seeds < 2:
        raise ValueError("need at least 2 seeds")
    n_grid = sorted(int(n) for n in n_grid)
    fit = fit or FitConfig()
    truth = (theta_star or population_theta_star(spec)).params.as_array()
    errors = {(n, m): [] for n in n_grid for m in methods}
    for seed in range(seeds):
        for idx, n in enumerate(n_grid):
            n_pilot = max(int(pilot_fraction * n), spec.p + 2)
            n_pilot += n_pilot % 2  # even: the pilot keeps n_pilot // 2 rows per class
            config = ExperimentConfig(
                spec, n, n_pilot, n - n_pilot, replications=seeds, methods=methods,
                c=1.0, master_seed=master_seed, fit=fit,
            )
            for method, result in _replicate_explicit(config, seed * len(n_grid) + idx).items():
                if not isinstance(result, Exception):
                    errors[(n, method)].append(float(np.linalg.norm(result[0] - truth)))
    rows = []
    for n in n_grid:
        for method in methods:
            errs = np.array(errors[(n, method)])
            stats = (np.nan,) * 3  # where every seed failed
            if errs.size:
                stats = (np.median(errs), np.quantile(errs, 0.25), np.quantile(errs, 0.75))
            rows.append({
                "n": n, "method": method, "median_error": float(stats[0]),
                "q25_error": float(stats[1]), "q75_error": float(stats[2]),
                "seeds": int(errs.size),
            })
    return rows
