"""Synthetic populations with exact log-odds and population-limit solvers.

Three population kinds:
  DiscretePopulation  finite support, exact cell masses and log-odds
  TwoClassGaussian    class prior + per-class Gaussian features
  StepLogit           scalar X ~ U(0,1) with a jump in the log-odds

sample_population draws from a population and sample_conditional from
X | Y; for a Gaussian population, sample_predictor draws the pilot
predictor t given Y, and sample_conditional X | (Y, t).

Each scheme's large-sample limit minimizes one risk, scheme_risk, built
from what sampling.accept_rows returns at each node for each label, the
formula the data path uses; theta* is Uniform()'s limit, and asymptotics
takes every variance law off the same risk.  population_limit solves it
by damped Newton on an exact integration rule: cell sums for discrete
populations, Gauss-Legendre panels split at the jump for the step
population, and for Gaussian populations a rule integration_grid builds
along the linear predictors the integrand depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from . import _kernels as K
from .glm import FitConfig, ModelParams, ObservationSet, logistic_risk, minimize_risk
from .sampling import (
    CHUNK_ROWS,
    CaseControl,
    SamplingScheme,
    Uniform,
    accept_rows,
    scheme_adjustment,
)

__all__ = [
    "DiscretePopulation",
    "TwoClassGaussian",
    "StepLogit",
    "PopulationSpec",
    "Grid",
    "OracleFit",
    "PrecisionRecallCurve",
    "true_log_odds",
    "conditional_probability",
    "positive_rate",
    "equal_class_bias",
    "integration_grid",
    "population_score",
    "scheme_risk",
    "population_limit",
    "population_theta_star",
    "theta_cc_limit",
    "marginal_odds_ratio",
    "sample_population",
    "sample_labels",
    "predictor_laws",
    "sample_predictor",
    "sample_conditional",
    "precision_recall",
]


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite-support population: feature points, masses, conditional log-odds."""

    points: np.ndarray  # (m, p)
    masses: np.ndarray  # (m,), sums to 1
    logodds: np.ndarray  # (m,)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError("points must be 2-d")
        masses = np.array(self.masses, dtype=np.float64, copy=True)
        logodds = np.array(self.logodds, dtype=np.float64, copy=True)
        if masses.shape != (pts.shape[0],) or logodds.shape != (pts.shape[0],):
            raise ValueError("masses/logodds must match the number of points")
        if not np.all(masses > 0):
            raise ValueError("cell masses must be positive")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError(f"cell masses sum to {masses.sum()!r}, not 1")
        if not np.all(np.isfinite(logodds)):
            raise ValueError("log-odds must be finite")
        for a in (pts, masses, logodds):
            a.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "logodds", logodds)

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class TwoClassGaussian:
    """P(Y=1) = prior1; X | Y=y ~ N(mu_y, sigma_y)."""

    prior1: float
    mu0: np.ndarray
    mu1: np.ndarray
    sigma0: np.ndarray
    sigma1: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.prior1 < 1.0:
            raise ValueError("prior1 must be in (0,1)")
        mu0 = np.array(self.mu0, dtype=np.float64, copy=True).reshape(-1)
        mu1 = np.array(self.mu1, dtype=np.float64, copy=True).reshape(-1)
        if mu0.shape != mu1.shape:
            raise ValueError("mu0 and mu1 must have the same dimension")
        p = mu0.size
        s0 = np.array(self.sigma0, dtype=np.float64, copy=True)
        s1 = np.array(self.sigma1, dtype=np.float64, copy=True)
        for name, s in (("sigma0", s0), ("sigma1", s1)):
            if s.shape != (p, p):
                raise ValueError(f"{name} must be {p}x{p}")
            if not np.allclose(s, s.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            np.linalg.cholesky(s)  # SPD check
        for a in (mu0, mu1, s0, s1):
            a.flags.writeable = False
        object.__setattr__(self, "prior1", float(self.prior1))
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "sigma0", s0)
        object.__setattr__(self, "sigma1", s1)

    @property
    def p(self) -> int:
        return self.mu0.size

    @cached_property
    def _chol(self):
        return np.linalg.cholesky(self.sigma0), np.linalg.cholesky(self.sigma1)

    @cached_property
    def _inv(self):
        return np.linalg.inv(self.sigma0), np.linalg.inv(self.sigma1)

    @cached_property
    def _logdet(self):
        return (
            float(np.linalg.slogdet(self.sigma0)[1]),
            float(np.linalg.slogdet(self.sigma1)[1]),
        )

    @property
    def correctly_specified(self) -> bool:
        """Equal class covariances make the true log-odds linear in x."""
        return bool(np.allclose(self.sigma0, self.sigma1, atol=1e-12))

    def linear_params(self) -> ModelParams:
        """Exact population coefficients when the log-odds is linear."""
        if not self.correctly_specified:
            raise ValueError("log-odds is not linear: class covariances differ")
        inv = self._inv[0]
        beta = inv @ (self.mu1 - self.mu0)
        alpha = (
            np.log(self.prior1 / (1.0 - self.prior1))
            - 0.5 * (self.mu1 @ inv @ self.mu1 - self.mu0 @ inv @ self.mu0)
        )
        return ModelParams(alpha, beta)


@dataclass(frozen=True)
class StepLogit:
    """X ~ U(0,1); log-odds a + b*x + jump*1{x > threshold}."""

    a: float = -10.0
    b: float = 5.0
    jump: float = 3.0
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("a", "b", "jump", "threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")

    @property
    def p(self) -> int:
        return 1


PopulationSpec = Union[DiscretePopulation, TwoClassGaussian, StepLogit]


# ---------------------------------------------------------------------------
# log-odds and sampling


def true_log_odds(spec: PopulationSpec, x) -> np.ndarray:
    """Exact conditional log-odds f(x) at rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if isinstance(spec, DiscretePopulation):
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            match = np.all(spec.points == row, axis=1)
            idx = np.flatnonzero(match)
            if idx.size == 0:
                raise ValueError(f"x={row} is not in the discrete support")
            out[i] = spec.logodds[idx[0]]
        return out
    if isinstance(spec, TwoClassGaussian):
        inv0, inv1 = spec._inv
        ld0, ld1 = spec._logdet
        d1 = x - spec.mu1
        d0 = x - spec.mu0
        q1 = np.einsum("ij,jk,ik->i", d1, inv1, d1)
        q0 = np.einsum("ij,jk,ik->i", d0, inv0, d0)
        prior_term = np.log(spec.prior1 / (1.0 - spec.prior1))
        return prior_term - 0.5 * (q1 - q0) - 0.5 * (ld1 - ld0)
    if isinstance(spec, StepLogit):
        xv = x[:, 0]
        return spec.a + spec.b * xv + spec.jump * (xv > spec.threshold)
    raise TypeError(f"unknown population spec {type(spec)!r}")


def conditional_probability(spec: PopulationSpec, x) -> np.ndarray:
    return K.sigmoid(true_log_odds(spec, x))


def positive_rate(spec: PopulationSpec) -> float:
    """P(Y=1), exact (quadrature-exact for the step population)."""
    if isinstance(spec, TwoClassGaussian):
        return spec.prior1
    grid = integration_grid(spec)
    return float(np.sum(grid.masses * grid.prob1))


def equal_class_bias(spec: PopulationSpec) -> float:
    """log-selection bias b giving equal expected class counts: log(P0/P1)."""
    p1 = positive_rate(spec)
    return float(np.log((1.0 - p1) / p1))


def sample_population(spec: PopulationSpec, n: int, rng) -> ObservationSet:
    """n i.i.d. draws (features, labels) from the population."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(spec, TwoClassGaussian):
        labels = sample_labels(spec, n, rng)
        return ObservationSet(sample_conditional(spec, labels, rng), labels)
    if isinstance(spec, DiscretePopulation):
        idx = rng.choice(spec.points.shape[0], size=n, p=spec.masses)
        feats = spec.points[idx]
        labels = (rng.random(n) < K.sigmoid(spec.logodds[idx])).astype(np.float64)
        return ObservationSet(feats, labels)
    if isinstance(spec, StepLogit):
        x = rng.random(n).reshape(-1, 1)
        labels = (rng.random(n) < conditional_probability(spec, x)).astype(np.float64)
        return ObservationSet(x, labels)
    raise TypeError(f"unknown population spec {type(spec)!r}")


def sample_labels(spec: TwoClassGaussian, n: int, rng, dtype=np.float64) -> np.ndarray:
    """n draws of a Gaussian population's labels, of the given dtype, CHUNK_ROWS at a time."""
    labels = np.empty(n, dtype)
    for start in range(0, n, CHUNK_ROWS):
        labels[start:start + CHUNK_ROWS] = rng.random(min(CHUNK_ROWS, n - start)) < spec.prior1
    return labels


def predictor_laws(spec: TwoClassGaussian, pilot: ModelParams):
    """For y = 0, 1: the mean and variance of the pilot predictor
    t = pilot'(1, x) given Y=y, and Cov(x, t) = Sigma_y pilot."""
    lam = pilot.slopes
    return [
        (pilot.intercept + mu @ lam, lam @ sigma @ lam, sigma @ lam)
        for mu, sigma in ((spec.mu0, spec.sigma0), (spec.mu1, spec.sigma1))
    ]


def sample_predictor(laws, labels, rng) -> np.ndarray:
    """The pilot predictor t = pilot'(1, x) of one draw of X | Y=label per
    entry of labels, drawn from its law given the class, a normal: laws is
    predictor_laws(spec, pilot), computed once for any number of draws."""
    (m0, v0, _), (m1, v1, _) = laws
    ones = np.flatnonzero(np.asarray(labels) == 1.0)
    t = rng.standard_normal(len(labels))
    z1 = t[ones]
    t *= np.sqrt(v0)
    t += m0
    t[ones] = m1 + np.sqrt(v1) * z1
    return t


def sample_conditional(spec: PopulationSpec, labels, rng, pilot=None, t=None) -> np.ndarray:
    """Features drawn from X | Y=label, one row per entry of labels, or, given
    a pilot and each row's predictor t, from X | (Y=label, pilot'(1, X)=t).

    A Gaussian population draws x0 from its class's law and, given t, moves
    it along Cov(x, t) to x0 + Sigma_y pilot (t - pilot'(1, x0)) / Var(t):
    the conditional law, as x - Sigma_y pilot t / Var(t) is independent of t.
    Any other population keeps, in order, its own draws whose label
    matches, which is exact; it takes no t.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if isinstance(spec, TwoClassGaussian):
        z = rng.standard_normal((labels.shape[0], spec.p))
        L0, L1 = spec._chol
        # every row takes the class-0 factor, then the (rare) class-1 rows are
        # redone, which copies only those rows through a mask
        x = z @ L0.T
        x += spec.mu0
        ones = labels == 1.0
        x[ones] = spec.mu1 + z[ones] @ L1.T
        if t is not None:
            (_, v0, c0), (_, v1, c1) = predictor_laws(spec, pilot)
            var, cov = np.where(ones, v1, v0), np.where(ones[:, None], c1, c0)
            gap = t - pilot.linear_predictor(x)
            x += np.divide(gap, var, out=np.zeros_like(var), where=var > 0)[:, None] * cov
        return x
    if t is not None:
        raise ValueError("features given the pilot predictor need a Gaussian population")
    out = np.empty((labels.shape[0], spec.p))
    prior1 = positive_rate(spec)
    for label, rate in ((0.0, 1.0 - prior1), (1.0, prior1)):
        rows = np.flatnonzero(labels == label)
        while rows.size:
            draw = sample_population(spec, int(min(max(1024, 1.2 * rows.size / rate), 2**20)), rng)
            match = draw.features[draw.labels == label][: rows.size]
            out[rows[: len(match)]] = match
            rows = rows[len(match):]
    return out


# ---------------------------------------------------------------------------
# integration grids and population solvers


@dataclass(frozen=True)
class Grid:
    """Deterministic x-integration rule with the true p(x) at each node."""

    points: np.ndarray
    masses: np.ndarray
    prob1: np.ndarray

    @property
    def design(self) -> np.ndarray:
        """The nodes with a leading intercept column."""
        return np.column_stack([np.ones(self.points.shape[0]), self.points])


_STEP_NODES_PER_PANEL = 256
# A Gaussian grid's coordinates: Gauss-Legendre panels of _PANEL_NODES nodes
# on |t| <= _NORMAL_RANGE (the normal tail beyond holds 8e-24), each at most
# _PANEL_WIDTH standard deviations and units of the predictor wide (the
# sigmoid's poles lie pi off the real axis).
_PANEL_NODES = 10
_NORMAL_RANGE = 10.0
_PANEL_WIDTH = 2.0


@cache
def _legendre(n: int):
    """Nodes and weights on [-1, 1]; a population solver builds its grid at every iterate."""
    return np.polynomial.legendre.leggauss(n)  # numpy.polynomial loads on first access


def _gauss_legendre(a, b, n: int):
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def integration_grid(spec: PopulationSpec, along=(), c: float = 1.0) -> Grid:
    """Integration rule over the feature distribution.

    Discrete populations integrate exactly over cells; the step population
    uses Gauss-Legendre panels split at the jump.  Both ignore `along` and
    `c`.  A Gaussian population's rule is built along the linear predictors
    `along` (coefficient vectors, intercept first) that the integrand
    depends on, and is exact for integrands linear in p(x) and at most
    quadratic in x given them (_gaussian_grid).
    """
    if isinstance(spec, DiscretePopulation):
        return Grid(spec.points, spec.masses, K.sigmoid(spec.logodds))
    if isinstance(spec, StepLogit):
        x1, w1 = _gauss_legendre(0.0, spec.threshold, _STEP_NODES_PER_PANEL)
        x2, w2 = _gauss_legendre(spec.threshold, 1.0, _STEP_NODES_PER_PANEL)
        pts = np.concatenate([x1, x2]).reshape(-1, 1)
        masses = np.concatenate([w1, w2])
        return Grid(pts, masses, conditional_probability(spec, pts))
    if isinstance(spec, TwoClassGaussian):
        if not len(along):
            raise ValueError(
                "a Gaussian population's grid needs the linear predictors of its integrand"
            )
        return _gaussian_grid(spec, along, c)
    raise TypeError(f"unknown population spec {type(spec)!r}")


def _normal_rule(scale: float, split: float = 0.0):
    """(nodes, weights) for a standard normal t that enters as scale * t:
    Gauss-Legendre panels with an edge at `split`."""
    edge = float(np.clip(split, -_NORMAL_RANGE, _NORMAL_RANGE))
    width = _PANEL_WIDTH / max(scale, 1.0)
    cuts = np.unique(np.concatenate([
        np.linspace(a, b, int(np.ceil((b - a) / width)) + 1)
        for a, b in ((-_NORMAL_RANGE, edge), (edge, _NORMAL_RANGE))
    ]))
    t, w = _gauss_legendre(cuts[:-1, None], cuts[1:, None], _PANEL_NODES)
    return t.ravel(), (w * np.exp(-0.5 * t * t)).ravel() / np.sqrt(2.0 * np.pi)


def _gaussian_grid(spec: TwoClassGaussian, along, c: float) -> Grid:
    """Exact rule for sum_y P(Y=y) E_y[g(x)], g at most quadratic in x given u = B'(1, x).

    Each node carries its class as prob1 (0 or 1) and mass P(Y=y) times its
    weight: an integrand linear in p(x) has E[p(x) g(x)] = P(Y=1) E_1[g].
    Under class y, x = mu + L z with z standard normal.  The predictors see
    z through the Gram-Schmidt directions q_i of the L'beta_i (beta_i the
    slopes of along[i]); each t_i = q_i'z gets a _normal_rule, the first
    split where min(c * a, 1) has its kink: sigmoid(u) = 1/c for controls
    and 1 - 1/c for cases.  Given t, the other k directions of z have mean
    0 and identity covariance, carried exactly by the k + 1 vertices of a
    regular simplex: two moments are all a quadratic integrand sees.
    """
    points, masses, prob1 = [], [], []
    for y, prior, mu, chol in (
        (0.0, 1.0 - spec.prior1, spec.mu0, spec._chol[0]),
        (1.0, spec.prior1, spec.mu1, spec._chol[1]),
    ):
        directions, t, weights = [], np.zeros((1, 0)), np.ones(1)
        for i, b in enumerate(along):
            a = chol.T @ b[1:]
            resid = a - sum((q @ a) * q for q in directions)
            scale = float(np.linalg.norm(resid))
            if scale <= 1e-12 * np.linalg.norm(a):
                continue  # constant given the predictors before it
            split = 0.0
            if i == 0 and c > 1.0:
                split = (np.log(c - 1.0) * (2.0 * y - 1.0) - b[0] - b[1:] @ mu) / scale
            directions.append(resid / scale)
            nodes, w = _normal_rule(scale, split)
            t = np.column_stack([np.repeat(t, nodes.size, axis=0), np.tile(nodes, t.shape[0])])
            weights = np.outer(weights, w).ravel()
        p, r = mu.size, len(directions)
        # the QR of [q_1 .. q_r, I] completes the q_i to a basis, and the rows
        # of a ones column's complete QR, less its first column, are the
        # vertices of a regular simplex over sqrt(k + 1)
        rest = np.linalg.qr(np.column_stack(directions + [np.eye(p)]))[0][:, r:]
        simplex = np.linalg.qr(np.ones((p - r + 1, 1)), mode="complete")[0][:, 1:]
        vertices = np.sqrt(p - r + 1.0) * simplex @ rest.T
        z = (t @ np.reshape(directions, (r, p)))[:, None, :] + vertices
        points.append(mu + z.reshape(-1, p) @ chol.T)
        masses.append(np.repeat(prior * weights / len(vertices), len(vertices)))
        prob1.append(np.full(masses[-1].size, y))
    return Grid(np.concatenate(points), np.concatenate(masses), np.concatenate(prob1))


@dataclass(frozen=True)
class OracleFit:
    """Population solver output: coefficients and the final normalized score."""

    params: ModelParams
    grad_norm: float

    @property
    def mc_se(self) -> np.ndarray:
        """Zero: every rule is exact.  Kept for simulate's theta_star_mc_se key
        and the benchmark's tracer, which read it."""
        return np.zeros(self.params.slopes.size + 1)


def population_score(spec: PopulationSpec, theta: ModelParams):
    """Population score E[(p(X) - p_theta(X)) (1,X)'] on the spec's grid."""
    grid = integration_grid(spec, along=(theta.as_array(),))
    return logistic_risk(grid.design, grid.masses, grid.prob1)(theta.as_array())[1]


def scheme_risk(grid: Grid, scheme: SamplingScheme):
    """logistic_risk's (design, weights, targets, offsets) for the scheme's limit,
    and accept_rows' ((prob_0, weight_0), (prob_1, weight_1)) at the nodes.

    accept_rows runs once with every label 0 and once with every label 1.
    Class y weighs zw_y = prob_y weight_y = E[zw | x, y]: the x-weights are
    masses * w with w = zw_0 + p (zw_1 - zw_0), the targets p zw_1 / w (0
    where w underflows), and the offsets accept_rows', alike for both labels.
    """
    n = grid.masses.size
    (_, weight0, offsets, prob0), (_, weight1, _, prob1) = (
        accept_rows(scheme, grid.points, np.full(n, y), np.ones(n)) for y in (0.0, 1.0)
    )
    zw0, zw1 = prob0 * weight0, prob1 * weight1
    w = zw0 + grid.prob1 * (zw1 - zw0)
    targets = np.divide(grid.prob1 * zw1, w, out=np.zeros_like(w), where=w > 0)
    return (grid.design, grid.masses * w, targets, offsets), ((prob0, weight0), (prob1, weight1))


def population_limit(spec: PopulationSpec, scheme: SamplingScheme, tol: float = 1e-12) -> OracleFit:
    """Large-sample limit of the scheme's estimate, a pilot held fixed.

    Minimizes scheme_risk: the acceptance tilts the log-odds by
    log(zw_1 / zw_0) and the offsets take it back, so a correctly specified
    Gaussian population returns its exact coefficients.  At each iterate
    theta the risk on integration_grid(spec, along=(shift, theta - shift))
    is exact; Newton starts at shift, the scheme's adjustment.
    """
    if isinstance(spec, TwoClassGaussian) and spec.correctly_specified:
        return OracleFit(spec.linear_params(), 0.0)
    shift = scheme_adjustment(scheme, spec.p)

    def risk(theta):
        return scheme_risk(integration_grid(spec, along=(shift, theta - shift)), scheme)[0]

    total = float(np.sum(risk(shift)[1]))
    config = FitConfig(grad_tol=tol)
    fit = minimize_risk(lambda t: logistic_risk(*risk(t))(t), shift.size, total, config, shift)
    return OracleFit(fit.params, fit.grad_norm)


def population_theta_star(spec: PopulationSpec, tol: float = 1e-12) -> OracleFit:
    """Best linear log-odds approximation under the population logit risk:
    the limit of Uniform()."""
    return population_limit(spec, Uniform(), tol)


def theta_cc_limit(spec: PopulationSpec, b: float, tol: float = 1e-12) -> OracleFit:
    """Large-sample limit of the adjusted case-control estimate with bias b:
    cases kept e^b times as often as controls, offset b.  b = 0 gives theta*."""
    scheme = CaseControl(a0=min(1.0, np.exp(-b)), a1=min(1.0, np.exp(b)))
    return population_limit(spec, scheme, tol)


def marginal_odds_ratio(spec: DiscretePopulation, coordinate: int) -> float:
    """odds(Y=1 | x_j=1) / odds(Y=1 | x_j=0) from exact cell sums."""
    if not isinstance(spec, DiscretePopulation):
        raise TypeError("marginal odds ratios need a discrete population")
    col = spec.points[:, coordinate]
    if not np.all((col == 0.0) | (col == 1.0)) or len(np.unique(col)) != 2:
        raise ValueError(f"coordinate {coordinate} is not binary")
    p = K.sigmoid(spec.logodds)
    odds = []
    for v in (0.0, 1.0):
        sel = col == v
        rate = np.sum(spec.masses[sel] * p[sel]) / np.sum(spec.masses[sel])
        odds.append(rate / (1.0 - rate))
    return float(odds[1] / odds[0])


# ---------------------------------------------------------------------------
# precision-recall


@dataclass(frozen=True)
class PrecisionRecallCurve:
    """One (threshold, precision, recall) row per distinct score, descending."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    def average_precision(self) -> float:
        """Step-integrated area under the precision-recall curve."""
        prev = np.concatenate([[0.0], self.recall[:-1]])
        return float(np.sum(self.precision * (self.recall - prev)))


def precision_recall(theta: ModelParams, test: ObservationSet) -> PrecisionRecallCurve:
    """Threshold sweep of the linear score over a labelled test set."""
    n_pos = float(np.sum(test.labels))
    if n_pos == 0 or n_pos == test.n:
        raise ValueError("test set must contain both classes")
    scores = theta.linear_predictor(test.features)
    order = np.argsort(-scores, kind="stable")
    y_sorted = test.labels[order]
    s_sorted = scores[order]
    distinct = np.ones(test.n, dtype=bool)
    distinct[:-1] = s_sorted[:-1] != s_sorted[1:]
    tp = np.cumsum(y_sorted)[distinct]
    pp = np.arange(1, test.n + 1)[distinct]
    return PrecisionRecallCurve(
        thresholds=s_sorted[distinct],
        precision=tp / pp,
        recall=tp / n_pos,
    )
