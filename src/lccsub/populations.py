"""Synthetic populations with exact log-odds and population-limit solvers.

Three population kinds:
  DiscretePopulation  finite support, exact cell masses and log-odds
  TwoClassGaussian    class prior + per-class Gaussian features
  StepLogit           scalar X ~ U(0,1) with a jump in the log-odds

Each large-sample limit of the estimators (theta*, the case-control and the
pilot-frozen limits) minimizes one tilted logit risk, written once by
tilted_risk; asymptotics takes the variance law off the same risk.
population_limit solves it by damped Newton on an exact integration rule:
cell sums for discrete populations, Gauss-Legendre panels split at the jump
for the step population, and for Gaussian populations a rule
integration_grid builds along the linear predictors the integrand depends
on (for the tilted risk, shift and iterate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from . import _kernels as K
from .glm import FitConfig, ModelParams, ObservationSet, logistic_risk, minimize_risk
from .sampling import LocalCaseControl, accept_rows

__all__ = [
    "DiscretePopulation",
    "TwoClassGaussian",
    "StepLogit",
    "PopulationSpec",
    "AcceptanceTooLow",
    "Grid",
    "OracleFit",
    "TiltedSample",
    "PrecisionRecallCurve",
    "true_log_odds",
    "conditional_probability",
    "positive_rate",
    "equal_class_bias",
    "integration_grid",
    "population_score",
    "tilted_risk",
    "population_limit",
    "population_theta_star",
    "theta_cc_limit",
    "marginal_odds_ratio",
    "sample_population",
    "sample_conditional",
    "sample_tilted",
    "precision_recall",
]


class AcceptanceTooLow(Exception):
    """Tilted rejection sampling exceeded its proposal cap."""


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
        labels = (rng.random(n) < spec.prior1).astype(np.float64)
        feats = _gaussian_features(spec, labels, rng)
        return ObservationSet(feats, labels)
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


def _gaussian_features(spec: TwoClassGaussian, labels, rng) -> np.ndarray:
    n = labels.shape[0]
    z = rng.standard_normal((n, spec.p))
    L0, L1 = spec._chol
    # every row takes the class-0 factor, then the (rare) class-1 rows are
    # redone, which copies only those rows through a mask
    feats = z @ L0.T
    feats += spec.mu0
    ones = labels == 1.0
    feats[ones] = spec.mu1 + z[ones] @ L1.T
    return feats


def sample_conditional(spec: PopulationSpec, labels, rng) -> np.ndarray:
    """Features drawn from X | Y=label, one row per entry of labels."""
    labels = np.asarray(labels, dtype=np.float64)
    if isinstance(spec, TwoClassGaussian):
        return _gaussian_features(spec, labels, rng)
    if isinstance(spec, DiscretePopulation):
        p = K.sigmoid(spec.logodds)
        out = np.empty((labels.shape[0], spec.p))
        for label, cond in ((1.0, p), (0.0, 1.0 - p)):
            sel = labels == label
            if not np.any(sel):
                continue
            w = spec.masses * cond
            w = w / w.sum()
            idx = rng.choice(spec.points.shape[0], size=int(sel.sum()), p=w)
            out[sel] = spec.points[idx]
        return out
    if isinstance(spec, StepLogit):
        # rejection from U(0,1) against the class-conditional density
        out = np.empty((labels.shape[0], 1))
        for label in (0.0, 1.0):
            sel = np.flatnonzero(labels == label)
            need = sel.size
            if need == 0:
                continue
            grid = np.linspace(0.0, 1.0, 4097).reshape(-1, 1)
            dens = conditional_probability(spec, grid)
            bound = float(dens.max() if label == 1.0 else (1.0 - dens).min() + 1.0)
            got = []
            while need > 0:
                m = max(4 * need, 1024)
                x = rng.random(m)
                px = conditional_probability(spec, x.reshape(-1, 1))
                target = px if label == 1.0 else 1.0 - px
                acc = x[rng.random(m) * bound < target]
                got.append(acc[:need])
                need -= len(got[-1])
            out[sel, 0] = np.concatenate(got)
        return out
    raise TypeError(f"unknown population spec {type(spec)!r}")


@dataclass(frozen=True)
class TiltedSample:
    """Accepted draws from the pilot-tilted measure plus the proposal count."""

    observations: ObservationSet
    proposals: int

    @property
    def acceptance_rate(self) -> float:
        return self.observations.n / self.proposals


def sample_tilted(
    spec: PopulationSpec,
    pilot: ModelParams,
    n_accept: int,
    rng,
    proposal_cap: int = 10**9,
) -> TiltedSample:
    """Rejection-sample the measure tilted by a(x,y) = |y - ptilde(x)|.

    Proposes from the population and accepts each row with probability
    a(x,y), stopping at exactly n_accept acceptances.  The proposal count
    (through the accepting row) supports estimating the marginal acceptance
    probability.
    """
    if n_accept < 1:
        raise ValueError("n_accept must be at least 1")
    feats_parts, label_parts = [], []
    accepted = 0
    proposals = 0
    batch = max(4096, 2 * n_accept)
    scheme = LocalCaseControl(pilot)
    while accepted < n_accept:
        if proposals >= proposal_cap:
            raise AcceptanceTooLow(
                f"{accepted}/{n_accept} acceptances after {proposals} proposals"
            )
        batch = int(min(batch, proposal_cap - proposals, 2**20))
        obs = sample_population(spec, batch, rng)
        keep = accept_rows(scheme, obs.features, obs.labels, rng.random(batch))[0]
        hits = np.flatnonzero(keep)
        if accepted + hits.size >= n_accept:
            last = hits[n_accept - accepted - 1]
            proposals += int(last) + 1
            hits = hits[: n_accept - accepted]
        else:
            proposals += batch
        feats_parts.append(obs.features[hits])
        label_parts.append(obs.labels[hits])
        accepted += hits.size
        # every batch before the last counts in full toward proposals
        rate = max(accepted / proposals, 1e-6)
        batch = int(min(max(4096, 1.2 * (n_accept - accepted) / rate), 2**20))
    return TiltedSample(
        ObservationSet(np.vstack(feats_parts), np.concatenate(label_parts)),
        proposals,
    )


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


def tilted_risk(grid: Grid, shift):
    """logistic_risk's (design, weights, targets, offsets) for the risk tilted at shift.

    Class y is weighted by its acceptance probability at shift, w_1 =
    sigmoid(-u) and w_0 = sigmoid(u) with u = shift'xt: the x-weights are
    masses * w with w = w_0 + p (w_1 - w_0), the targets p w_1 / w (0 where
    w underflows), and the offsets -u take the tilt back off the log-odds.
    """
    design = grid.design
    u = design @ shift
    w1, w0 = K.sigmoid(-u), K.sigmoid(u)
    w = w0 + grid.prob1 * (w1 - w0)
    targets = np.divide(grid.prob1 * w1, w, out=np.zeros_like(w), where=w > 0)
    return design, grid.masses * w, targets, -u


def population_limit(spec: PopulationSpec, shift, tol: float = 1e-12) -> OracleFit:
    """Large-sample limit of the local case-control estimate with the pilot frozen at shift.

    Minimizes the tilted risk E[w_Y(X) logloss(Y, sigmoid((theta - shift)'xt))]
    of tilted_risk: the tilt adds -u to the log-odds and the offset takes it
    back, so a correctly specified Gaussian population returns its exact
    coefficients.  At each iterate theta the risk on integration_grid(spec,
    along=(shift, theta - shift)) is exact.  Newton starts at shift.
    shift = 0 gives theta*; the constant shift -b e_0 keeps cases e^b times as
    often as controls with offset b, the adjusted case-control limit.
    """
    if isinstance(spec, TwoClassGaussian) and spec.correctly_specified:
        return OracleFit(spec.linear_params(), 0.0)

    def tilted(theta):
        return tilted_risk(integration_grid(spec, along=(shift, theta - shift)), shift)

    total = float(np.sum(tilted(shift)[1]))
    config = FitConfig(grad_tol=tol)
    fit = minimize_risk(lambda t: logistic_risk(*tilted(t))(t), shift.size, total, config, shift)
    return OracleFit(fit.params, fit.grad_norm)


def population_theta_star(spec: PopulationSpec, tol: float = 1e-12) -> OracleFit:
    """Best linear log-odds approximation under the population logit risk."""
    return population_limit(spec, np.zeros(spec.p + 1), tol)


def theta_cc_limit(spec: PopulationSpec, b: float, tol: float = 1e-12) -> OracleFit:
    """Large-sample limit of the adjusted case-control estimate with bias b:
    cases kept e^b times as often as controls, offset b.  b = 0 gives theta*."""
    return population_limit(spec, np.concatenate([[-b], np.zeros(spec.p)]), tol)


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
