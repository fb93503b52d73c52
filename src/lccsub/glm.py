"""Weighted, offset-aware logistic regression by damped Newton iteration.

The loss for a single row is -y*eta + log(1+exp(eta)) with linear predictor
eta = intercept + slopes'x + offset.  Offsets are fixed per-row additive
terms (never estimated); they let a fit on a tilted subsample report
coefficients for the original population directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K

__all__ = [
    "ObservationSet",
    "ModelParams",
    "FitConfig",
    "FitResult",
    "GlmError",
    "Separation",
    "Singular",
    "neg_log_likelihood",
    "score",
    "hessian",
    "logistic_risk",
    "minimize_risk",
    "newton_logistic",
    "fit_logistic",
]


class GlmError(Exception):
    """Base class for fitting failures."""


class Separation(GlmError):
    """The MLE diverges: a hyperplane (nearly) separates the classes."""


class Singular(GlmError):
    """Hessian not invertible even after a ridge-jitter retry."""


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ObservationSet:
    """Feature matrix with binary labels and optional weights/offsets.

    features has shape (n, p) and carries raw covariates only; the intercept
    is handled by the fitter and never passed as a column.  weights default
    to 1, offsets to 0.  Arrays are copied and frozen at construction.
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, copy=True)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        n = feats.shape[0]
        if n < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        labels = np.array(self.labels, dtype=np.float64, copy=True)
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be 0 or 1")
        if self.weights is None:
            weights = np.ones(n)
        else:
            weights = _as_float_array(self.weights, "weights", 1)
            if weights.shape != (n,):
                raise ValueError("weights length does not match features")
            if not np.all(weights > 0):
                raise ValueError("weights must be positive")
        if self.offsets is None:
            offsets = np.zeros(n)
        else:
            offsets = _as_float_array(self.offsets, "offsets", 1)
            if offsets.shape != (n,):
                raise ValueError("offsets length does not match features")
        for arr in (feats, labels, weights, offsets):
            arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelParams:
    """Coefficients (intercept, slopes) of a linear log-odds model."""

    intercept: float
    slopes: np.ndarray

    def __post_init__(self):
        slopes = np.array(self.slopes, dtype=np.float64, copy=True).reshape(-1)
        if not np.isfinite(self.intercept):
            raise ValueError("intercept must be finite")
        if not np.all(np.isfinite(slopes)):
            raise ValueError("slopes contain non-finite values")
        slopes.flags.writeable = False
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "slopes", slopes)

    @classmethod
    def zeros(cls, p: int) -> "ModelParams":
        return cls(0.0, np.zeros(p))

    @classmethod
    def from_array(cls, vec) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        return cls(float(vec[0]), vec[1:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([[self.intercept], self.slopes])

    def linear_predictor(self, features, offsets=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.slopes.size:
            raise ValueError(
                f"feature count {features.shape[1]} does not match slopes "
                f"({self.slopes.size})"
            )
        # numpy takes a one-row product off the gemv path, where it may round
        # differently; doubling the row keeps eta independent of how rows
        # are split into chunks
        rows = features if features.shape[0] != 1 else np.repeat(features, 2, axis=0)
        eta = (self.intercept + rows @ self.slopes)[: features.shape[0]]
        if offsets is not None:
            eta = eta + offsets
        return eta


@dataclass(frozen=True)
class FitConfig:
    """Newton solver settings.

    grad_tol is checked against the max-abs score component of the
    weight-normalized problem (score / total weight), which keeps the
    stopping rule invariant under rescaling all weights by a constant.
    """

    grad_tol: float = 1e-10
    max_iter: int = 100
    step_halvings: int = 30
    divergence_norm: float = 1e4

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    grad_norm: float
    iterations: int
    neg_log_lik: float


def _design(data: ObservationSet) -> np.ndarray:
    return np.column_stack([np.ones(data.n), data.features])


def _eta(theta: ModelParams, data: ObservationSet) -> np.ndarray:
    return theta.linear_predictor(data.features, data.offsets)


def neg_log_likelihood(theta: ModelParams, data: ObservationSet) -> float:
    """Weighted negative log-likelihood, overflow-safe for any offsets."""
    return K.nll_sum(_eta(theta, data), data.labels, data.weights)


def score(theta: ModelParams, data: ObservationSet) -> np.ndarray:
    """Gradient of the log-likelihood: sum_i w_i (y_i - p_i) (1, x_i)'."""
    resid = data.weights * (data.labels - K.sigmoid(_eta(theta, data)))
    return _design(data).T @ resid


def hessian(theta: ModelParams, data: ObservationSet) -> np.ndarray:
    """Negative-log-likelihood Hessian: sum_i w_i p_i (1-p_i) (1,x_i)(1,x_i)'."""
    mu = K.sigmoid(_eta(theta, data))
    design = _design(data)
    return (design * (data.weights * mu * (1.0 - mu))[:, None]).T @ design


def _solve_newton_step(H: np.ndarray, s: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, s)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * np.trace(H) / H.shape[0]
        try:
            return np.linalg.solve(H + ridge * np.eye(H.shape[0]), s)
        except np.linalg.LinAlgError as exc:
            raise Singular("Hessian singular even after ridge jitter") from exc


# Weighted mean NLL below this is indistinguishable from a perfect fit,
# i.e. every |eta| is ~20+ with the right sign: quasi-separation.
_SEPARATION_NLL = 1e-9

# Below this normalized gradient, remaining descent can sit under the
# rounding noise of the summed NLL; take undamped Newton steps there.
_BASIN_GRAD = 1e-6


def minimize_risk(
    risk,
    k: int,
    total_weight: float,
    config: FitConfig | None = None,
    start: np.ndarray | None = None,
) -> FitResult:
    """Damped Newton minimizer of a smooth convex risk over R^k, from start or 0.

    risk(theta) returns (value, score, Hessian), the score being minus the
    gradient; total_weight normalizes the score for config.grad_tol and the
    value for the separation check.

    Raises Separation when the iterate norm exceeds config.divergence_norm,
    keeps growing at max_iter, or the converged risk is essentially zero.
    Raises Singular for a non-invertible Hessian after one ridge retry, and
    GlmError when no step of up to config.step_halvings halvings descends
    while the score is still large.
    """
    config = config or FitConfig()
    theta = np.zeros(k) if start is None else np.array(start, dtype=np.float64)

    f, s, H = risk(theta)
    norms = [float(np.linalg.norm(theta))]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        grad_norm = float(np.max(np.abs(s))) / total_weight
        if grad_norm < config.grad_tol:
            converged = True
            break
        delta = _solve_newton_step(H, s)
        if grad_norm < _BASIN_GRAD:
            # quadratic-convergence basin: a full step descends in exact
            # arithmetic; the summed risk is too noisy to line-search on
            theta = theta + delta
            f, s, H = risk(theta)
        else:
            step = 1.0
            accepted = False
            for _ in range(config.step_halvings + 1):
                cand = theta + step * delta
                f_cand, s_cand, H_cand = risk(cand)
                if f_cand <= f:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                # No descent at 2^-30 of a Newton step: numerical optimum;
                # fall through to the stall check below.
                break
            theta, f, s, H = cand, f_cand, s_cand, H_cand
        norms.append(float(np.linalg.norm(theta)))
        if norms[-1] > config.divergence_norm:
            raise Separation(
                f"iterate norm {norms[-1]:.3g} exceeds {config.divergence_norm:.3g}"
            )
    else:
        if len(norms) >= 3 and norms[-1] > norms[-2] > norms[-3]:
            raise Separation("max_iter reached with growing coefficient norm")
        raise GlmError(f"no convergence in {config.max_iter} iterations")

    # a failed line search leaves theta, and so grad_norm, as they were
    if not converged and grad_norm >= config.grad_tol * 1e3:
        raise GlmError(
            f"stalled with normalized score {grad_norm:.3g} "
            f"(tolerance {config.grad_tol:.3g})"
        )
    if f / total_weight < _SEPARATION_NLL:
        raise Separation("fit is numerically perfect: classes are separable")
    return FitResult(
        params=ModelParams.from_array(theta),
        grad_norm=grad_norm,
        iterations=it,
        neg_log_lik=f,
    )


def logistic_risk(design: np.ndarray, weights: np.ndarray, targets: np.ndarray, offsets=0.0):
    """The risk sum_i w_i [log(1+e^eta_i) - t_i eta_i], as minimize_risk takes it.

    eta = design @ theta + offsets, and the targets t lie in [0, 1]: 0/1
    labels give the weighted logistic NLL, soft targets a population risk.
    """

    def risk(theta):
        eta = design @ theta + offsets
        mu = K.sigmoid(eta)
        return (
            K.nll_sum(eta, targets, weights),
            design.T @ (weights * (targets - mu)),
            (design * (weights * mu * (1.0 - mu))[:, None]).T @ design,
        )

    return risk


def newton_logistic(
    design: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    offsets: np.ndarray | float = 0.0,
    config: FitConfig | None = None,
    start: np.ndarray | None = None,
) -> FitResult:
    """Damped Newton (IRLS) minimizer of logistic_risk.  Raises as minimize_risk does."""
    risk = logistic_risk(design, weights, targets, offsets)
    return minimize_risk(risk, design.shape[1], float(np.sum(weights)), config, start)


def fit_logistic(
    data: ObservationSet,
    config: FitConfig | None = None,
    start: ModelParams | None = None,
) -> FitResult:
    """Damped Newton fit of the weighted, offset-aware logistic model.

    Raises as newton_logistic does.
    """
    if start is not None and start.slopes.size != data.p:
        raise ValueError("start dimension does not match data")
    return newton_logistic(
        _design(data),
        data.weights,
        data.labels,
        data.offsets,
        config,
        None if start is None else start.as_array(),
    )
