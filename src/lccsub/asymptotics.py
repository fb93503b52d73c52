"""Population-level score, curvature, and variance of each subsampling scheme.

All quantities are x-integrals with the label integrated out analytically:
exact cell sums for discrete populations, Gauss-Legendre panels for the
step population, and for Gaussian populations an exact quadrature rule
built along the linear predictors each integrand depends on (the scheme's
adjustment and theta minus it).  A caller may pass its own grid.  Every
moment comes from populations.scheme_risk, which reads the scheme's
acceptance probability and fit weight per label off sampling.accept_rows,
the formula the data path uses: G and abar*H are the score and Hessian of
the risk population_limit minimizes, so the limit is G's root, and
SigmaFull is the sandwich of Uniform(), where nothing is subsampled.

Conventions (row x, scheme evaluated at theta, xt = (1, x), offset o the
scheme's, m = sigmoid(theta'xt + o), prob_y and weight_y the acceptance
probability and fit weight of label y, z the acceptance indicator, w the
fit weight; for local case-control ptilde = sigmoid(pilot'xt)):

  abar       E[z]                      marginal acceptance probability
  G          E[z w s],  s = (y - m) xt expected weighted subsample score
  H          abar^-1 E[z w m (1-m) xt xt']
  J          abar^-1 E[z w^2 s s'] - (G/abar)(G/abar)'
  C          abar^-1 d/dpilot G        (closed form; zero without a pilot)

With those scalings, sqrt(n)(est - limit) has covariance
H^-1 (C V C' + abar^-1 J) H^-1 for a pilot with sqrt(n)-covariance V,
and the conditional-bias slope d(limit)/d(pilot) is H^-1 C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .glm import ModelParams, logistic_risk
from .populations import Grid, PopulationSpec, integration_grid, scheme_risk
from .sampling import LocalCaseControl, SamplingScheme, Uniform, scheme_adjustment

__all__ = [
    "AsymptoticsReport",
    "eval_abar",
    "eval_matrices",
    "lcc_variance",
    "conditional_bias_slope",
    "sigma_full",
]

@dataclass(frozen=True)
class AsymptoticsReport:
    """Evaluated population quantities of one scheme at one theta."""

    spec: PopulationSpec
    theta: ModelParams
    scheme: SamplingScheme
    abar: float
    G: np.ndarray
    H: np.ndarray
    J: np.ndarray
    C: np.ndarray
    Sigma: np.ndarray
    SigmaFull: np.ndarray


def _node_moments(grid: Grid, theta_vec, scheme: SamplingScheme):
    """G, abar*H, abar*C, and the per-node integrands of abar and J.

    G and abar*H are scheme_risk's score and Hessian at theta.  For local
    case-control E[zw | x, y] = c*|y - ptilde| whatever is capped or
    retained, so G's integrand moves with the pilot by (m - ptilde) times
    itself, which gives abar*C.  Against grid.masses, "abar" integrates to
    abar and "j" to abar*J + G G'/abar.
    """
    risk, ((prob0, weight0), (prob1, weight1)) = scheme_risk(grid, scheme)
    design, weights, targets, offsets = risk
    _, score, hessian = logistic_risk(*risk)(theta_vec)
    p = grid.prob1
    m = K.sigmoid(design @ theta_vec + offsets)
    slope = np.zeros_like(hessian)
    if isinstance(scheme, LocalCaseControl):
        ptilde = K.sigmoid(-offsets)  # the offsets are -pilot'xt
        slope = _weighted_mat(design, weights, (targets - m) * (m - ptilde))
    return {
        "design": design,
        "G": score,
        "curvature": hessian,
        "slope": slope,
        "abar": p * prob1 + (1 - p) * prob0,
        # E[z w^2 | x, y] = prob_y * weight_y^2
        "j": p * prob1 * weight1**2 * (1.0 - m) ** 2 + (1 - p) * prob0 * weight0**2 * m**2,
    }


def _weighted_mat(design, masses, scalars):
    return (design * (masses * scalars)[:, None]).T @ design


def _grid(spec: PopulationSpec, scheme: SamplingScheme, *along) -> Grid:
    """The rule along the scheme's adjustment and `along`, split where
    local case-control's acceptance is capped."""
    c = scheme.c if isinstance(scheme, LocalCaseControl) else 1.0
    return integration_grid(spec, along=(scheme_adjustment(scheme, spec.p), *along), c=c)


def eval_abar(spec: PopulationSpec, scheme: SamplingScheme, grid: Grid | None = None) -> float:
    """Marginal acceptance probability E[prob_Y(X)] of the scheme."""
    shift = scheme_adjustment(scheme, spec.p)
    grid = grid or _grid(spec, scheme)
    return float(np.sum(grid.masses * _node_moments(grid, shift, scheme)["abar"]))


def eval_matrices(
    spec: PopulationSpec,
    theta: ModelParams,
    scheme: SamplingScheme,
    grid: Grid | None = None,
    theta_star: ModelParams | None = None,
) -> AsymptoticsReport:
    """Evaluate abar, G, H, J, C, Sigma and SigmaFull of the scheme at theta.

    For local case-control below c = 1 every c*a_y is below 1, so abar
    scales with c and the weights c*a cancel it from H, J, C and Sigma.
    SigmaFull is the no-subsampling sandwich at theta_star (defaults to
    theta).  C integrates the pilot derivative of G's integrand in closed
    form on the same grid.  Without a grid, SigmaFull gets its own along
    theta_star.
    """
    theta_vec = theta.as_array()
    given = grid
    grid = grid or _grid(spec, scheme, theta_vec - scheme_adjustment(scheme, spec.p))
    k = theta_vec.size

    mom = _node_moments(grid, theta_vec, scheme)
    design = mom["design"]
    masses = grid.masses
    abar = float(np.sum(masses * mom["abar"]))
    H = mom["curvature"] / abar
    Gn = mom["G"] / abar
    J = _weighted_mat(design, masses, mom["j"]) / abar - np.outer(Gn, Gn)
    if not np.allclose(H, H.T, atol=1e-10) or not np.allclose(J, J.T, atol=1e-10):
        raise ValueError("H/J not symmetric: numerical failure")
    np.linalg.cholesky(H + 1e-300 * np.eye(k))  # SPD check

    Sigma = np.linalg.solve(H, np.linalg.solve(H, J).T)

    return AsymptoticsReport(
        spec=spec,
        theta=theta,
        scheme=scheme,
        abar=abar,
        G=mom["G"],
        H=H,
        J=J,
        C=mom["slope"] / abar,
        Sigma=Sigma,
        SigmaFull=sigma_full(spec, theta_star or theta, grid=given),
    )


def sigma_full(spec: PopulationSpec, theta_star: ModelParams, grid: Grid | None = None):
    """Full-sample sandwich covariance of sqrt(n)(MLE - theta_star).

    The uncentred sandwich of Uniform()'s moments: nothing is subsampled
    or reweighted.  Collapses to the inverse Fisher information under
    correct specification.
    """
    theta_vec = theta_star.as_array()
    grid = grid or integration_grid(spec, along=(theta_vec,))
    mom = _node_moments(grid, theta_vec, Uniform())
    h_inv = np.linalg.inv(mom["curvature"])
    return h_inv @ _weighted_mat(mom["design"], grid.masses, mom["j"]) @ h_inv


def lcc_variance(report: AsymptoticsReport, pilot_variance=None) -> np.ndarray:
    """Asymptotic covariance of sqrt(n)(estimate - limit), eq-37 style.

    pilot_variance V is the sqrt(n)-scale covariance of the pilot
    (None or 0 for a fixed/noise-free pilot): H^-1 (C V C' + abar^-1 J) H^-1.
    """
    k = report.H.shape[0]
    inner = report.J / report.abar
    if pilot_variance is not None:
        V = np.asarray(pilot_variance, dtype=np.float64)
        if V.shape != (k, k):
            raise ValueError(f"pilot variance must be {k}x{k}")
        inner = inner + report.C @ V @ report.C.T
    return np.linalg.solve(report.H, np.linalg.solve(report.H, inner).T)


def conditional_bias_slope(report: AsymptoticsReport) -> np.ndarray:
    """Derivative of the pilot-frozen limit in the pilot: H^-1 C."""
    return np.linalg.solve(report.H, report.C)
