"""Population-level score, curvature, and variance for the tilted estimators.

All quantities are x-integrals with the label integrated out analytically:
exact cell sums for discrete populations, Gauss-Legendre panels for the
step population, and for Gaussian populations an exact quadrature rule
built along the linear predictors each integrand depends on (the pilot and
theta - pilot, or theta_star).  A caller may pass its own grid to all but
eval_bar_theta, which, like theta*, is a population_limit on every spec.
G and H are c times the score and Hessian of the risk that
population_limit minimizes, tilted_risk at the pilot, so the limit is G's
root; SigmaFull is the sandwich at pilot 0 and c = 2, where nothing is
subsampled.  Any c > 0 is accepted.

Conventions (row x, pilot lam, evaluation point theta, rate multiplier c,
xt = (1, x), m = sigmoid((theta - lam)'xt), a_y the acceptance probability
of label y, z the acceptance indicator, w the fit weight c*a or 1):

  abar       E[z]                      marginal acceptance probability
  G          E[z w s],  s = (y - m) xt expected weighted subsample score
  H          abar^-1 E[z w m (1-m) xt xt']
  J          abar^-1 E[z w^2 s s'] - (G/abar)(G/abar)'
  C          abar^-1 d/dlam G         (closed form: E[zw | x, y] = c*a)

With those scalings, sqrt(n)(est - limit) has covariance
H^-1 (C V C' + abar^-1 J) H^-1 for a pilot with sqrt(n)-covariance V,
and the conditional-bias slope d(limit)/d(lam) is H^-1 C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .glm import ModelParams, logistic_risk
from .populations import (
    Grid,
    OracleFit,
    PopulationSpec,
    integration_grid,
    population_limit,
    tilted_risk,
)

__all__ = [
    "AsymptoticsReport",
    "eval_abar",
    "eval_matrices",
    "eval_bar_theta",
    "lcc_variance",
    "conditional_bias_slope",
    "sigma_full",
]

@dataclass(frozen=True)
class AsymptoticsReport:
    """Evaluated population quantities at one (theta, lambda, c) point."""

    spec: PopulationSpec
    theta: ModelParams
    pilot: ModelParams
    c: float
    abar: float
    G: np.ndarray
    H: np.ndarray
    J: np.ndarray
    C: np.ndarray
    Sigma: np.ndarray
    SigmaFull: np.ndarray


def _node_moments(grid: Grid, theta_vec, lam_vec, c):
    """G, abar*H, abar*C, and the per-node integrands of abar and J.

    tilted_risk(grid, lam) weighs class y by w_y = a_y; the weight
    max(c*a, 1) undoes the clipping of the acceptance min(c*a, 1), so
    E[zw | x, y] = c*a_y and G and abar*H are c times that risk's score and
    Hessian at theta.  G's integrand c*w*(target - m) moves with the pilot
    by (m - ptilde) times itself, which gives abar*C.  Against grid.masses,
    "abar" integrates to abar and "j" to abar*J + G G'/abar.
    """
    design, weights, targets, offsets = risk = tilted_risk(grid, lam_vec)
    _, score, hessian = logistic_risk(*risk)(theta_vec)
    p = grid.prob1
    zw1, zw0 = c * K.sigmoid(offsets), c * K.sigmoid(-offsets)  # the offsets are -u
    m = K.sigmoid(design @ theta_vec + offsets)
    return {
        "design": design,
        "G": c * score,
        "curvature": c * hessian,
        "slope": _weighted_mat(design, weights, (targets - m) * (c * m - zw0)),
        "abar": p * np.minimum(zw1, 1.0) + (1 - p) * np.minimum(zw0, 1.0),
        # E[z w^2 | x, y] = c*a * max(c*a, 1)
        "j": p * zw1 * np.maximum(zw1, 1.0) * (1.0 - m) ** 2
        + (1 - p) * zw0 * np.maximum(zw0, 1.0) * m**2,
    }


def _weighted_mat(design, masses, scalars):
    return (design * (masses * scalars)[:, None]).T @ design


def eval_abar(
    spec: PopulationSpec,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
) -> float:
    """Marginal acceptance probability E[min(c*a(X,Y), 1)]."""
    lam_vec = pilot.as_array()
    grid = grid or integration_grid(spec, along=(lam_vec,), c=c)
    return float(np.sum(grid.masses * _node_moments(grid, lam_vec, lam_vec, c)["abar"]))


def eval_matrices(
    spec: PopulationSpec,
    theta: ModelParams,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
    theta_star: ModelParams | None = None,
) -> AsymptoticsReport:
    """Evaluate abar, G, H, J, C, Sigma and SigmaFull at (theta, pilot, c).

    Any c > 0: below 1 every c*a_y is below 1, so abar scales with c and
    the weights c*a cancel it from H, J, C and Sigma.  SigmaFull is the
    no-subsampling sandwich at theta_star (defaults to theta).  C
    integrates the pilot derivative of G's integrand in closed form on the
    same grid.  Without a grid, SigmaFull gets its own along theta_star.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    theta_vec = theta.as_array()
    lam_vec = pilot.as_array()
    given = grid
    grid = grid or integration_grid(spec, along=(lam_vec, theta_vec - lam_vec), c=c)
    k = theta_vec.size

    mom = _node_moments(grid, theta_vec, lam_vec, c)
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
        pilot=pilot,
        c=float(c),
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

    The uncentred sandwich of the moments at pilot 0 and c = 2, where every
    c*a_y is 1: nothing is subsampled or reweighted.  Collapses to the
    inverse Fisher information under correct specification.
    """
    theta_vec = theta_star.as_array()
    grid = grid or integration_grid(spec, along=(theta_vec,))
    mom = _node_moments(grid, theta_vec, np.zeros(theta_vec.size), 2.0)
    h_inv = np.linalg.inv(mom["curvature"])
    return h_inv @ _weighted_mat(mom["design"], grid.masses, mom["j"]) @ h_inv


def eval_bar_theta(spec: PopulationSpec, pilot: ModelParams, tol: float = 1e-12) -> OracleFit:
    """Large-sample limit of the estimator with the pilot frozen.

    E[zw | x, y] = c*a_y, and c scales out, so this is population_limit at
    the pilot.  pilot = 0 gives theta*.
    """
    return population_limit(spec, pilot.as_array(), tol)


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
