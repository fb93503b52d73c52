"""Population-level score, curvature, and variance for the tilted estimators.

All quantities are x-integrals with the label integrated out analytically:
exact cell sums for discrete populations, Gauss-Legendre panels for the
step population, and for Gaussian populations an exact quadrature rule
built along the linear predictors each integrand depends on (the pilot and
theta - pilot, or theta_star).  A caller may pass its own grid to all but
eval_bar_theta, which, like theta*, is a population_limit on every spec.

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
from .glm import ModelParams
from .populations import Grid, OracleFit, PopulationSpec, integration_grid, population_limit

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


def _acceptance(grid: Grid, lam_vec, c):
    """The design, ptilde, E[zw | x, y] for y = 1 and 0, and E[z | x].

    The weight max(c*a, 1) undoes the clipping of the acceptance
    min(c*a, 1), so E[zw | x, y] = c*a exactly, with a = |y - ptilde|.
    """
    design = grid.design
    ptilde = K.sigmoid(design @ lam_vec)
    zw1 = c * (1.0 - ptilde)
    zw0 = c * ptilde
    p = grid.prob1
    accept = p * np.minimum(zw1, 1.0) + (1 - p) * np.minimum(zw0, 1.0)
    return design, ptilde, zw1, zw0, accept


def _node_moments(grid: Grid, theta_vec, lam_vec, c):
    """Per-node integrands, labels integrated out.

    Returns dict of arrays keyed by quantity; each integrates against
    grid.masses.  "c" is the pilot derivative of "g": ptilde moves the
    weights c*a and m = sigmoid((theta - lam)'xt) moves the residuals.
    """
    design, ptilde, zw1, zw0, accept = _acceptance(grid, lam_vec, c)
    p = grid.prob1
    m = K.sigmoid(design @ (theta_vec - lam_vec))
    # E[z w^2 | x, y] = c*a * max(c*a, 1)
    zww1 = zw1 * np.maximum(zw1, 1.0)
    zww0 = zw0 * np.maximum(zw0, 1.0)
    h = (p * zw1 + (1 - p) * zw0) * m * (1.0 - m)
    return {
        "design": design,
        "abar": accept,
        "g": (p * zw1 * (1.0 - m) - (1 - p) * zw0 * m),
        "h": h,
        "j": p * zww1 * (1.0 - m) ** 2 + (1 - p) * zww0 * m**2,
        "c": h - c * ptilde * (1.0 - ptilde) * (p * (1.0 - m) + (1 - p) * m),
    }


def _weighted_vec(design, masses, scalars):
    return design.T @ (masses * scalars)


def _weighted_mat(design, masses, scalars):
    return (design * (masses * scalars)[:, None]).T @ design


def eval_abar(
    spec: PopulationSpec,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
) -> float:
    """Marginal acceptance probability E[min(c*a(X,Y), 1)]."""
    grid = grid or integration_grid(spec, along=(pilot.as_array(),), c=c)
    return float(np.sum(grid.masses * _acceptance(grid, pilot.as_array(), c)[-1]))


def eval_matrices(
    spec: PopulationSpec,
    theta: ModelParams,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
    theta_star: ModelParams | None = None,
) -> AsymptoticsReport:
    """Evaluate abar, G, H, J, C, Sigma and SigmaFull at (theta, pilot, c).

    SigmaFull is the no-subsampling sandwich at theta_star (defaults to
    theta).  C integrates the pilot derivative of G's integrand in closed
    form on the same grid.  Without a grid, SigmaFull gets its own along
    theta_star.
    """
    if c < 1.0:
        raise ValueError("c must be at least 1 for the weighted moments")
    theta_vec = theta.as_array()
    lam_vec = pilot.as_array()
    given = grid
    grid = grid or integration_grid(spec, along=(lam_vec, theta_vec - lam_vec), c=c)
    k = theta_vec.size

    mom = _node_moments(grid, theta_vec, lam_vec, c)
    design = mom["design"]
    masses = grid.masses
    abar = float(np.sum(masses * mom["abar"]))
    G = _weighted_vec(design, masses, mom["g"])
    H = _weighted_mat(design, masses, mom["h"]) / abar
    J_raw = _weighted_mat(design, masses, mom["j"]) / abar
    Gn = G / abar
    J = J_raw - np.outer(Gn, Gn)
    if not np.allclose(H, H.T, atol=1e-10) or not np.allclose(J, J.T, atol=1e-10):
        raise ValueError("H/J not symmetric: numerical failure")
    np.linalg.cholesky(H + 1e-300 * np.eye(k))  # SPD check

    C = _weighted_mat(design, masses, mom["c"]) / abar

    Sigma = np.linalg.solve(H, np.linalg.solve(H, J).T)

    return AsymptoticsReport(
        spec=spec,
        theta=theta,
        pilot=pilot,
        c=float(c),
        abar=abar,
        G=G,
        H=H,
        J=J,
        C=C,
        Sigma=Sigma,
        SigmaFull=sigma_full(spec, theta_star or theta, grid=given),
    )


def sigma_full(spec: PopulationSpec, theta_star: ModelParams, grid: Grid | None = None):
    """Full-sample sandwich covariance of sqrt(n)(MLE - theta_star).

    H_full^-1 J_full H_full^-1 under the original population; collapses to
    the inverse Fisher information under correct specification.
    """
    grid = grid or integration_grid(spec, along=(theta_star.as_array(),))
    design = grid.design
    p = grid.prob1
    mstar = K.sigmoid(design @ theta_star.as_array())
    j_x = p * (1 - mstar) ** 2 + (1 - p) * mstar**2
    h_full = _weighted_mat(design, grid.masses, mstar * (1 - mstar))
    j_full = _weighted_mat(design, grid.masses, j_x)
    h_inv = np.linalg.inv(h_full)
    return h_inv @ j_full @ h_inv


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
