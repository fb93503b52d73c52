"""Population-level score, curvature, and variance for the tilted estimators.

All quantities are x-integrals with the label integrated out analytically:
exact cell sums for discrete populations, Gauss-Legendre panels for the
step population, and Monte-Carlo draws with reported standard errors for
Gaussian populations, whose callers pass grid=integration_grid(spec,
mc_nodes=..., rng=...).

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

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as K
from .glm import ModelParams
from .populations import (
    Grid,
    OracleFit,
    PopulationSpec,
    _solve_on_grid,
    integration_grid,
    true_log_odds,
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
    """Evaluated population quantities at one (theta, lambda, c) point.

    mc_se holds per-entry Monte-Carlo standard errors for abar, G, H, J and
    SigmaFull (zero for exact discrete/quadrature evaluation).
    """

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
    mc_se: dict


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


def _se_vec(design, masses, scalars, exact):
    if exact:
        return np.zeros(design.shape[1])
    terms = design * (scalars * masses)[:, None] * design.shape[0]
    n = design.shape[0]
    return terms.std(axis=0, ddof=1) / np.sqrt(n)


def _se_mat(design, masses, scalars, exact):
    if exact:
        return np.zeros((design.shape[1], design.shape[1]))
    n = design.shape[0]
    k = design.shape[1]
    out = np.empty((k, k))
    scaled = scalars * masses * n
    for i in range(k):
        cols = design * (design[:, i] * scaled)[:, None]
        out[i, :] = cols.std(axis=0, ddof=1) / np.sqrt(n)
    return out


def eval_abar(
    spec: PopulationSpec,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
) -> tuple[float, float]:
    """Marginal acceptance probability E[min(c*a(X,Y), 1)] with its MC-SE."""
    grid = grid or integration_grid(spec)
    per_x = _acceptance(grid, pilot.as_array(), c)[-1]
    value = float(np.sum(grid.masses * per_x))
    if grid.exact:
        return value, 0.0
    se = float(per_x.std(ddof=1) / np.sqrt(per_x.size))
    return value, se


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
    form on the same grid.
    """
    if c < 1.0:
        raise ValueError("c must be at least 1 for the weighted moments")
    grid = grid or integration_grid(spec)
    theta_vec = theta.as_array()
    lam_vec = pilot.as_array()
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

    SigmaFull, se_full = sigma_full(spec, theta_star or theta, grid=grid)

    mc_se = {
        "abar": 0.0 if grid.exact else float(mom["abar"].std(ddof=1) / np.sqrt(len(masses))),
        "G": _se_vec(design, masses, mom["g"], grid.exact),
        "H": _se_mat(design, masses, mom["h"] / abar, grid.exact),
        "J": _se_mat(design, masses, mom["j"] / abar, grid.exact),
        "SigmaFull": se_full,
    }
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
        SigmaFull=SigmaFull,
        mc_se=mc_se,
    )


def sigma_full(spec: PopulationSpec, theta_star: ModelParams, grid: Grid | None = None):
    """Full-sample sandwich covariance of sqrt(n)(MLE - theta_star).

    H_full^-1 J_full H_full^-1 under the original population; collapses to
    the inverse Fisher information under correct specification.
    """
    grid = grid or integration_grid(spec)
    design = grid.design
    p = grid.prob1
    mstar = K.sigmoid(design @ theta_star.as_array())
    j_x = p * (1 - mstar) ** 2 + (1 - p) * mstar**2
    h_full = _weighted_mat(design, grid.masses, mstar * (1 - mstar))
    j_full = _weighted_mat(design, grid.masses, j_x)
    h_inv = np.linalg.inv(h_full)
    value = h_inv @ j_full @ h_inv
    se = _se_mat(design, grid.masses, j_x, grid.exact)
    return value, se


def eval_bar_theta(
    spec: PopulationSpec,
    pilot: ModelParams,
    tol: float = 1e-12,
    grid: Grid | None = None,
) -> OracleFit:
    """Large-sample limit of the estimator with the pilot frozen.

    Solves the tilted population score equation in the shifted
    parameterization (soft labels sigmoid(f(x) - lam'xt) under x-masses
    proportional to the marginal acceptance), then shifts back by the
    pilot.  pilot=0 gives the plain population minimizer.
    """
    grid = grid or integration_grid(spec)
    lam_vec = pilot.as_array()
    design, _, _, _, accept = _acceptance(grid, lam_vec, 1.0)
    masses = grid.masses * accept
    masses = masses / masses.sum()
    f_x = true_log_odds(spec, grid.points)
    target = K.sigmoid(f_x - design @ lam_vec)
    fit = _solve_on_grid(grid, design, masses, target, tol)
    shifted = ModelParams.from_array(fit.params.as_array() + lam_vec)
    return replace(fit, params=shifted)


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
