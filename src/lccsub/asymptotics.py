"""Population-level score, curvature, and variance for the tilted estimators.

All quantities are x-integrals with the label integrated out analytically:
exact cell sums for discrete populations, Gauss-Legendre panels for the
step population, and Monte-Carlo draws with reported standard errors for
Gaussian populations.

Conventions (row x, pilot lam, evaluation point theta, rate multiplier c,
xt = (1, x), m = sigmoid((theta - lam)'xt), a_y the acceptance probability
of label y, z the acceptance indicator, w the fit weight c*a or 1):

  abar       E[z]                      marginal acceptance probability
  G          E[z w s],  s = (y - m) xt expected weighted subsample score
  H          abar^-1 E[z w m (1-m) xt xt']
  J          abar^-1 E[z w^2 s s'] - (G/abar)(G/abar)'
  C          abar^-1 d/dlam G         (central differences, step-halved)

With those scalings, sqrt(n)(est - limit) has covariance
H^-1 (C V C' + abar^-1 J) H^-1 for a pilot with sqrt(n)-covariance V,
and the conditional-bias slope d(limit)/d(lam) is H^-1 C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .glm import FitConfig, ModelParams, newton_logistic
from .populations import (
    Grid,
    OracleFit,
    PopulationSpec,
    TwoClassGaussian,
    _sandwich_se,
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

_MC_NODES_DEFAULT = 4 * 10**6
_C_FD_STEP = 1e-4


@dataclass(frozen=True)
class AsymptoticsReport:
    """Evaluated population quantities at one (theta, lambda, c) point.

    mc_se holds per-entry Monte-Carlo standard errors for abar, G, H, J and
    SigmaFull (zero for exact discrete/quadrature evaluation).
    c_fd_relerr reports the relative change of C under step-halving of the
    finite-difference stencil.
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
    c_fd_relerr: float


def _grid_for(spec, grid, mc_nodes, rng):
    if grid is not None:
        return grid
    if isinstance(spec, TwoClassGaussian):
        return integration_grid(spec, mc_nodes=mc_nodes, rng=rng)
    return integration_grid(spec)


def _node_moments(grid: Grid, theta_vec, lam_vec, c):
    """Per-node integrands, labels integrated out.

    Returns dict of arrays keyed by quantity; each integrates against
    grid.masses.
    """
    design = np.column_stack([np.ones(grid.points.shape[0]), grid.points])
    p = grid.prob1
    ptilde = K.sigmoid(design @ lam_vec)
    m = K.sigmoid(design @ (theta_vec - lam_vec))
    a1 = 1.0 - ptilde
    a0 = ptilde
    # E[zw | x, y] = c*a exactly; E[z w^2 | x, y] = c*a * max(c*a, 1)
    zw1 = c * a1
    zw0 = c * a0
    zww1 = zw1 * np.maximum(zw1, 1.0)
    zww0 = zw0 * np.maximum(zw0, 1.0)
    return {
        "design": design,
        "abar": p * np.minimum(c * a1, 1.0) + (1 - p) * np.minimum(c * a0, 1.0),
        "g": (p * zw1 * (1.0 - m) - (1 - p) * zw0 * m),
        "h": (p * zw1 + (1 - p) * zw0) * m * (1.0 - m),
        "j": p * zww1 * (1.0 - m) ** 2 + (1 - p) * zww0 * m**2,
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
    mc_nodes: int = _MC_NODES_DEFAULT,
    rng=None,
) -> tuple[float, float]:
    """Marginal acceptance probability E[min(c*a(X,Y), 1)] with its MC-SE."""
    grid = _grid_for(spec, grid, mc_nodes, rng)
    design = np.column_stack([np.ones(grid.points.shape[0]), grid.points])
    ptilde = K.sigmoid(design @ pilot.as_array())
    p = grid.prob1
    per_x = p * np.minimum(c * (1 - ptilde), 1.0) + (1 - p) * np.minimum(c * ptilde, 1.0)
    value = float(np.sum(grid.masses * per_x))
    if grid.exact:
        return value, 0.0
    se = float(per_x.std(ddof=1) / np.sqrt(per_x.size))
    return value, se


def _eval_G(grid, theta_vec, lam_vec, c):
    mom = _node_moments(grid, theta_vec, lam_vec, c)
    return _weighted_vec(mom["design"], grid.masses, mom["g"])


def eval_matrices(
    spec: PopulationSpec,
    theta: ModelParams,
    pilot: ModelParams,
    c: float = 1.0,
    grid: Grid | None = None,
    mc_nodes: int = _MC_NODES_DEFAULT,
    rng=None,
    theta_star: ModelParams | None = None,
) -> AsymptoticsReport:
    """Evaluate abar, G, H, J, C, Sigma and SigmaFull at (theta, pilot, c).

    SigmaFull is the no-subsampling sandwich at theta_star (defaults to
    theta).  C comes from central differences of G in the pilot, validated
    by a half-step re-evaluation; the same grid is reused across the
    perturbed pilots so differences stay smooth on Monte-Carlo grids.
    """
    if c < 1.0:
        raise ValueError("c must be at least 1 for the weighted moments")
    grid = _grid_for(spec, grid, mc_nodes, rng)
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

    # C by central differences of G in the pilot, with step-halving check
    def c_matrix(step):
        cols = np.empty((k, k))
        for j in range(k):
            e = np.zeros(k)
            e[j] = step
            g_plus = _eval_G(grid, theta_vec, lam_vec + e, c)
            g_minus = _eval_G(grid, theta_vec, lam_vec - e, c)
            cols[:, j] = (g_plus - g_minus) / (2 * step)
        return cols / abar

    C_full = c_matrix(_C_FD_STEP)
    C_half = c_matrix(_C_FD_STEP / 2)
    denom = max(np.linalg.norm(C_half), 1e-12)
    c_fd_relerr = float(np.linalg.norm(C_full - C_half) / denom)
    C = C_half

    Sigma = np.linalg.solve(H, np.linalg.solve(H, J).T)

    star_vec = (theta_star or theta).as_array()
    SigmaFull, se_full = sigma_full(spec, ModelParams.from_array(star_vec), grid=grid)

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
        c_fd_relerr=c_fd_relerr,
    )


def sigma_full(spec: PopulationSpec, theta_star: ModelParams, grid: Grid | None = None):
    """Full-sample sandwich covariance of sqrt(n)(MLE - theta_star).

    H_full^-1 J_full H_full^-1 under the original population; collapses to
    the inverse Fisher information under correct specification.
    """
    grid = grid or integration_grid(spec)
    design = np.column_stack([np.ones(grid.points.shape[0]), grid.points])
    p = grid.prob1
    mstar = K.sigmoid(design @ theta_star.as_array())
    h_full = _weighted_mat(design, grid.masses, mstar * (1 - mstar))
    j_full = _weighted_mat(
        design, grid.masses, p * (1 - mstar) ** 2 + (1 - p) * mstar**2
    )
    h_inv = np.linalg.inv(h_full)
    value = h_inv @ j_full @ h_inv
    se = _se_mat(design, grid.masses, p * (1 - mstar) ** 2 + (1 - p) * mstar**2, grid.exact)
    return value, se


def eval_bar_theta(
    spec: PopulationSpec,
    pilot: ModelParams,
    tol: float = 1e-12,
    grid: Grid | None = None,
    mc_nodes: int = _MC_NODES_DEFAULT,
    rng=None,
) -> OracleFit:
    """Large-sample limit of the estimator with the pilot frozen.

    Solves the tilted population score equation in the shifted
    parameterization (soft labels sigmoid(f(x) - lam'xt) under x-masses
    proportional to the marginal acceptance), then shifts back by the
    pilot.  pilot=0 gives the plain population minimizer.
    """
    grid = _grid_for(spec, grid, mc_nodes, rng)
    design = np.column_stack([np.ones(grid.points.shape[0]), grid.points])
    lam_vec = pilot.as_array()
    p = grid.prob1
    ptilde = K.sigmoid(design @ lam_vec)
    ahat = p * (1 - ptilde) + (1 - p) * ptilde
    masses = grid.masses * ahat
    masses = masses / masses.sum()
    f_x = true_log_odds(spec, grid.points)
    target = K.sigmoid(f_x - design @ lam_vec)
    fit = newton_logistic(design, masses, target, config=FitConfig(grad_tol=tol))
    gamma = fit.params.as_array()
    if grid.exact:
        se = np.zeros(gamma.size)
    else:
        se = _sandwich_se(design, masses, target, gamma)
    return OracleFit(ModelParams.from_array(gamma + lam_vec), se, fit.grad_norm)


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
