from dataclasses import replace

import numpy as np
import pytest

from lccsub import presets
from lccsub._kernels import sigmoid
from lccsub.asymptotics import _node_moments
from lccsub.glm import FitConfig, ModelParams, newton_logistic
from lccsub.populations import (
    Grid,
    TwoClassGaussian,
    _gaussian_features,
    conditional_probability,
    population_theta_star,
    scheme_risk,
)
from lccsub.sampling import CHUNK_ROWS, RateCalibration, accept_rows, acceptance_probabilities

_MC_SEED = 20140523


def _mc_grid(spec: TwoClassGaussian, mc_nodes: int, rng=None) -> Grid:
    """The Monte-Carlo oracle: mc_nodes plain draws of a Gaussian population
    from rng (seeded by default), each with mass 1/mc_nodes.  The library
    integrates on it as on any grid; the oracle's standard errors are
    _mc_fit's, _mc_se's and _batch_se's."""
    if rng is None:
        rng = np.random.default_rng(_MC_SEED)
    labels = (rng.random(mc_nodes) < spec.prior1).astype(np.float64)
    pts = _gaussian_features(spec, labels, rng)
    masses = np.full(mc_nodes, 1.0 / mc_nodes)
    return Grid(pts, masses, conditional_probability(spec, pts))


@pytest.fixture(scope="session")
def mc_grid():
    return _mc_grid


def _mc_fit(grid: Grid, masses, target, offsets=0.0):
    """(coefficients, standard errors) of the population risk
    sum masses*[log(1+e^eta) - target*eta], eta = design @ theta + offsets,
    minimized on a Monte-Carlo grid; the SE is the sandwich treating the
    nodes as i.i.d."""
    design = grid.design
    fit = newton_logistic(design, masses, target, offsets, FitConfig(grad_tol=1e-12))
    mu = sigmoid(design @ fit.params.as_array() + offsets)
    g = design * (masses * (target - mu))[:, None]
    A = (design * (masses * mu * (1.0 - mu))[:, None]).T @ design
    Ainv = np.linalg.inv(A)
    return fit.params.as_array(), np.sqrt(np.diag(Ainv @ (g.T @ g) @ Ainv))


@pytest.fixture(scope="session")
def mc_fit():
    return _mc_fit


def _se_vec(design, masses, scalars):
    terms = design * (scalars * masses)[:, None] * design.shape[0]
    n = design.shape[0]
    return terms.std(axis=0, ddof=1) / np.sqrt(n)


def _se_mat(design, masses, scalars):
    n = design.shape[0]
    k = design.shape[1]
    out = np.empty((k, k))
    scaled = scalars * masses * n
    for i in range(k):
        cols = design * (design[:, i] * scaled)[:, None]
        out[i, :] = cols.std(axis=0, ddof=1) / np.sqrt(n)
    return out


def _mc_se(grid: Grid, theta, scheme) -> dict:
    """Per-entry standard errors of eval_matrices' abar, G, H and J on a
    Monte-Carlo grid, from the spread of the per-node terms.  G's and H's
    are the scheme's per-node score and curvature.  H's and J's divide
    each node's term by the estimated abar, leaving out abar's own error
    and its correlation with the numerator, so they can overstate the SE
    of the ratio."""
    mom = _node_moments(grid, theta.as_array(), scheme)
    design, weights, targets, offsets = scheme_risk(grid, scheme)[0]
    m = sigmoid(design @ theta.as_array() + offsets)
    masses = grid.masses
    abar = float(np.sum(masses * mom["abar"]))
    return {
        "abar": float(mom["abar"].std(ddof=1) / np.sqrt(len(masses))),
        "G": _se_vec(design, masses, weights * (targets - m) / masses),
        "H": _se_mat(design, masses, weights * m * (1.0 - m) / masses / abar),
        "J": _se_mat(design, masses, mom["j"] / abar),
    }


@pytest.fixture(scope="session")
def mc_se():
    return _mc_se


def _batch_se(grid: Grid, statistic, batches=20):
    """Standard error of statistic(grid) from its spread over equal slices of
    a Monte-Carlo grid's nodes."""
    n = grid.masses.size // batches
    values = [
        statistic(Grid(grid.points[s], grid.masses[s] * batches, grid.prob1[s]))
        for s in (slice(i * n, (i + 1) * n) for i in range(batches))
    ]
    return np.std(values, axis=0, ddof=1) / np.sqrt(batches)


@pytest.fixture(scope="session")
def batch_se():
    return _batch_se


def _unequal_covariance_spec(p=12):
    """A misspecified Gaussian population of dimension p >= 10."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((p, p))
    return TwoClassGaussian(
        prior1=0.05,
        mu0=np.zeros(p),
        mu1=rng.normal(0.0, 0.5, p),
        sigma0=np.eye(p),
        sigma1=a @ a.T / p + 0.5 * np.eye(p),
    )


_GAUSSIAN_SPECS = {
    "simulation1": presets.simulation1,
    "example2": presets.example2,
    "unequal12": _unequal_covariance_spec,
}


@pytest.fixture(scope="module", params=sorted(_GAUSSIAN_SPECS))
def misspecified_gaussian(request):
    """(name, spec) of each misspecified Gaussian population."""
    return request.param, _GAUSSIAN_SPECS[request.param]()


def _quadrature_points(spec):
    """(theta, pilot, c) of the quadrature checks: (theta*, theta*) at c = 1,
    2 and 5 (one predictor), and theta* under a pilot moved off it (two)."""
    star = population_theta_star(spec).params
    k = spec.p + 1
    step = 0.3 * np.random.default_rng(5).standard_normal(k) / np.sqrt(k)
    moved = ModelParams.from_array(star.as_array() + step)
    return [(star, star, c) for c in (1.0, 2.0, 5.0)] + [(star, moved, 2.0)]


@pytest.fixture(scope="session")
def quadrature_points():
    return _quadrature_points


def _lcc_reference(data, scheme, target, uniforms):
    """A calibrated local case-control draw made apart from accept_pass.

    RateCalibration takes every row, CHUNK_ROWS at a time as the pass adds
    them, and c is solved; then one accept_rows call covers the whole
    array.  Returns (scheme at that c, keep mask, kept weights, kept
    offsets, calibration).
    """
    calibration = RateCalibration(scheme, target)
    for i in range(0, data.n, CHUNK_ROWS):
        rows = slice(i, i + CHUNK_ROWS)
        a, _ = acceptance_probabilities(calibration.scheme, data.features[rows], data.labels[rows])
        calibration.add(a, data.labels[rows])
    scheme = replace(scheme, c=calibration.solve())
    keep, weights, offsets, _ = accept_rows(scheme, data.features, data.labels, uniforms)
    return scheme, keep, weights[keep], offsets[keep], calibration


@pytest.fixture
def lcc_reference():
    return _lcc_reference
