from dataclasses import replace

import numpy as np
import pytest

from lccsub import presets
from lccsub.populations import (
    Grid,
    TwoClassGaussian,
    _gaussian_features,
    conditional_probability,
)
from lccsub.sampling import CHUNK_ROWS, RateCalibration, accept_rows, acceptance_probabilities

_MC_SEED = 20140523


def _mc_grid(spec: TwoClassGaussian, mc_nodes: int, rng=None) -> Grid:
    """The Monte-Carlo oracle: mc_nodes plain draws of a Gaussian population
    from rng (seeded by default), each with mass 1/mc_nodes.  Its Grid.exact
    is False, so the evaluators report the nodes' spread as standard errors."""
    if rng is None:
        rng = np.random.default_rng(_MC_SEED)
    labels = (rng.random(mc_nodes) < spec.prior1).astype(np.float64)
    pts = _gaussian_features(spec, labels, rng)
    masses = np.full(mc_nodes, 1.0 / mc_nodes)
    return Grid(pts, masses, conditional_probability(spec, pts), False)


@pytest.fixture(scope="session")
def mc_grid():
    return _mc_grid


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
