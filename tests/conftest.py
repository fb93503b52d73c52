from dataclasses import replace

import pytest

from lccsub.sampling import CHUNK_ROWS, RateCalibration, accept_rows, acceptance_probabilities


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
