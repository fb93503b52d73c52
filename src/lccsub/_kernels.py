"""Hot numeric kernels: the sigmoid, the logistic loss and the accept-reject pass.

All evaluations are overflow-safe for arbitrarily large linear predictors.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "nll_sum",
    "lcc_accept",
    "active_backend_name",
]

active_backend_name = "numpy"


def sigmoid(eta):
    """1 / (1 + exp(-eta)), from e = exp(-|eta|), which never overflows:
    1 / (1 + e) where eta >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(eta))
    denom = 1.0 + e
    return np.where(eta >= 0, 1.0 / denom, e / denom)


def nll_sum(eta, y, w):
    """Sum of w * (log(1+exp(eta)) - y*eta) for targets y in [0, 1].

    Each row is log1p(exp(-|eta|)) + (max(eta, 0) - y*eta).  For y in
    {0,1} the bracket is exact (0 or |eta|), so the row loss equals
    log1pexp((1-2y)*eta) without the cancellation of log1pexp(eta) - eta
    for large positive eta.
    """
    loss = np.log1p(np.exp(-np.abs(eta)))
    shift = np.maximum(eta, 0.0)
    shift -= y * eta
    loss += shift
    return float(np.sum(w * loss))


def lcc_accept(eta_pilot, y, c, u, retain_cases):
    """One accept-reject pass given pilot linear predictors.

    Returns (keep, weight, prob) where prob = c*|y - ptilde| clipped at 1,
    weight = c*|y - ptilde| floored at 1, and keep = (u <= prob).  With
    retain_cases, label-1 rows are kept surely with weight c*|y - ptilde| so
    the expected weighted contribution stays c*|y - ptilde| either way.
    """
    ptilde = sigmoid(eta_pilot)
    a = np.abs(y - ptilde)
    ca = c * a
    prob = np.minimum(ca, 1.0)
    weight = np.maximum(ca, 1.0)
    if retain_cases:
        case = y == 1.0
        prob[case] = 1.0
        weight[case] = ca[case]
    keep = u <= prob
    return keep, weight, prob
