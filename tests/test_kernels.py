import numpy as np
import pytest

from lccsub import _kernels as K


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    n = 4096
    eta = np.concatenate([rng.standard_normal(n - 6) * 8, [800.0, -800.0, 40.0, -40.0, 0.0, 1e-300]])
    y = (rng.random(n) < 0.4).astype(np.float64)
    w = rng.uniform(0.1, 4.0, n)
    u = rng.random(n)
    return eta, y, w, u


def backends():
    kernels = {"sigmoid": K.sigmoid, "nll_sum": K.nll_sum, "lcc_accept": K.lcc_accept}
    return [(K.active_backend_name, kernels)]


@pytest.mark.parametrize("name,backend", backends())
class TestBackend:
    def test_sigmoid_bounds(self, name, backend, inputs):
        eta = inputs[0]
        mu = backend["sigmoid"](eta)
        assert np.all((mu >= 0) & (mu <= 1))
        assert backend["sigmoid"](np.array([0.0]))[0] == 0.5

    def test_nll_no_cancellation(self, name, backend):
        val = backend["nll_sum"](np.array([40.0]), np.array([1.0]), np.array([1.0]))
        assert val == pytest.approx(np.log1p(np.exp(-40.0)), rel=1e-12)

    def test_nll_soft_targets(self, name, backend, inputs):
        eta, _, w, t = inputs
        direct = np.sum(w * (np.logaddexp(0.0, eta) - t * eta))
        assert backend["nll_sum"](eta, t, w) == pytest.approx(direct, rel=1e-12)
        one = np.array([1.0])
        assert backend["nll_sum"](np.array([800.0]), np.array([0.0]), one) == 800.0
        assert backend["nll_sum"](np.array([-800.0]), one, one) == 800.0

    def test_lcc_accept_semantics(self, name, backend):
        eta = np.array([0.0, -4.0, 4.0])
        y = np.array([1.0, 0.0, 1.0])
        u = np.array([0.49, 0.5, 0.999])
        keep, weight, prob = backend["lcc_accept"](eta, y, 1.0, u, False)
        ptilde = 1 / (1 + np.exp(-eta))
        assert np.allclose(prob, np.abs(y - ptilde))
        assert np.all(weight == 1.0)
        assert list(keep) == [True, False, False]

    def test_lcc_retain_cases(self, name, backend):
        eta = np.array([2.0, 2.0])
        y = np.array([1.0, 0.0])
        keep, weight, prob = backend["lcc_accept"](
            eta, y, 1.0, np.array([0.99, 0.99]), True
        )
        assert keep[0]
        assert prob[0] == 1.0
        ptilde = 1 / (1 + np.exp(-2.0))
        assert weight[0] == pytest.approx(1 - ptilde)


def test_sigmoid_equals_the_masked_formula_bit_for_bit():
    # the masked form it replaces: 1 / (1 + exp(-eta)) on eta >= 0 and
    # exp(eta) / (1 + exp(eta)) elsewhere, each on its own rows
    eta = np.concatenate([
        np.random.default_rng(1).standard_normal(400_000),
        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 40.0, -40.0, np.inf, -np.inf],
    ])
    want = np.empty_like(eta)
    pos = eta >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert K.sigmoid(eta).tobytes() == want.tobytes()
