import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccsub.glm import (
    FitConfig,
    GlmError,
    ModelParams,
    ObservationSet,
    Separation,
    fit_logistic,
    hessian,
    neg_log_likelihood,
    newton_logistic,
    score,
)


def random_problem(rng, n=20, p=3, weighted=True, offsets=True):
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.uniform(0.2, 3.0, n) if weighted else None
    o = rng.uniform(-2, 2, n) if offsets else None
    return ObservationSet(X, y, weights=w, offsets=o)


def naive_nll(theta, data):
    """Independent direct-summation oracle (plain double loop)."""
    total = 0.0
    for i in range(data.n):
        eta = theta.intercept + data.offsets[i]
        for j in range(data.p):
            eta += theta.slopes[j] * data.features[i, j]
        total += data.weights[i] * (-data.labels[i] * eta + math.log(1.0 + math.exp(eta)))
    return total


class TestNegLogLikelihood:
    def test_single_observation_log2(self):
        data = ObservationSet(np.zeros((1, 0)), [1.0])
        assert neg_log_likelihood(ModelParams(0.0, []), data) == pytest.approx(
            math.log(2.0), rel=1e-15
        )

    def test_large_offset_no_overflow(self):
        data = ObservationSet(np.zeros((1, 0)), [1.0], offsets=[40.0])
        val = neg_log_likelihood(ModelParams(0.0, []), data)
        assert val == pytest.approx(math.log1p(math.exp(-40.0)), rel=1e-12)
        assert 0 < val < 1e-17

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            data = random_problem(rng)
            theta = ModelParams(rng.standard_normal(), rng.standard_normal(3))
            assert neg_log_likelihood(theta, data) == pytest.approx(
                naive_nll(theta, data), rel=1e-12
            )

    def test_dimension_mismatch(self):
        data = ObservationSet(np.zeros((2, 2)), [0, 1])
        with pytest.raises(ValueError):
            neg_log_likelihood(ModelParams(0.0, [1.0]), data)


class TestScoreHessian:
    def test_score_at_zero(self):
        rng = np.random.default_rng(7)
        data = random_problem(rng, offsets=False)
        s = score(ModelParams.zeros(3), data)
        expected = np.sum(data.weights * (data.labels - 0.5))
        assert s[0] == pytest.approx(expected, rel=1e-12)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        data = random_problem(rng)
        h = 1e-5
        for _ in range(10):
            vec = rng.standard_normal(4)
            s = score(ModelParams.from_array(vec), data)
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (
                    neg_log_likelihood(ModelParams.from_array(vec + e), data)
                    - neg_log_likelihood(ModelParams.from_array(vec - e), data)
                ) / (2 * h)
            # score = -grad of the negative log-likelihood
            assert np.linalg.norm(s + fd) / np.linalg.norm(s) < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        data = random_problem(rng)
        h = 1e-5
        vec = rng.standard_normal(4)
        H = hessian(ModelParams.from_array(vec), data)
        fd = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = -(
                score(ModelParams.from_array(vec + e), data)
                - score(ModelParams.from_array(vec - e), data)
            ) / (2 * h)
        assert np.linalg.norm(H - fd) / np.linalg.norm(H) < 1e-5

    def test_hessian_symmetric_psd(self):
        rng = np.random.default_rng(11)
        data = random_problem(rng)
        H = hessian(ModelParams.from_array(rng.standard_normal(4)), data)
        assert np.allclose(H, H.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(H)) > -1e-12


class TestFit:
    def test_intercept_only(self):
        data = ObservationSet(np.zeros((4, 0)), [1, 1, 1, 0])
        res = fit_logistic(data)
        assert res.params.intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert res.grad_norm < 1e-10

    def test_oatmeal_population_cells(self):
        # Two binary covariates; 10% family history, 50% exposure, cell
        # log-odds (-5, -4, -10, -1).  Exact cell-probability weights give
        # the large-sample additive fit; exposure slope is about 1.4.
        cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        mass = np.array([0.45, 0.05, 0.45, 0.05])
        p = 1.0 / (1.0 + np.exp(-np.array([-5.0, -4.0, -10.0, -1.0])))
        X = np.vstack([cells, cells])
        y = np.concatenate([np.ones(4), np.zeros(4)])
        w = np.concatenate([mass * p, mass * (1 - p)])
        res = fit_logistic(ObservationSet(X, y, weights=w))
        assert res.params.slopes[0] == pytest.approx(1.4, abs=0.05)

    def test_perfect_separation_raises(self):
        data = ObservationSet([[-1.0], [1.0]], [0, 1])
        with pytest.raises(Separation):
            fit_logistic(data)

    def test_divergence_norm_configurable(self):
        data = ObservationSet([[-1.0], [1.0]], [0, 1])
        with pytest.raises(Separation):
            fit_logistic(data, FitConfig(divergence_norm=10.0))

    def test_collinear_features_fit_via_ridge_retry(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(200)
        X = np.column_stack([x, x])  # exactly singular Hessian
        y = (rng.random(200) < 1 / (1 + np.exp(-x))).astype(float)
        res = fit_logistic(ObservationSet(X, y))
        assert res.grad_norm < 1e-10

    def test_stall_raises_glm_error(self):
        # from a saturated start the full Newton step overshoots by ~1e4;
        # with no halvings allowed, no step descends
        data = random_problem(np.random.default_rng(3), n=40, weighted=False, offsets=False)
        with pytest.raises(GlmError, match="stalled"):
            fit_logistic(
                data, FitConfig(step_halvings=0), start=ModelParams(10.0, np.zeros(3))
            )

    def test_descent_across_iterations(self):
        rng = np.random.default_rng(3)
        data = random_problem(rng, n=200)
        res = fit_logistic(data)
        # refitting from the solution is a no-op
        res2 = fit_logistic(data, start=res.params)
        assert res2.iterations == 1
        assert np.allclose(res2.params.as_array(), res.params.as_array())


class TestInvariants:
    def test_offset_shift_equivalence(self):
        # fit with offsets -lambda'(1,x) equals the plain fit plus lambda
        rng = np.random.default_rng(21)
        data = random_problem(rng, n=300, offsets=False)
        lam = ModelParams(0.7, rng.standard_normal(3))
        shifted = ObservationSet(
            data.features,
            data.labels,
            weights=data.weights,
            offsets=-lam.linear_predictor(data.features),
        )
        plain = fit_logistic(data).params.as_array()
        with_offsets = fit_logistic(shifted).params.as_array()
        assert np.allclose(with_offsets, plain + lam.as_array(), atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.floats(min_value=1e-3, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_weight_scaling_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        data = random_problem(rng, n=60)
        scaled = ObservationSet(
            data.features, data.labels, weights=k * data.weights, offsets=data.offsets
        )
        t1 = fit_logistic(data).params.as_array()
        t2 = fit_logistic(scaled).params.as_array()
        assert np.allclose(t1, t2, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.floats(min_value=1e-3, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_soft_target_weight_scaling_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        design = np.column_stack([np.ones(80), rng.standard_normal((80, 2))])
        targets = rng.random(80)
        weights = rng.uniform(0.2, 3.0, 80)
        offsets = rng.uniform(-1, 1, 80)
        t1 = newton_logistic(design, weights, targets, offsets).params.as_array()
        t2 = newton_logistic(design, k * weights, targets, offsets).params.as_array()
        assert np.allclose(t1, t2, atol=1e-9)

    def test_root_n_consistency_rate(self):
        # median error over 50 seeds should roughly halve per 4x sample size
        theta0 = np.array([-1.0, 0.8, -0.5])
        sizes = [1000, 4000, 16000]
        errs = {n: [] for n in sizes}
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            for n in sizes:
                X = rng.standard_normal((n, 2))
                eta = theta0[0] + X @ theta0[1:]
                y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
                est = fit_logistic(ObservationSet(X, y)).params.as_array()
                errs[n].append(np.linalg.norm(est - theta0))
        med = {n: np.median(errs[n]) for n in sizes}
        for n_small, n_big in [(1000, 4000), (4000, 16000)]:
            ratio = med[n_big] / med[n_small]
            assert 0.5 / 1.6 < ratio < 0.5 * 1.6
