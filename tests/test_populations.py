import numpy as np
import pytest

from lccsub import experiments, presets
from lccsub import populations
from lccsub.asymptotics import eval_abar
from lccsub.experiments import ExperimentConfig
from lccsub.glm import (
    FitConfig,
    ModelParams,
    ObservationSet,
    Separation,
    fit_logistic,
    newton_logistic,
)
from lccsub.populations import (
    DiscretePopulation,
    StepLogit,
    TwoClassGaussian,
    conditional_probability,
    equal_class_bias,
    integration_grid,
    marginal_odds_ratio,
    population_limit,
    population_score,
    population_theta_star,
    precision_recall,
    sample_conditional,
    sample_population,
    theta_cc_limit,
    true_log_odds,
)
from lccsub.sampling import LocalCaseControl, acceptance_probabilities


@pytest.fixture(scope="module")
def oatmeal():
    return presets.oatmeal()


class TestTrueLogOdds:
    def test_oatmeal_cell(self, oatmeal):
        assert true_log_odds(oatmeal, [[1.0, 1.0]])[0] == -1.0

    def test_outside_support(self, oatmeal):
        with pytest.raises(ValueError):
            true_log_odds(oatmeal, [[2.0, 0.0]])

    def test_symmetric_gaussian_is_zero(self):
        spec = TwoClassGaussian(0.5, np.zeros(2), np.zeros(2), np.eye(2), np.eye(2))
        x = np.random.default_rng(0).standard_normal((10, 2))
        assert np.allclose(true_log_odds(spec, x), 0.0)

    def test_example2_matches_density_ratio(self):
        spec = presets.example2()
        x = np.array([[0.0, 0.0], [1.0, -2.0], [2.5, 0.5]])

        def gauss_logpdf(x, mu, sigma):
            d = x - mu
            q = d @ np.linalg.inv(sigma) @ d
            return -0.5 * (q + np.linalg.slogdet(sigma)[1] + 2 * np.log(2 * np.pi))

        for row in x:
            direct = (
                np.log(spec.prior1 / (1 - spec.prior1))
                + gauss_logpdf(row, spec.mu1, spec.sigma1)
                - gauss_logpdf(row, spec.mu0, spec.sigma0)
            )
            assert true_log_odds(spec, [row])[0] == pytest.approx(direct, abs=1e-10)


class TestSampling:
    def test_simulation1_positive_fraction(self):
        spec = presets.simulation1()
        obs = sample_population(spec, 10**6, np.random.default_rng(0))
        assert obs.labels.mean() == pytest.approx(0.01, abs=5e-4)

    def test_oatmeal_cell_frequencies(self, oatmeal):
        n = 10**6
        obs = sample_population(oatmeal, n, np.random.default_rng(1))
        for point, mass in zip(oatmeal.points, oatmeal.masses):
            freq = np.mean(np.all(obs.features == point, axis=1))
            se = np.sqrt(mass * (1 - mass) / n)
            assert abs(freq - mass) < 4 * se

    def test_label_generation_consistency(self):
        # E[Y - p(X)] should vanish for every population kind
        rng = np.random.default_rng(2)
        for spec in (presets.oatmeal(), presets.example2(), presets.steplogit()):
            obs = sample_population(spec, 10**6, rng)
            resid = obs.labels - conditional_probability(spec, obs.features)
            se = np.std(resid) / np.sqrt(obs.n)
            assert abs(resid.mean()) < 4 * se

    def test_gaussian_features_take_their_class_factor(self):
        # unequal covariances, so a row given the other class's factor shows
        spec = presets.simulation1()
        labels = (np.random.default_rng(4).random(50001) < 0.3).astype(np.float64)
        feats = sample_conditional(spec, labels, np.random.default_rng(5))
        z = np.random.default_rng(5).standard_normal((labels.size, spec.p))
        L0, L1 = spec._chol
        ones = labels == 1.0
        want = np.empty_like(z)
        want[ones] = spec.mu1 + z[ones] @ L1.T
        want[~ones] = spec.mu0 + z[~ones] @ L0.T
        assert np.array_equal(feats, want)

    def test_n_zero_rejected(self, oatmeal):
        with pytest.raises(ValueError):
            sample_population(oatmeal, 0, np.random.default_rng(0))


def _lcc_draw(spec, scheme, kept: int, seed: int):
    """_Rows.accept's draw at the scheme, without `full`, on a replication's
    rows sized to keep about `kept` rows."""
    config = ExperimentConfig(
        spec, n_full=int(kept / eval_abar(spec, scheme)), n_pilot=100, n_lcc=100,
        replications=2, methods=("lcc",), master_seed=seed,
    )
    return experiments._replication_rows(config, 1).accept(scheme, np.random.default_rng(seed))


class TestSampleTilted:
    """Draws from the pilot-tilted law: a replication's local case-control
    pass (_lcc_draw).  It accepts a Gaussian row on its label and pilot
    predictor t (sample_predictor), and draws a kept row's features from
    x | (y, t) (sample_conditional); any other row on t = pilot'(1, x) of
    its draw of x | y, which a kept row keeps."""

    def test_balanced_pilot_accepts_half(self):
        spec = presets.steplogit()
        pilot = ModelParams(0.0, [0.0])  # ptilde = 1/2 everywhere
        sub = _lcc_draw(spec, LocalCaseControl(pilot), 20000, 3)
        assert sub.realized_size / sub.rows_read == pytest.approx(0.5, abs=0.02)

    def test_tilted_logit_slopes_vanish_with_offset(self):
        # under the tilted measure, logit P(Y=1|x) = f(x) - pilot'(1,x); with
        # the pilot at theta0 of a correct-spec Gaussian the tilted fit with
        # pilot offsets recovers theta0, i.e. zero coefficients pre-shift
        spec = presets.correct_gaussian(p=3, mu_scale=0.8)
        theta0 = spec.linear_params()
        tilted = _lcc_draw(spec, LocalCaseControl(theta0), 40000, 4).to_observation_set()
        # each kept row's x | (y, t) has the predictor t it was accepted on
        assert np.allclose(tilted.offsets, -theta0.linear_predictor(tilted.features), rtol=0,
                           atol=1e-9)
        res = fit_logistic(tilted)
        delta = res.params.as_array() - theta0.as_array()
        # crude SE: 2/sqrt(n per coordinate curvature ~ n/4)
        assert np.all(np.abs(delta) < 4 * np.sqrt(4.0 / tilted.n) + 0.05)

    def test_simulation2_acceptance_rate(self):
        spec = presets.simulation2(p=50)
        sub = _lcc_draw(spec, LocalCaseControl(spec.linear_params()), 5000, 5)
        assert sub.realized_size / sub.rows_read == pytest.approx(0.005, abs=0.001)

    @pytest.mark.parametrize("name", ["simulation2_20", "sim1_desk", "oatmeal", "steplogit"])
    def test_kept_rows_follow_the_tilted_law(self, name):
        # the acceptance rate and each class's kept feature means and
        # variances are the exact tilted integrals
        spec = (presets.simulation2(p=20) if name == "simulation2_20"
                else presets.simulation1() if name == "sim1_desk" else getattr(presets, name)())
        theta = population_theta_star(spec).params
        scheme = LocalCaseControl(ModelParams.from_array(theta.as_array() + 0.05))
        sub = _lcc_draw(spec, scheme, 50000, 31)
        abar = eval_abar(spec, scheme)
        rate = sub.realized_size / sub.rows_read
        assert abs(rate - abar) < 4 * np.sqrt(abar * (1.0 - abar) / sub.rows_read)
        grid = integration_grid(spec, along=(scheme.pilot.as_array(),))
        for y in (0.0, 1.0):
            # a Gaussian grid's nodes carry their class as prob1, 0 or 1
            prob_y = grid.prob1 if y else 1.0 - grid.prob1
            accept = acceptance_probabilities(scheme, grid.points, np.full(grid.masses.size, y))[0]
            dens = grid.masses * prob_y * accept
            mean = dens @ grid.points / dens.sum()
            var = dens @ (grid.points - mean) ** 2 / dens.sum()
            rows = sub.features[sub.labels == y]
            sq = (rows - rows.mean(axis=0)) ** 2
            n = rows.shape[0]
            assert np.all(np.abs(rows.mean(axis=0) - mean) < 4 * rows.std(axis=0) / np.sqrt(n))
            assert np.all(np.abs(sq.mean(axis=0) - var) < 4 * sq.std(axis=0) / np.sqrt(n))


class TestSampleConditional:
    N = 200_000

    def test_oatmeal_cells_per_class(self, oatmeal):
        p = conditional_probability(oatmeal, oatmeal.points)
        prior1 = float(np.sum(oatmeal.masses * p))
        labels = np.tile([0.0, 1.0], self.N // 2)
        feats = sample_conditional(oatmeal, labels, np.random.default_rng(11))
        for label, cond in ((0.0, oatmeal.masses * (1 - p) / (1 - prior1)),
                            (1.0, oatmeal.masses * p / prior1)):
            rows = feats[labels == label]
            for point, want in zip(oatmeal.points, cond):
                freq = np.mean(np.all(rows == point, axis=1))
                assert abs(freq - want) < 4 * np.sqrt(want * (1 - want) / rows.shape[0])

    def test_steplogit_class_means(self):
        spec = presets.steplogit()
        grid = integration_grid(spec)
        labels = np.tile([0.0, 1.0], self.N // 2)
        x = sample_conditional(spec, labels, np.random.default_rng(12))[:, 0]
        for label, dens in ((0.0, grid.masses * (1 - grid.prob1)), (1.0, grid.masses * grid.prob1)):
            dens = dens / dens.sum()
            mean = float(np.sum(dens * grid.points[:, 0]))
            sd = np.sqrt(np.sum(dens * (grid.points[:, 0] - mean) ** 2))
            rows = x[labels == label]
            assert abs(rows.mean() - mean) < 4 * sd / np.sqrt(rows.size)
            # the grid's panels split at the jump, so its left share is exact
            left = float(np.sum(dens[grid.points[:, 0] <= spec.threshold]))
            share = np.mean(rows <= spec.threshold)
            assert abs(share - left) < 4 * np.sqrt(left * (1 - left) / rows.size)

    def test_gaussian_class_means(self):
        spec = presets.example2()
        labels = np.tile([0.0, 1.0], self.N // 2)
        feats = sample_conditional(spec, labels, np.random.default_rng(13))
        for label, mu, sigma in ((0.0, spec.mu0, spec.sigma0), (1.0, spec.mu1, spec.sigma1)):
            rows = feats[labels == label]
            se = np.sqrt(np.diag(sigma) / rows.shape[0])
            assert np.all(np.abs(rows.mean(axis=0) - mu) < 4 * se)


class TestThetaStar:
    def test_oatmeal_slope(self, oatmeal):
        fit = population_theta_star(oatmeal)
        assert fit.params.slopes[0] == pytest.approx(1.4, abs=0.05)
        assert np.max(np.abs(population_score(oatmeal, fit.params))) < 1e-10

    def test_fixed_point_from_perturbed_start(self, oatmeal):
        fit = population_theta_star(oatmeal)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(3)
        noise /= np.linalg.norm(noise)
        grid = integration_grid(oatmeal)
        design = np.column_stack([np.ones(4), grid.points])
        refit = newton_logistic(
            design,
            grid.masses,
            grid.prob1,
            config=FitConfig(grad_tol=1e-12),
            start=fit.params.as_array() + noise,
        )
        assert np.allclose(refit.params.as_array(), fit.params.as_array(), atol=1e-9)

    def test_steplogit_limit_shape(self):
        spec = presets.steplogit()
        fit = population_theta_star(spec)
        th = fit.params
        # on the logit scale the fit sits far above f for small x,
        # while matching the conditional probability closely for x near 1
        assert th.intercept + 0.1 * th.slopes[0] > true_log_odds(spec, [[0.1]])[0] + 1.0
        p_true = conditional_probability(spec, [[0.95]])[0]
        p_fit = 1 / (1 + np.exp(-(th.intercept + 0.95 * th.slopes[0])))
        assert abs(p_fit - p_true) < 0.01

    def test_correctly_specified_discrete_recovers_truth(self):
        spec = presets.correct_discrete()
        fit = population_theta_star(spec)
        assert np.allclose(fit.params.as_array(), [-2.0, 1.0, 0.5], atol=1e-10)


class TestThetaCCLimit:
    def test_b_zero_equals_theta_star(self, oatmeal):
        star = population_theta_star(oatmeal).params.as_array()
        cc0 = theta_cc_limit(oatmeal, 0.0).params.as_array()
        assert np.allclose(cc0, star, atol=1e-10)

    def test_oatmeal_equal_class_slope(self, oatmeal):
        b = equal_class_bias(oatmeal)
        fit = theta_cc_limit(oatmeal, b)
        assert fit.params.slopes[0] == pytest.approx(-0.83, abs=0.15)

    def test_correct_spec_any_b(self):
        spec = presets.correct_discrete()
        for b in (-1.0, 0.7, 3.0):
            fit = theta_cc_limit(spec, b)
            assert np.allclose(fit.params.as_array(), [-2.0, 1.0, 0.5], atol=1e-9)

    def test_limit_varies_with_b_when_misspecified(self, oatmeal):
        s0 = theta_cc_limit(oatmeal, 0.0).params.slopes[0]
        s38 = theta_cc_limit(oatmeal, 3.8).params.slopes[0]
        assert abs(s0 - s38) > 1.0


@pytest.fixture(scope="module")
def gaussian_mc(misspecified_gaussian, mc_grid):
    """(spec, 1M-node Monte-Carlo grid) for each misspecified Gaussian."""
    _, spec = misspecified_gaussian
    return spec, mc_grid(spec, 10**6, rng=np.random.default_rng(101))


class TestGaussianClosedForm:
    """Gaussian theta* and CC limits against a Monte-Carlo oracle and exact forms."""

    def test_theta_star_within_mc_error(self, gaussian_mc, mc_fit):
        spec, grid = gaussian_mc
        oracle, se = mc_fit(grid, grid.masses, grid.prob1)
        star = population_theta_star(spec)
        z = (star.params.as_array() - oracle) / se
        assert np.all(np.abs(z) < 4.0), z
        assert np.all(star.mc_se == 0.0)

    def test_cc_limit_within_mc_error(self, gaussian_mc, mc_fit):
        spec, grid = gaussian_mc
        b = equal_class_bias(spec)
        # the case-control measure on the grid: x-masses times the marginal
        # acceptance e^b p + (1 - p), labels sigmoid(f + b), offset b
        masses = grid.masses * (np.exp(b) * grid.prob1 + 1.0 - grid.prob1)
        target = 1.0 / (1.0 + np.exp(-(true_log_odds(spec, grid.points) + b)))
        oracle, se = mc_fit(grid, masses / masses.sum(), target, offsets=b)
        cc = theta_cc_limit(spec, b)
        z = (cc.params.as_array() - oracle) / se
        assert np.all(np.abs(z) < 4.0), z

    def test_bar_theta_within_mc_error(self, gaussian_mc, mc_fit, quadrature_points):
        spec, grid = gaussian_mc
        pilot = quadrature_points(spec)[-1][1]
        # the pilot-frozen measure on the grid: x-masses times the marginal
        # acceptance p (1 - ptilde) + (1 - p) ptilde, labels the accepted
        # cases' share of it, offset -pilot'xt
        lam = grid.design @ pilot.as_array()
        ptilde, p = 1.0 / (1.0 + np.exp(-lam)), grid.prob1
        accept = p * (1.0 - ptilde) + (1.0 - p) * ptilde
        oracle, se = mc_fit(grid, grid.masses * accept, p * (1.0 - ptilde) / accept, offsets=-lam)
        bar = population_limit(spec, LocalCaseControl(pilot))
        z = (bar.params.as_array() - oracle) / se
        assert np.all(np.abs(z) < 3.0), z

    def test_doubling_panel_nodes_moves_nothing(
        self, misspecified_gaussian, monkeypatch, quadrature_points
    ):
        _, spec = misspecified_gaussian
        b = equal_class_bias(spec)
        pilot = quadrature_points(spec)[-1][1]

        def limits():
            bar = population_limit(spec, LocalCaseControl(pilot))
            fits = (population_theta_star(spec), theta_cc_limit(spec, b), bar)
            return [fit.params.as_array() for fit in fits]

        base = limits()
        monkeypatch.setattr(populations, "_PANEL_NODES", 2 * populations._PANEL_NODES)
        for coarse, fine in zip(base, limits()):
            assert np.max(np.abs(fine - coarse)) < 1e-10

    @pytest.mark.parametrize("name", ["simulation1", "example2"])
    def test_score_vanishes_at_closed_form_theta_star(self, name):
        # theta* was solved on the grid along each iterate, so this checks
        # that the solver converged there; test_theta_star_within_mc_error
        # is the check against an independent rule
        spec = getattr(presets, name)()
        score = population_score(spec, population_theta_star(spec).params)
        assert np.max(np.abs(score)) < 1e-9, score

    def test_simulation1_exchangeable_slopes_equal(self):
        slopes = population_theta_star(presets.simulation1()).params.slopes
        assert np.ptp(slopes[:4]) < 1e-12

    def test_cc_limit_at_a_bias_leaving_one_class_is_separation(self):
        with pytest.raises(Separation):
            theta_cc_limit(presets.example2(), 50.0)

    def test_correct_spec_risk_recovers_linear_params(self, monkeypatch):
        # every limit is linear_params() here; solve all three on the grid anyway
        spec = presets.correct_gaussian()
        exact = spec.linear_params()
        pilot = ModelParams.from_array(exact.as_array() + 0.3)
        monkeypatch.setattr(TwoClassGaussian, "correctly_specified", False)
        bar = population_limit(spec, LocalCaseControl(pilot))
        for fit in (population_theta_star(spec), theta_cc_limit(spec, 2.0), bar):
            assert np.allclose(fit.params.as_array(), exact.as_array(), rtol=0.0, atol=1e-9)


class TestMarginalOddsRatio:
    def test_oatmeal_exact_value(self, oatmeal):
        # Exact collapsed-table odds ratio for the canonical log-odds cells.
        assert marginal_odds_ratio(oatmeal, 0) == pytest.approx(3.511, abs=0.01)

    def test_independent_coordinate_gives_one(self):
        spec = DiscretePopulation(
            points=[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
            masses=[0.25, 0.25, 0.25, 0.25],
            logodds=[-1.0, 2.0, -1.0, 2.0],  # depends only on coordinate 1
        )
        assert marginal_odds_ratio(spec, 0) == pytest.approx(1.0, abs=1e-12)

    def test_two_cell_symmetric(self):
        spec = DiscretePopulation([[0.0], [1.0]], [0.5, 0.5], [0.0, 0.0])
        assert marginal_odds_ratio(spec, 0) == pytest.approx(1.0)

    def test_non_binary_coordinate_rejected(self):
        spec = DiscretePopulation([[0.0], [2.0]], [0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError):
            marginal_odds_ratio(spec, 0)


class TestPrecisionRecall:
    def test_perfect_separator(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        curve = precision_recall(ModelParams(0.0, [1.0]), ObservationSet(X, y))
        assert np.all(curve.precision[curve.recall <= 1.0] >= curve.recall[-1] * 0)
        assert np.all(curve.precision[: 2] == 1.0)
        assert curve.recall[-1] == 1.0
        assert curve.average_precision() == pytest.approx(1.0)

    def test_constant_score_gives_base_rate(self):
        X = np.zeros((10, 1))
        y = np.array([1.0] * 3 + [0.0] * 7)
        curve = precision_recall(ModelParams(0.0, [0.0]), ObservationSet(X, y))
        assert curve.precision.shape == (1,)
        assert curve.precision[0] == pytest.approx(0.3)
        assert curve.recall[0] == 1.0

    def test_single_class_rejected(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError):
            precision_recall(ModelParams(0.0, [0.0]), ObservationSet(X, [1, 1, 1]))

    def test_monotone_recall(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 2))
        y = (rng.random(200) < 0.3).astype(float)
        curve = precision_recall(ModelParams(0.1, [0.5, -0.2]), ObservationSet(X, y))
        assert np.all(np.diff(curve.recall) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)


class TestStepLogitValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            StepLogit(threshold=1.5)
