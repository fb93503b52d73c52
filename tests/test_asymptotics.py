import numpy as np
import pytest

from lccsub import populations, presets
from lccsub.asymptotics import (
    conditional_bias_slope,
    eval_abar,
    eval_bar_theta,
    eval_matrices,
    lcc_variance,
    sigma_full,
)
from lccsub.glm import ModelParams
from lccsub.populations import (
    Grid,
    integration_grid,
    population_theta_star,
    sample_population,
)
from lccsub.sampling import LocalCaseControl, estimate


@pytest.fixture(scope="module")
def oatmeal():
    return presets.oatmeal()


@pytest.fixture(scope="module")
def oatmeal_star(oatmeal):
    return population_theta_star(oatmeal).params


@pytest.fixture(scope="module")
def oatmeal_report(oatmeal, oatmeal_star):
    return eval_matrices(oatmeal, oatmeal_star, oatmeal_star)


@pytest.fixture(scope="module")
def correct_report():
    spec = presets.correct_discrete()
    theta0 = population_theta_star(spec).params
    return spec, theta0, eval_matrices(spec, theta0, theta0)


class TestAbar:
    def test_zero_pilot_gives_half(self, oatmeal):
        value = eval_abar(oatmeal, ModelParams.zeros(2))
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_oatmeal_exact_cell_sum(self, oatmeal, oatmeal_star):
        value = eval_abar(oatmeal, oatmeal_star)
        p = 1 / (1 + np.exp(-oatmeal.logodds))
        ptilde = 1 / (
            1
            + np.exp(
                -(oatmeal_star.intercept + oatmeal.points @ oatmeal_star.slopes)
            )
        )
        direct = np.sum(oatmeal.masses * (p * (1 - ptilde) + (1 - p) * ptilde))
        assert value == pytest.approx(direct, rel=1e-14)

    def test_simulation2_pilot_rate(self):
        spec = presets.simulation2(p=50)
        value = eval_abar(spec, spec.linear_params())
        assert value == pytest.approx(0.005, abs=0.001)


class TestFixedPointIdentities:
    def test_score_vanishes_at_double_star(self, oatmeal_report):
        assert np.max(np.abs(oatmeal_report.G)) < 1e-8

    def test_half_score_identity(self, oatmeal, oatmeal_star):
        # acceptance-weighted half-label score equals half the population
        # score, exactly, on discrete cells
        design = np.column_stack([np.ones(4), oatmeal.points])
        p = 1 / (1 + np.exp(-oatmeal.logodds))
        pstar = 1 / (1 + np.exp(-design @ oatmeal_star.as_array()))
        lhs = design.T @ (
            oatmeal.masses * (p * (1 - pstar) * 0.5 + (1 - p) * pstar * (-0.5))
        )
        rhs = 0.5 * design.T @ (oatmeal.masses * (p - pstar))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert np.max(np.abs(lhs)) < 1e-10

    def test_bar_theta_fixed_point(self, oatmeal, oatmeal_star):
        fit = eval_bar_theta(oatmeal, oatmeal_star)
        assert np.allclose(fit.params.as_array(), oatmeal_star.as_array(), atol=1e-6)

    def test_bar_theta_at_zero_pilot(self, oatmeal, oatmeal_star):
        fit = eval_bar_theta(oatmeal, ModelParams.zeros(2))
        assert np.allclose(fit.params.as_array(), oatmeal_star.as_array(), atol=1e-10)

    def test_bar_theta_constant_under_correct_spec(self, correct_report):
        spec, theta0, _ = correct_report
        for seed in range(3):
            lam_vec = theta0.as_array() + np.random.default_rng(seed).normal(0, 0.5, 3)
            fit = eval_bar_theta(spec, ModelParams.from_array(lam_vec))
            assert np.allclose(fit.params.as_array(), theta0.as_array(), atol=1e-9)


class TestMatrixIdentities:
    def test_h_identity_correct_spec(self, correct_report):
        _, _, rep = correct_report
        identity = rep.H @ (2 * rep.abar * rep.SigmaFull)
        assert np.max(np.abs(identity - np.eye(3))) < 1e-6

    def test_twice_full_variance_correct_spec(self, correct_report):
        _, _, rep = correct_report
        avar = lcc_variance(rep)
        assert np.max(np.abs(avar - 2 * rep.SigmaFull)) / np.max(
            np.abs(rep.SigmaFull)
        ) < 0.02

    def test_h_j_symmetric_and_spd(self, oatmeal_report):
        rep = oatmeal_report
        assert np.allclose(rep.H, rep.H.T, atol=1e-12)
        assert np.allclose(rep.J, rep.J.T, atol=1e-12)
        np.linalg.cholesky(rep.H)
        assert np.min(np.linalg.eigvalsh(rep.J)) > -1e-12

    def test_j_equals_h_under_correct_spec_any_pilot(self):
        # information equality holds under the tilted measure too
        spec = presets.correct_discrete()
        theta0 = population_theta_star(spec).params
        lam = ModelParams.from_array(theta0.as_array() + [0.3, -0.2, 0.4])
        rep = eval_matrices(spec, theta0, lam)
        assert np.allclose(rep.J, rep.H, rtol=1e-10)


def _fd_c_matrix(grid, theta, pilot, c, abar, step=5e-5):
    """abar^-1 dG/dlam by central differences of G, written out from its
    definition G = E[z w (y - m) xt] with E[z w | x, y] = c*|y - ptilde|."""
    design = np.column_stack([np.ones(grid.masses.size), grid.points])
    p = grid.prob1
    theta = theta.as_array()

    def G(lam):
        ptilde = 1.0 / (1.0 + np.exp(-(design @ lam)))
        m = 1.0 / (1.0 + np.exp(-(design @ (theta - lam))))
        resid = p * c * (1 - ptilde) * (1 - m) - (1 - p) * c * ptilde * m
        return design.T @ (grid.masses * resid)

    lam = pilot.as_array()
    cols = [(G(lam + step * e) - G(lam - step * e)) / (2 * step) for e in np.eye(lam.size)]
    return np.column_stack(cols) / abar


def _c_case(name, mc_grid):
    """(spec, grid, theta, pilot) of one closed-form C check."""
    if name == "example2":
        spec = presets.example2()
        theta = ModelParams.from_array([-6.45663, 1.59292, 1.01273])
        grid = mc_grid(spec, mc_nodes=5 * 10**5, rng=np.random.default_rng(1))
        return spec, grid, theta, theta
    spec = presets.steplogit() if name == "steplogit" else presets.oatmeal()
    star = population_theta_star(spec).params
    pilot = star
    if name == "oatmeal_perturbed":
        pilot = ModelParams.from_array(star.as_array() + [0.3, -0.2, 0.1])
    return spec, integration_grid(spec), star, pilot


class TestClosedFormC:
    @pytest.mark.parametrize(
        "name, c",
        [("oatmeal", 1.0), ("oatmeal_perturbed", 3.0), ("steplogit", 2.0), ("example2", 2.0)],
    )
    def test_matches_finite_differences_of_G(self, name, c, mc_grid):
        spec, grid, theta, pilot = _c_case(name, mc_grid)
        rep = eval_matrices(spec, theta, pilot, c=c, grid=grid)
        fd = _fd_c_matrix(grid, theta, pilot, c, rep.abar)
        assert np.max(np.abs(fd - rep.C)) <= 1e-7 * np.max(np.abs(rep.C))

    def test_vanishes_under_correct_spec(self, correct_report):
        _, _, rep = correct_report
        assert np.linalg.norm(rep.C) < 1e-10


@pytest.fixture(scope="module")
def gauss_reports(mc_grid):
    spec = presets.correct_gaussian()
    theta0 = spec.linear_params()
    grid = mc_grid(spec, mc_nodes=10**6, rng=np.random.default_rng(1))
    return {c: eval_matrices(spec, theta0, theta0, c=c, grid=grid) for c in (1, 2, 5)}


class TestWeightedVarianceLaw:

    def test_trace_ratio_tracks_one_plus_inverse_c(self, gauss_reports):
        for c, rep in gauss_reports.items():
            avar = lcc_variance(rep)
            ratio = np.trace(avar) / np.trace(rep.SigmaFull)
            assert abs(ratio - (1 + 1 / c)) <= 0.15

    def test_c5_eigenvalue_bound(self, gauss_reports):
        rep = gauss_reports[5]
        avar = lcc_variance(rep)
        eigs = np.linalg.eigvals(np.linalg.solve(rep.SigmaFull, avar))
        assert np.max(eigs.real) <= 1.2 + 0.05

    def test_c_below_one_rejected(self):
        spec = presets.correct_discrete()
        theta0 = population_theta_star(spec).params
        with pytest.raises(ValueError):
            eval_matrices(spec, theta0, theta0, c=0.5)


def _check_first_order(spec, star, slope, directions):
    """The pilot-frozen limit at star + eps*d is star + eps*slope@d + o(eps),
    along unit directions d."""
    rng = np.random.default_rng(2)
    star = star.as_array()
    for _ in range(directions):
        d = rng.standard_normal(star.size)
        d /= np.linalg.norm(d)
        resid = {}
        for eps in (1e-2, 1e-3):
            bt = eval_bar_theta(spec, ModelParams.from_array(star + eps * d)).params.as_array()
            resid[eps] = np.linalg.norm(bt - star - eps * (slope @ d))
        # o(eps): dividing eps by 10 shrinks the residual at least 5x
        assert resid[1e-3] <= resid[1e-2] / 5, resid


class TestConditionalBiasSlope:
    def test_zero_under_correct_spec(self, correct_report):
        _, _, rep = correct_report
        assert np.linalg.norm(conditional_bias_slope(rep)) < 1e-8

    def test_directional_derivative_on_oatmeal(self, oatmeal, oatmeal_star, oatmeal_report):
        slope = conditional_bias_slope(oatmeal_report)
        assert np.linalg.norm(slope) > 0.01
        _check_first_order(oatmeal, oatmeal_star, slope, directions=5)

    def test_directional_derivative_on_gaussian(self, misspecified_gaussian):
        # the closed-form C on the projected grid against the exact limit
        _, spec = misspecified_gaussian
        star = population_theta_star(spec).params
        slope = conditional_bias_slope(eval_matrices(spec, star, star))
        assert np.linalg.norm(slope) > 0.01
        _check_first_order(spec, star, slope, directions=3)


class TestVarianceAgainstReplication:
    def test_c_law_empirical_with_true_pilot(self, mc_grid):
        # strong marginal imbalance keeps the acceptance probabilities small
        # everywhere, where the (1 + 1/c) variance law is tight
        spec = presets.correct_gaussian(p=5, prior1=0.01, mu_scale=0.3)
        theta0 = spec.linear_params()
        grid = mc_grid(spec, mc_nodes=10**6, rng=np.random.default_rng(42))
        sf = sigma_full(spec, theta0, grid=grid)
        n, reps = 100000, 400
        rng = np.random.default_rng(314)
        for c in (1.0, 2.0, 5.0):
            draws = np.empty((reps, 6))
            for r in range(reps):
                data = sample_population(spec, n, rng)
                draws[r] = estimate(data, LocalCaseControl(theta0, c=c), rng).as_array()
            ratio = np.trace(np.cov(draws.T, ddof=1) * n) / np.trace(sf)
            assert abs(ratio - (1 + 1 / c)) <= 0.15
            if c == 1.0:
                # replication covariance matches twice the full-sample one
                assert 0.85 <= ratio / 2.0 <= 1.15

    def test_oatmeal_fixed_pilot_covariance(self, oatmeal, oatmeal_star, oatmeal_report):
        n = 2 * 10**5
        reps = 300
        rng = np.random.default_rng(3)
        scheme = LocalCaseControl(oatmeal_star)
        draws = np.empty((reps, 3))
        for r in range(reps):
            data = sample_population(oatmeal, n, rng)
            draws[r] = estimate(data, scheme, rng).as_array()
        emp = np.cov(draws.T, ddof=1) * n
        theory = lcc_variance(oatmeal_report)
        assert np.min(np.linalg.eigvalsh(theory)) > 0
        assert np.trace(emp) / np.trace(theory) == pytest.approx(1.0, abs=0.15)


@pytest.fixture(scope="module")
def gaussian_oracle(misspecified_gaussian, mc_grid):
    """(spec, 1M-node Monte-Carlo grid) for each misspecified Gaussian."""
    _, spec = misspecified_gaussian
    return spec, mc_grid(spec, 10**6, rng=np.random.default_rng(101))


class TestProjectedQuadrature:
    """The Gaussian grid built along the integrand's linear predictors."""

    def test_within_monte_carlo_error(self, gaussian_oracle, mc_se, batch_se, quadrature_points):
        spec, grid = gaussian_oracle
        points = quadrature_points(spec)
        star = points[0][0]
        for theta, pilot, c in points:
            exact = eval_matrices(spec, theta, pilot, c=c)
            oracle = eval_matrices(spec, theta, pilot, c=c, grid=grid)
            se = mc_se(grid, theta, pilot, c)
            for name in ("abar", "G", "H", "J"):
                z = (np.asarray(getattr(exact, name)) - getattr(oracle, name)) / se[name]
                assert np.all(np.abs(z) < 3.0), (name, c, z)
        # SigmaFull, at theta* at every point, is checked once; its error is
        # the oracle's spread over slices of the nodes
        se = batch_se(grid, lambda g: sigma_full(spec, star, grid=g))
        z = (exact.SigmaFull - oracle.SigmaFull) / se
        assert np.all(np.abs(z) < 3.0), z

    def test_doubling_the_nodes_moves_nothing(
        self, misspecified_gaussian, monkeypatch, quadrature_points
    ):
        _, spec = misspecified_gaussian
        for theta, pilot, c in quadrature_points(spec):
            base = eval_matrices(spec, theta, pilot, c=c)
            with monkeypatch.context() as patch:
                patch.setattr(populations, "_PANEL_NODES", 2 * populations._PANEL_NODES)
                finer = eval_matrices(spec, theta, pilot, c=c)
            for name in ("abar", "G", "H", "J", "C", "Sigma", "SigmaFull"):
                moved = np.abs(np.asarray(getattr(finer, name)) - getattr(base, name))
                assert np.all(moved < 1e-10), (name, c, moved.max())

    def test_matches_an_independent_two_dimensional_rule(self):
        # example2 is two-dimensional: a dense tensor rule over x itself,
        # with the true p(x) rather than class labels, gives abar directly.
        # At c = 1 the acceptance has no kink for that rule to miss.
        spec = presets.example2()
        star = population_theta_star(spec).params
        t, w = np.polynomial.legendre.leggauss(30)
        edges = np.linspace(-10.0, 10.0, 41)
        half = 0.5 * np.diff(edges)[:, None]
        t = (half * t + 0.5 * (edges[1:] + edges[:-1])[:, None]).ravel()
        w = (half * w).ravel() * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        z = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        weights = np.outer(w, w).ravel()
        direct = 0.0
        for prior, mu, chol in ((0.99, spec.mu0, spec._chol[0]), (0.01, spec.mu1, spec._chol[1])):
            x = mu + z @ chol.T
            grid = Grid(x, prior * weights, populations.conditional_probability(spec, x))
            direct += eval_abar(spec, star, grid=grid)
        assert eval_abar(spec, star) == pytest.approx(direct, rel=1e-12)

    def test_gaussian_grid_needs_predictors(self):
        # a rule along no predictor is exact only for integrands quadratic in x
        with pytest.raises(ValueError, match="linear predictors"):
            integration_grid(presets.example2())
