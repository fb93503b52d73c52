from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccsub import presets
from lccsub.glm import ModelParams, ObservationSet, fit_logistic
from lccsub.populations import (
    equal_class_bias,
    population_theta_star,
    sample_population,
    theta_cc_limit,
)
from lccsub.sampling import (
    CHUNK_ROWS,
    CaseControl,
    EmptySubsample,
    LocalCaseControl,
    RateCalibration,
    TooFewCases,
    Uniform,
    WeightedCaseControl,
    accept_finish,
    accept_pass,
    accept_rows,
    accept_scan,
    acceptance_probabilities,
    acceptance_probability,
    class_balanced_scheme,
    class_counts,
    draw_subsample,
    estimate,
    fit_pilot_wcc,
    fit_subsample,
    pilot_rows,
    pilot_scan,
    pilot_subsample,
    thin_uniform,
)


ROW_FIELDS = ("rows", "labels", "features", "weights", "offsets")


def intercept_pilot(prob):
    return ModelParams(np.log(prob / (1.0 - prob)), [0.0])


class TestAcceptanceProbability:
    def test_balanced_pilot(self):
        prob, weight = acceptance_probability(
            LocalCaseControl(intercept_pilot(0.5)), [0.0], 1
        )
        assert (prob, weight) == (0.5, 1.0)

    def test_imbalanced_pilot(self):
        scheme = LocalCaseControl(intercept_pilot(0.01))
        assert acceptance_probability(scheme, [0.0], 0) == pytest.approx((0.01, 1.0))
        assert acceptance_probability(scheme, [0.0], 1) == pytest.approx((0.99, 1.0))

    def test_c_scaling_clips_and_weights(self):
        scheme = LocalCaseControl(intercept_pilot(0.3), c=5.0)
        prob, weight = acceptance_probability(scheme, [0.0], 0)
        assert prob == pytest.approx(1.0)
        assert weight == pytest.approx(1.5)

    def test_retain_cases(self):
        scheme = LocalCaseControl(intercept_pilot(0.3), retain_cases=True)
        prob, weight = acceptance_probability(scheme, [0.0], 1)
        assert prob == 1.0
        assert weight == pytest.approx(0.7)

    def test_cc_and_wcc(self):
        assert acceptance_probability(CaseControl(0.2, 0.8), [0.0], 0) == (0.2, 1.0)
        prob, weight = acceptance_probability(WeightedCaseControl(0.2, 0.8), [0.0], 0)
        assert (prob, weight) == (0.2, 5.0)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            Uniform(rate=0.0)
        with pytest.raises(ValueError):
            CaseControl(a0=0.5, a1=1.5)
        with pytest.raises(ValueError):
            LocalCaseControl(intercept_pilot(0.5), c=-1.0)


@pytest.fixture(scope="module")
def gauss_data():
    spec = presets.correct_gaussian(p=3, mu_scale=0.8)
    rng = np.random.default_rng(42)
    return spec, sample_population(spec, 40000, rng)


class TestDrawSubsample:
    def test_uniform_rate_one_is_identity(self, gauss_data):
        _, data = gauss_data
        sub = draw_subsample(data, Uniform(1.0), np.random.default_rng(0).random(data.n))
        assert sub.realized_size == data.n
        assert np.all(sub.weights == 1.0)
        assert np.all(sub.offsets == 0.0)
        assert np.all(sub.adjustment == 0.0)

    def test_deterministic_given_uniforms(self, gauss_data):
        spec, data = gauss_data
        scheme = LocalCaseControl(spec.linear_params())
        u = np.random.default_rng(1).random(data.n)
        s1 = draw_subsample(data, scheme, u)
        s2 = draw_subsample(data, scheme, u)
        assert np.array_equal(s1.rows, s2.rows)
        assert np.array_equal(s1.weights, s2.weights)

    def test_equal_rate_cc_matches_uniform(self, gauss_data):
        _, data = gauss_data
        u = np.random.default_rng(2).random(data.n)
        cc = draw_subsample(data, CaseControl(0.25, 0.25), u)
        uni = draw_subsample(data, Uniform(0.25), u)
        assert np.array_equal(cc.rows, uni.rows)
        assert cc.offsets[0] == 0.0
        est_cc = fit_subsample(cc).params.as_array()
        est_uni = fit_subsample(uni).params.as_array()
        assert np.allclose(est_cc, est_uni, atol=1e-9)

    def test_length_mismatch(self, gauss_data):
        _, data = gauss_data
        with pytest.raises(ValueError):
            draw_subsample(data, Uniform(0.5), np.zeros(3))

    def test_coupling_disagreement_bound(self, gauss_data):
        # shared uniforms: decisions for two pilots differ with probability
        # exactly |a1(x,y) - a2(x,y)| per row
        spec, data = gauss_data
        theta0 = spec.linear_params()
        lam1 = theta0
        lam2 = ModelParams.from_array(theta0.as_array() + 0.3)
        u = np.random.default_rng(3).random(data.n)
        s1 = draw_subsample(data, LocalCaseControl(lam1), u)
        s2 = draw_subsample(data, LocalCaseControl(lam2), u)
        in1 = np.zeros(data.n, bool)
        in1[s1.rows] = True
        in2 = np.zeros(data.n, bool)
        in2[s2.rows] = True
        disagree = np.mean(in1 != in2)
        a1, _ = acceptance_probabilities(LocalCaseControl(lam1), data.features, data.labels)
        a2, _ = acceptance_probabilities(LocalCaseControl(lam2), data.features, data.labels)
        diff = np.abs(a1 - a2)
        bound = diff.mean()
        mc_se = np.sqrt(np.sum(diff * (1 - diff))) / data.n
        assert disagree <= bound + 3 * mc_se

    def test_realized_size_concentration(self, gauss_data):
        spec, data = gauss_data
        scheme = LocalCaseControl(spec.linear_params())
        hits = 0
        trials = 300
        for seed in range(trials):
            u = np.random.default_rng(100 + seed).random(data.n)
            sub = draw_subsample(data, scheme, u)
            if abs(sub.realized_size - sub.expected_size) <= 4 * np.sqrt(sub.expected_size):
                hits += 1
        assert hits / trials >= 0.99


class TestAdjustmentEquivalence:
    def test_cc_offset_fit_equals_plain_fit_plus_adjustment(self, gauss_data):
        _, data = gauss_data
        scheme = class_balanced_scheme(class_counts(data.labels), 2000, weighted=False)
        sub = draw_subsample(data, scheme, np.random.default_rng(4).random(data.n))
        adjusted = fit_subsample(sub).params.as_array()
        plain_obs = ObservationSet(
            data.features[sub.rows], data.labels[sub.rows], weights=sub.weights
        )
        plain = fit_logistic(plain_obs).params.as_array()
        assert np.allclose(adjusted, plain + sub.adjustment, atol=1e-8)

    def test_lcc_offset_fit_equals_plain_fit_plus_pilot(self, gauss_data):
        spec, data = gauss_data
        pilot = spec.linear_params()
        sub = draw_subsample(
            data, LocalCaseControl(pilot), np.random.default_rng(5).random(data.n)
        )
        adjusted = fit_subsample(sub).params.as_array()
        plain_obs = ObservationSet(
            data.features[sub.rows], data.labels[sub.rows], weights=sub.weights
        )
        plain = fit_logistic(plain_obs).params.as_array()
        assert np.allclose(adjusted, plain + pilot.as_array(), atol=1e-8)


class TestEstimate:
    def test_oatmeal_cc_limit(self):
        oat = presets.oatmeal()
        rng = np.random.default_rng(6)
        reps = []
        for _ in range(30):
            data = sample_population(oat, 100000, rng)
            scheme = class_balanced_scheme(class_counts(data.labels), 4000, weighted=False)
            reps.append(estimate(data, scheme, rng).slopes[0])
        assert np.mean(reps) == pytest.approx(-0.83, abs=0.15)

    def test_lcc_with_true_pilot_unbiased(self):
        spec = presets.correct_gaussian(p=3, mu_scale=0.8)
        theta0 = spec.linear_params().as_array()
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(400):
            data = sample_population(spec, 4000, rng)
            draws.append(
                estimate(data, LocalCaseControl(spec.linear_params()), rng).as_array()
            )
        draws = np.array(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - theta0) < 3 * se)

    def test_constant_pilot_reproduces_cc_limit(self):
        # standard CC is LCC with an intercept-only pilot at the class logit
        oat = presets.oatmeal()
        b = equal_class_bias(oat)
        target = theta_cc_limit(oat, b).params.as_array()
        pilot = ModelParams(-b, np.zeros(2))  # logit(P1) = -b
        rng = np.random.default_rng(8)
        draws = []
        for _ in range(40):
            data = sample_population(oat, 100000, rng)
            draws.append(estimate(data, LocalCaseControl(pilot), rng).as_array())
        draws = np.array(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - target) < 4 * se + 1e-3)

    def test_empty_subsample(self, gauss_data):
        _, data = gauss_data
        sub = draw_subsample(data, Uniform(1e-12), np.random.default_rng(9).random(data.n))
        assert sub.realized_size == 0
        with pytest.raises(EmptySubsample):
            fit_subsample(sub)


class TestCScalingSizeLaw:
    def test_c5_takes_roughly_triple(self):
        spec = presets.simulation2(p=50)
        theta0 = spec.linear_params()
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(10):
            data = sample_population(spec, 200000, rng)
            u = rng.random(data.n)
            s1 = draw_subsample(data, LocalCaseControl(theta0, c=1.0), u)
            s5 = draw_subsample(data, LocalCaseControl(theta0, c=5.0), u)
            ratios.append(s5.realized_size / s1.realized_size)
        assert 2.7 <= np.mean(ratios) <= 3.3


class TestPilot:
    def test_balanced_classes(self):
        y = np.concatenate([np.ones(500), np.zeros(500)])
        assert class_counts(y) == (500, 500)
        scheme = class_balanced_scheme(class_counts(y), 100, weighted=True)
        assert scheme.a0 == pytest.approx(0.1)
        assert scheme.a1 == pytest.approx(0.1)

    def test_all_cases_one_control_per_case(self):
        y = np.concatenate([np.ones(500), np.zeros(49500)])
        scheme = class_balanced_scheme(class_counts(y), 1000, weighted=True)
        assert scheme.a1 == 1.0
        assert scheme.a0 == pytest.approx(500 / 49500)

    def test_single_class_raises(self):
        with pytest.raises(TooFewCases):
            class_balanced_scheme(class_counts(np.ones(10)), 5, weighted=True)

    def test_pilot_error_shrinks_with_target(self):
        spec = presets.correct_gaussian(p=3, mu_scale=0.8)
        theta0 = spec.linear_params().as_array()
        rng = np.random.default_rng(12)
        errs = {200: [], 3200: []}
        for _ in range(25):
            data = sample_population(spec, 20000, rng)
            for target in errs:
                pf = fit_pilot_wcc(data, target, rng)
                errs[target].append(np.linalg.norm(pf.params.as_array() - theta0))
        assert np.median(errs[3200]) < np.median(errs[200])

    def test_reports_consumed_rows(self):
        spec = presets.correct_gaussian(p=3, mu_scale=0.8)
        data = sample_population(spec, 20000, np.random.default_rng(13))
        pf = fit_pilot_wcc(data, 500, np.random.default_rng(14))
        rows = pf.subsample.rows
        assert pf.subsample.realized_size == len(rows) == np.unique(rows).size
        assert np.array_equal(data.features[rows], pf.subsample.features)

    @pytest.mark.parametrize("n_pilot", [500, 501, 4000])
    def test_keeps_half_per_class_weighted_seen_over_kept(self, n_pilot):
        # about 1,000 cases: at 4,000 every case is kept
        spec = presets.correct_gaussian(p=3, mu_scale=0.8)
        data = sample_population(spec, 20000, np.random.default_rng(13))
        seen = class_counts(data.labels)
        sub = fit_pilot_wcc(data, n_pilot, np.random.default_rng(14)).subsample
        kept = [min(n_pilot // 2, n) for n in seen]
        assert class_counts(sub.labels) == tuple(kept)
        assert sub.labels.tolist() == [0.0] * kept[0] + [1.0] * kept[1]
        assert sub.weights.tolist() == [seen[0] / kept[0]] * kept[0] + [seen[1] / kept[1]] * kept[1]
        assert sub.scheme == WeightedCaseControl(a0=kept[0] / seen[0], a1=kept[1] / seen[1])
        assert (sub.rows_read, sub.expected_size, sub.size_variance) == (data.n, sum(kept), 0.0)
        for name in ("labels", "features"):
            assert np.array_equal(getattr(data, name)[sub.rows], getattr(sub, name))
        assert np.all(sub.offsets == 0.0)

    def test_pilot_size_checked_per_class(self):
        data = sample_population(presets.correct_gaussian(p=3), 2000, np.random.default_rng(1))
        with pytest.raises(ValueError, match="too small"):
            fit_pilot_wcc(data, 5, np.random.default_rng(2))  # 2 rows per class, under p + 2

    def test_single_class_pilot_raises(self):
        data = ObservationSet(np.arange(20.0)[:, None], np.zeros(20))
        with pytest.raises(TooFewCases):
            fit_pilot_wcc(data, 10, np.random.default_rng(0))


class TestPilotRows:
    def test_smallest_keys_per_class_in_key_order(self):
        labels = np.array([0, 1, 0, 0, 1, 0, 1, 0], dtype=float)
        keys = np.array([0.9, 0.5, 0.1, 0.7, 0.2, 0.3, 0.8, 0.05])
        assert pilot_rows(labels, keys, 2).tolist() == [7, 2, 4, 1]
        assert pilot_rows(labels, keys, 9).tolist() == [7, 2, 5, 3, 0, 4, 1, 6]
        assert pilot_rows(labels[labels == 0], keys[labels == 0], 2).tolist() == [4, 1]

    def test_rule_over_parts_keeps_the_whole_rule(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(5000) < 0.1).astype(float)
        keys = rng.random(5000)
        want = pilot_rows(labels, keys, 60)
        kept = np.empty(0, dtype=np.int64)
        for part in np.array_split(np.arange(5000), 7):
            rows = np.concatenate([kept, part])
            kept = rows[pilot_rows(labels[rows], keys[rows], 60)]
        assert np.array_equal(kept, want)

    @pytest.mark.parametrize("sizes", [[5000], [1, 999, 4000], [700] * 7 + [100]])
    def test_scan_over_chunks_keeps_the_whole_rule(self, sizes):
        rng = np.random.default_rng(3)
        labels = (rng.random(5000) < 0.1).astype(float)
        keys = rng.random(5000)
        want = pilot_rows(labels, keys, 60)
        bounds = np.cumsum([0, *sizes])
        parts = [(np.arange(a, b), labels[a:b], keys[a:b]) for a, b in zip(bounds, bounds[1:])]
        seen, (rows, kept_labels, kept_keys) = pilot_scan(parts, 60)
        assert seen == class_counts(labels)
        assert np.array_equal(rows, want)
        assert np.array_equal(kept_labels, labels[want]) and np.array_equal(kept_keys, keys[want])
        # the kept rows of two scans, scanned together, keep the same rows
        mid = len(parts) // 2
        halves = [pilot_scan(half, 60)[1] for half in (parts[:mid], parts[mid:]) if half]
        assert np.array_equal(pilot_scan(halves, 60)[1][0], want)

    def test_scan_lets_in_a_key_under_a_full_class_largest(self):
        # both classes are full after the first chunk; 0.3 and 0.4 displace
        # their class's largest kept key, 0.7 and 0.8 do not enter
        labels = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        keys = np.array([0.1, 0.5, 0.2, 0.6, 0.7, 0.3, 0.8, 0.4])
        parts = [(np.arange(a, b), labels[a:b], keys[a:b]) for a, b in ((0, 4), (4, 8))]
        seen, (rows, kept_labels, kept_keys) = pilot_scan(parts, 2)
        assert seen == (4, 4)
        assert rows.tolist() == [0, 5, 2, 7] == pilot_rows(labels, keys, 2).tolist()
        assert kept_keys.tolist() == [0.1, 0.3, 0.2, 0.4]

    def test_record_weighs_seen_over_kept(self):
        # 1 / (2/49) rounds to 24.500000000000004: each weight is seen/kept itself
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        sub = pilot_subsample((49, 93), np.arange(4), labels, np.zeros((4, 1)))
        assert sub.weights.tolist() == [24.5, 24.5, 46.5, 46.5]
        assert sub.scheme == WeightedCaseControl(a0=2 / 49, a1=2 / 93)
        assert (sub.rows_read, sub.realized_size) == (142, 4)

    def test_absent_class_raises_in_the_record(self):
        rows = pilot_rows(np.zeros(6), np.linspace(0, 1, 6), 2)
        assert rows.tolist() == [0, 1]
        with pytest.raises(TooFewCases):
            pilot_subsample((6, 0), rows, np.zeros(2), np.zeros((2, 1)))


class TestThinUniform:
    def test_identity_when_keeping_all(self, gauss_data):
        spec, data = gauss_data
        sub = draw_subsample(
            data, LocalCaseControl(spec.linear_params()), np.random.default_rng(15).random(data.n)
        )
        thinned = thin_uniform(sub, sub.realized_size, np.random.default_rng(16))
        for name in ROW_FIELDS:
            assert np.array_equal(getattr(thinned, name), getattr(sub, name))

    def test_thinning_keeps_each_row_whole(self, gauss_data):
        spec, data = gauss_data
        sub = draw_subsample(
            data, LocalCaseControl(spec.linear_params()), np.random.default_rng(24).random(data.n)
        )
        thinned = thin_uniform(sub, sub.realized_size // 2, np.random.default_rng(25))
        assert thinned.realized_size == sub.realized_size // 2 == thinned.expected_size
        pick = np.searchsorted(sub.rows, thinned.rows)
        for name in ROW_FIELDS:
            assert np.array_equal(getattr(thinned, name), getattr(sub, name)[pick])

    def test_oversized_request_raises(self, gauss_data):
        spec, data = gauss_data
        sub = draw_subsample(
            data, LocalCaseControl(spec.linear_params()), np.random.default_rng(17).random(data.n)
        )
        with pytest.raises(ValueError):
            thin_uniform(sub, sub.realized_size + 1, np.random.default_rng(18))

    def test_thin_to_zero_fails_downstream(self, gauss_data):
        spec, data = gauss_data
        sub = draw_subsample(
            data, LocalCaseControl(spec.linear_params()), np.random.default_rng(22).random(data.n)
        )
        empty = thin_uniform(sub, 0, np.random.default_rng(23))
        assert empty.realized_size == 0
        with pytest.raises(EmptySubsample):
            fit_subsample(empty)

    def test_thinning_preserves_unbiasedness(self):
        spec = presets.correct_gaussian(p=2, mu_scale=0.8)
        theta0 = spec.linear_params().as_array()
        rng = np.random.default_rng(19)
        draws = []
        for _ in range(300):
            data = sample_population(spec, 4000, rng)
            sub = draw_subsample(
                data, LocalCaseControl(spec.linear_params()), rng.random(data.n)
            )
            sub = thin_uniform(sub, sub.realized_size // 2, rng)
            draws.append(fit_subsample(sub).params.as_array())
        draws = np.array(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - theta0) < 3 * se)


class TestCalibration:
    def test_rate_hits_target(self, gauss_data):
        spec, data = gauss_data
        u = np.random.default_rng(20).random(data.n)
        sub = draw_subsample(data, LocalCaseControl(spec.linear_params()), u, target_size=1500)
        assert sub.expected_size == pytest.approx(1500, rel=0.05)

    @pytest.mark.parametrize("target,retain", [(1500, False), (12000, False), (12000, True)])
    def test_rate_hits_target_exactly(self, gauss_data, target, retain):
        spec, data = gauss_data
        scheme = LocalCaseControl(spec.linear_params(), retain_cases=retain)
        u = np.random.default_rng(24).random(data.n)
        c = draw_subsample(data, scheme, u, target_size=target).scheme.c
        prob, _ = acceptance_probabilities(
            LocalCaseControl(scheme.pilot, c=c, retain_cases=retain), data.features, data.labels
        )
        if target > 1500:
            # c > 1 caps some rows at probability 1, so the expected
            # size is no longer linear in c
            assert c > 1 and np.any(prob[data.labels == 0.0] == 1.0)
        assert prob.sum() == pytest.approx(target, rel=1e-9)

    def test_unreachable_target(self, gauss_data):
        spec, data = gauss_data
        u = np.random.default_rng(25).random(data.n)
        with pytest.raises(ValueError, match="not reachable"):
            draw_subsample(data, LocalCaseControl(spec.linear_params()), u, target_size=data.n)
        cases = int(data.labels.sum())
        retain = LocalCaseControl(spec.linear_params(), retain_cases=True)
        with pytest.raises(ValueError, match="not reachable"):
            draw_subsample(data, retain, u, target_size=cases)

    def test_target_needs_local_case_control(self, gauss_data):
        _, data = gauss_data
        with pytest.raises(ValueError, match="local case-control"):
            draw_subsample(data, Uniform(0.5), np.zeros(data.n), target_size=100)

    # c above and below 1: at 2000, 1,687 retained cases leave c < 1, so
    # later chunks are held at a bound below 1 that must still keep cases
    @pytest.mark.parametrize("target,retain", [(8000, False), (8000, True), (2000, True)])
    def test_target_draw_matches_reference_bitwise(self, lcc_reference, target, retain):
        # 4 full chunks and a one-row last chunk
        spec = presets.correct_gaussian(p=10, mu_scale=0.3)
        data = sample_population(spec, 4 * CHUNK_ROWS + 1, np.random.default_rng(26))
        scheme = LocalCaseControl(spec.linear_params(), retain_cases=retain)
        u = np.random.default_rng(27).random(data.n)
        sub = draw_subsample(data, scheme, u, target_size=target)
        want, keep, weights, offsets, calibration = lcc_reference(data, scheme, target, u)
        assert sub.scheme == want and (want.c > 1) == (target == 8000)
        assert np.array_equal(sub.rows, np.flatnonzero(keep))
        assert np.array_equal(sub.weights, weights)
        assert np.array_equal(sub.offsets, offsets)
        assert sub.expected_size == calibration.sizes(want.c)[0]

    def test_draw_without_target_matches_whole_array_pass(self, gauss_data):
        spec, data = gauss_data
        u = np.random.default_rng(29).random(data.n)
        for scheme in (LocalCaseControl(spec.linear_params(), c=2.0), WeightedCaseControl(0.2, 0.9)):
            sub = draw_subsample(data, scheme, u)
            keep, weights, offsets, prob = accept_rows(scheme, data.features, data.labels, u)
            assert sub.scheme == scheme and sub.rows_read == data.n
            assert np.array_equal(sub.rows, np.flatnonzero(keep))
            assert np.array_equal(sub.labels, data.labels[keep])
            assert np.array_equal(sub.features, data.features[keep])
            assert np.array_equal(sub.weights, weights[keep])
            assert np.array_equal(sub.offsets, offsets[keep])
            # the sizes are summed per CHUNK_ROWS chunk and then in chunk order,
            # as `sample` sums a file's chunks
            expected = square = 0.0
            for r in (slice(i, i + CHUNK_ROWS) for i in range(0, data.n, CHUNK_ROWS)):
                expected += float(prob[r].sum())
                square += float(np.square(prob[r]).sum())
            assert sub.expected_size == expected
            assert sub.size_variance == expected - square

    def test_source_weights_and_offsets_fold_into_the_draw(self, gauss_data):
        spec, data = gauss_data
        rng = np.random.default_rng(30)
        source = ObservationSet(
            data.features,
            data.labels,
            weights=rng.uniform(0.5, 2.0, data.n),
            offsets=rng.normal(size=data.n),
        )
        u = rng.random(data.n)
        scheme = LocalCaseControl(spec.linear_params(), c=2.0)
        plain, sub = (draw_subsample(d, scheme, u) for d in (data, source))
        assert np.array_equal(sub.rows, plain.rows)
        assert np.array_equal(sub.weights, source.weights[sub.rows] * plain.weights)
        assert np.array_equal(sub.offsets, source.offsets[sub.rows] + plain.offsets)
        obs = sub.to_observation_set()
        assert np.array_equal(obs.weights, sub.weights)
        assert np.array_equal(obs.offsets, sub.offsets)

    @pytest.mark.parametrize("retain", [False, True])
    def test_bound_falls_to_the_solution(self, gauss_data, retain):
        spec, data = gauss_data
        scheme = LocalCaseControl(spec.linear_params(), retain_cases=retain)
        calibration = RateCalibration(scheme, 12000)
        bounds = []
        for i in range(0, data.n, 1000):
            rows = slice(i, i + 1000)
            a, _ = acceptance_probabilities(scheme, data.features[rows], data.labels[rows])
            calibration.add(a, data.labels[rows])
            bounds.append(calibration.bound())
        c = calibration.solve()
        assert np.all(np.diff(bounds) <= 0) and bounds[-1] >= c
        assert bounds[0] == np.finfo(np.float64).max  # 12000 not reachable on 1000 rows
        prob, _ = acceptance_probabilities(
            LocalCaseControl(scheme.pilot, c=c, retain_cases=retain), data.features, data.labels
        )
        expected, sum_sq = calibration.sizes(c)
        assert expected == pytest.approx(prob.sum(), rel=1e-12)
        assert expected == pytest.approx(12000, rel=1e-12)
        assert sum_sq == pytest.approx(np.square(prob).sum(), rel=1e-12)

    # shard boundaries, in chunks, of 5 chunks: the last holds one row
    SPLITS = ([1], [3], [1, 2], [2, 4], [1, 2, 3, 4])

    @staticmethod
    def five_chunks(retain):
        # at seed 28, summing each shard's chunks first rounds the c = 2
        # expected size apart from the one-pass sum for 4 of the 5 splits
        spec = presets.correct_gaussian(p=10, mu_scale=0.3)
        data = sample_population(spec, 4 * CHUNK_ROWS + 1, np.random.default_rng(28))
        spans = [slice(i, i + CHUNK_ROWS) for i in range(0, data.n, CHUNK_ROWS)]
        return LocalCaseControl(spec.linear_params(), retain_cases=retain), data, spans

    @pytest.mark.parametrize("retain", [False, True])
    def test_shard_calibrations_merge_bitwise(self, retain):
        scheme, data, spans = self.five_chunks(retain)

        def calibration(rows):
            cal = RateCalibration(scheme, 8000)
            for r in rows:
                a, _ = acceptance_probabilities(cal.scheme, data.features[r], data.labels[r])
                cal.add(a, data.labels[r])
            return cal

        whole = calibration(spans)
        c = whole.solve()
        for cuts in self.SPLITS:
            bounds = [0, *cuts, len(spans)]
            parts = [calibration(spans[a:b]) for a, b in zip(bounds, bounds[1:])]
            merged = RateCalibration.merge(parts)
            assert merged.solve() == c
            assert merged.sizes(c) == whole.sizes(c)

    @pytest.mark.parametrize("target,retain", [(None, False), (8000, False), (2000, True)])
    def test_shard_scans_finish_as_one_pass(self, target, retain):
        scheme, data, spans = self.five_chunks(retain)
        if target is None:
            scheme = replace(scheme, c=2.0)
        u = np.random.default_rng(27).random(data.n)
        chunks = [(data.features[r], data.labels[r], u[r]) for r in spans]
        whole = accept_pass(scheme, chunks, target)
        for cuts in self.SPLITS:
            bounds = [0, *cuts, len(spans)]
            scans = [
                accept_scan(scheme, chunks[a:b], target, first=a * CHUNK_ROWS)
                for a, b in zip(bounds, bounds[1:])
            ]
            sub = accept_finish(scans)
            assert (sub.scheme, sub.rows_read) == (whole.scheme, whole.rows_read)
            assert (sub.expected_size, sub.size_variance) == (
                whole.expected_size, whole.size_variance
            )
            for name in ROW_FIELDS:
                assert np.array_equal(getattr(sub, name), getattr(whole, name)), name

    def test_wcc_consistent_under_misspecification(self):
        oat = presets.oatmeal()
        star = population_theta_star(oat).params.as_array()
        rng = np.random.default_rng(21)
        draws = []
        for _ in range(40):
            data = sample_population(oat, 100000, rng)
            scheme = class_balanced_scheme(class_counts(data.labels), 4000, weighted=True)
            draws.append(estimate(data, scheme, rng).as_array())
        draws = np.array(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - star) < 4 * se + 1e-3)


SCHEMES = st.one_of(
    st.floats(0.01, 1.0).map(Uniform),
    st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(lambda a: CaseControl(*a)),
    st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(
        lambda a: WeightedCaseControl(*a)
    ),
    st.builds(
        LocalCaseControl,
        st.tuples(st.floats(-4.0, 1.0), st.floats(-3.0, 3.0)).map(
            lambda t: ModelParams(t[0], [t[1]])
        ),
        c=st.floats(0.2, 20.0),
        retain_cases=st.booleans(),
    ),
)


class TestAcceptRowsProperties:
    @settings(max_examples=60, deadline=None)
    @given(scheme=SCHEMES, seed=st.integers(0, 2**31), split=st.integers(0, 200))
    def test_bounds_and_chunking(self, scheme, seed, split):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((200, 1)) * 3
        y = (rng.random(200) < 0.3).astype(float)
        u = rng.random(200)
        keep, weight, offset, prob = accept_rows(scheme, x, y, u)
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        retained = (y == 1.0) if getattr(scheme, "retain_cases", False) else np.zeros(200, bool)
        assert np.all(weight[~retained] >= 1.0)
        assert np.array_equal(keep, u <= prob)
        parts = [
            accept_rows(scheme, x[rows], y[rows], u[rows])
            for rows in (slice(0, split), slice(split, None))
        ]
        for whole, first, second in zip((keep, weight, offset, prob), *parts):
            assert np.array_equal(whole, np.concatenate([first, second]))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), lcc=st.booleans())
    def test_offset_fit_is_plain_fit_plus_adjustment(self, seed, lcc):
        rng = np.random.default_rng(seed)
        data = sample_population(presets.correct_gaussian(p=2, mu_scale=0.8), 6000, rng)
        if lcc:
            scheme = LocalCaseControl(ModelParams(-2.5, rng.normal(0.5, 0.3, 2)), c=2.0)
        else:
            scheme = CaseControl(a0=0.1, a1=0.9)
        sub = draw_subsample(data, scheme, rng.random(data.n))
        obs = sub.to_observation_set()
        with_offsets = fit_subsample(sub).params.as_array()
        plain = fit_logistic(ObservationSet(obs.features, obs.labels, weights=obs.weights))
        assert np.allclose(with_offsets, plain.params.as_array() + sub.adjustment, atol=1e-8)
