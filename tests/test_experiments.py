import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lccsub import experiments, presets
from lccsub._workers import fork_map
from lccsub.experiments import (
    ExperimentConfig,
    TooManyFailures,
    bootstrap_se,
    convergence_study,
    derived_rng,
    run_experiment,
    summarize,
)
from lccsub.glm import ModelParams, ObservationSet, Singular
from lccsub.populations import population_theta_star
from lccsub.sampling import (
    CHUNK_ROWS,
    CaseControl,
    LocalCaseControl,
    Uniform,
    class_balanced_scheme,
    class_counts,
    draw_subsample,
    fit_pilot_wcc,
)


class TestSummarize:
    def test_exact_draws_give_zero(self):
        truth = ModelParams(0.5, [1.0, -2.0])
        draws = np.tile(truth.as_array(), (5, 1))
        assert summarize(draws, truth) == (0.0, 0.0)

    def test_two_symmetric_draws(self):
        truth = ModelParams(0.0, [1.0, 1.0])
        draws = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
        bias_sq, var = summarize(draws, truth)
        assert bias_sq == pytest.approx(0.0)
        assert var == pytest.approx(2.0)

    def test_gaussian_draws_match_closed_form(self):
        rng = np.random.default_rng(0)
        truth = ModelParams(0.0, np.zeros(3))
        delta = np.array([0.3, -0.1, 0.2])
        sigma = 0.5
        draws = np.hstack(
            [
                np.zeros((2000, 1)),
                truth.slopes + delta + sigma * rng.standard_normal((2000, 3)),
            ]
        )
        bias_sq, var = summarize(draws, truth)
        assert bias_sq == pytest.approx(np.sum(delta**2), abs=0.02)
        assert var == pytest.approx(3 * sigma**2, rel=0.1)

    def test_requires_two_draws(self):
        with pytest.raises(ValueError):
            summarize(np.zeros((1, 3)), ModelParams(0.0, [0.0, 0.0]))


class TestBootstrapSE:
    def test_constant_draws(self):
        truth = ModelParams(0.0, [1.0])
        draws = np.tile([0.0, 1.0], (50, 1))
        assert bootstrap_se(draws, truth, 200) == (0.0, 0.0)

    def test_se_shrinks_with_replications(self):
        truth = ModelParams(0.0, [0.0, 0.0])
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(20):
            small = np.hstack([np.zeros((100, 1)), rng.standard_normal((100, 2))])
            big = np.hstack([np.zeros((400, 1)), rng.standard_normal((400, 2))])
            _, v_small = bootstrap_se(small, truth, 200, rng)
            _, v_big = bootstrap_se(big, truth, 200, rng)
            ratios.append(v_big / v_small)
        assert 0.4 <= np.median(ratios) <= 0.6

    def test_matches_independent_resampler(self):
        # second, independently coded bootstrap over the same resample stream
        truth = ModelParams(0.0, [0.3, -0.2])
        rng = np.random.default_rng(2)
        draws = np.hstack(
            [np.zeros((200, 1)), 0.4 * rng.standard_normal((200, 2)) + [0.35, -0.1]]
        )
        b1, v1 = bootstrap_se(draws, truth, 500, np.random.default_rng(77))
        rng2 = np.random.default_rng(77)
        stats = []
        for _ in range(500):
            idx = rng2.integers(0, 200, size=200)
            s = draws[idx][:, 1:]
            stats.append(
                (
                    np.sum((s.mean(0) - truth.slopes) ** 2),
                    np.sum(s.var(0, ddof=1)),
                )
            )
        stats = np.array(stats)
        assert b1 == pytest.approx(stats[:, 0].std(ddof=1), rel=0.05)
        assert v1 == pytest.approx(stats[:, 1].std(ddof=1), rel=0.05)

    @pytest.mark.parametrize("n", [29, 30, 400])
    def test_equals_the_loop_form(self, n):
        # one summarize() per resample, on the same resample stream
        truth = ModelParams(0.1, [0.3, -0.2, 0.5, 1.0])
        draws = np.random.default_rng(n).standard_normal((n, 5)) + truth.as_array()
        rng = np.random.default_rng(8)
        stats = np.array(
            [summarize(draws[rng.integers(0, n, size=n)], truth) for _ in range(400)]
        )
        want = (float(stats[:, 0].std(ddof=1)), float(stats[:, 1].std(ddof=1)))
        assert bootstrap_se(draws, truth, 400, np.random.default_rng(8)) == want

    def test_requires_hundred_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_se(np.zeros((10, 2)), ModelParams(0.0, [0.0]), 50)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        spec=presets.correct_gaussian(p=3, mu_scale=0.8),
        n_full=20000,
        n_pilot=400,
        n_lcc=400,
        replications=12,
        methods=("lcc", "wcc", "cc", "uniform", "full"),
        bootstrap_B=150,
        master_seed=99,
    )


@pytest.fixture(scope="module")
def small_truth(small_config):
    return population_theta_star(small_config.spec)


class TestRunExperiment:
    def test_deterministic_across_worker_counts(self, small_config, small_truth):
        r1 = run_experiment(small_config, threads=1, theta_star=small_truth)
        r2 = run_experiment(small_config, threads=3, theta_star=small_truth)
        for m in small_config.methods:
            assert np.array_equal(r1.methods[m].draws, r2.methods[m].draws)
            assert r1.methods[m].bias_sq_se == r2.methods[m].bias_sq_se

    def test_replications_run_on_one_blas_thread(
        self, small_config, small_truth, monkeypatch, tmp_path
    ):
        blas = experiments._openblas()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, set_ = blas
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        replicate = experiments._replicate_explicit

        def counted(config, rep):
            # a file per replication: a forked worker's memory does not reach this test
            (tmp_path / f"{rep:03d}").write_text(str(get()))
            return replicate(config, rep)

        monkeypatch.setattr(experiments, "_replicate_explicit", counted)
        before = get()
        set_(2)
        try:
            for threads in (1, 2):
                report = run_experiment(small_config, threads=threads, theta_star=small_truth)
                assert get() == 2, threads
                assert report.blas_threads == (1, 2)
                assert report.workers == threads
                seen = [int(path.read_text()) for path in sorted(tmp_path.iterdir())]
                assert seen == [1] * small_config.replications, threads
                for path in tmp_path.iterdir():
                    path.unlink()
        finally:
            set_(before)

    def test_missing_blas_library_changes_nothing(self, small_config, small_truth, monkeypatch):
        pinned = run_experiment(small_config, threads=2, theta_star=small_truth)

        def no_library(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(experiments.ctypes, "CDLL", no_library)
        assert experiments._openblas() is None
        report = run_experiment(small_config, threads=2, theta_star=small_truth)
        assert report.blas_threads is None
        for m in small_config.methods:
            assert np.array_equal(report.methods[m].draws, pinned.methods[m].draws)
            assert report.methods[m].var_se == pinned.methods[m].var_se

    @staticmethod
    def record_exits(monkeypatch):
        """Exit codes of the reaped workers, each of which lingers on its way
        to os._exit after its result was sent."""
        real_exit, real_waitpid = os._exit, os.waitpid
        monkeypatch.setattr(os, "_exit", lambda code: (time.sleep(0.2), real_exit(code)))
        exits = []

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            exits.append(os.waitstatus_to_exitcode(reaped[1]))
            return reaped

        monkeypatch.setattr(os, "waitpid", waitpid)
        return exits

    def test_worker_error_reaches_the_caller(self, small_config, small_truth, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        replicate = experiments._replicate_explicit

        def failing(config, rep):
            if rep == 8:  # in the forked worker's block, 6..11
                raise KeyError(f"replication {rep}")
            return replicate(config, rep)

        monkeypatch.setattr(experiments, "_replicate_explicit", failing)
        exits = self.record_exits(monkeypatch)
        with pytest.raises(KeyError, match="replication 8"):
            run_experiment(small_config, threads=2, theta_star=small_truth)
        assert exits == [0]  # exited by itself, and was reaped

    def test_failures_recorded_alike_at_every_worker_count(
        self, small_config, small_truth, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        replicate = experiments._replicate_explicit

        def singular(config, rep):
            if rep in (2, 9):  # one in each block
                raise Singular(f"replication {rep}")
            return replicate(config, rep)

        monkeypatch.setattr(experiments, "_replicate_explicit", singular)
        exits = self.record_exits(monkeypatch)
        reports = [
            run_experiment(small_config, threads=threads, theta_star=small_truth)
            for threads in (1, 2)
        ]
        want = ((2, "Singular", "replication 2"), (9, "Singular", "replication 9"))
        assert reports[0].failures == reports[1].failures == want
        for m in small_config.methods:
            assert np.array_equal(reports[0].methods[m].draws, reports[1].methods[m].draws)
        assert exits == [0]

    def test_unpicklable_worker_error_reaches_the_caller(self, monkeypatch):
        # TooManyFailures needs its failures to be built again: a pickle
        # round trip, which passes args alone, cannot
        def task(item):
            if item == 1:
                raise TooManyFailures("two failed", ((1, "Singular", "x"), (3, "Singular", "y")))
            return item

        exits = self.record_exits(monkeypatch)
        with pytest.raises(RuntimeError, match="^TooManyFailures: two failed$"):
            fork_map(task, [0, 1])
        assert exits == [0]

    def test_study_without_lcc_fits_no_pilot(self, small_config, small_truth, monkeypatch):
        pinned = run_experiment(small_config, theta_star=small_truth)
        pilot_scan = experiments.pilot_scan
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pilot_scan(*args, **kwargs)

        monkeypatch.setattr(experiments, "pilot_scan", counted)
        report = run_experiment(
            replace(small_config, methods=("wcc", "cc", "uniform")), theta_star=small_truth
        )
        assert calls == []
        for m in ("wcc", "cc", "uniform"):  # the pilot's own stream moves no other draw
            assert np.array_equal(report.methods[m].draws, pinned.methods[m].draws)
        run_experiment(replace(small_config, methods=("lcc",)), theta_star=small_truth)
        assert len(calls) == small_config.replications

    def test_recorded_method_failure_drops_the_replication(
        self, small_config, small_truth, monkeypatch
    ):
        replicate = experiments._replicate_explicit

        def one_failed(config, rep):
            out = replicate(config, rep)
            if rep == 4:  # a later method's failure is not the one reported
                out["wcc"], out["uniform"] = Singular("wcc at 4"), Singular("uniform at 4")
            return out

        monkeypatch.setattr(experiments, "_replicate_explicit", one_failed)
        report = run_experiment(small_config, theta_star=small_truth)
        assert report.failures == ((4, "Singular", "wcc at 4"),)
        for m in small_config.methods:
            assert report.methods[m].draws.shape[0] == small_config.replications - 1
        assert len(report.lcc_draws) == small_config.replications - 1

    def test_threads_below_one_rejected(self, small_config, small_truth):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_experiment(small_config, threads=0, theta_star=small_truth)

    def test_budget_accounting(self, small_config, small_truth):
        rep = run_experiment(small_config, theta_star=small_truth)
        budget = small_config.comparison_budget
        for m in ("cc", "wcc", "uniform"):
            assert rep.methods[m].mean_subsample_size == pytest.approx(budget, rel=0.05)
        assert rep.methods["lcc"].mean_subsample_size == pytest.approx(
            small_config.n_lcc, rel=0.15
        )

    def test_all_methods_near_truth_on_correct_spec(self, small_config, small_truth):
        rep = run_experiment(small_config, theta_star=small_truth)
        truth = small_truth.params.slopes
        for m in ("lcc", "wcc", "cc"):
            draws = rep.methods[m].draws[:, 1:]
            se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - truth) < 4 * se + 0.05)

    def test_config_validation(self):
        spec = presets.correct_gaussian(p=2)
        with pytest.raises(ValueError):
            ExperimentConfig(spec, 100, 10, 10, replications=1)
        with pytest.raises(ValueError):
            ExperimentConfig(spec, 100, 10, 10, replications=2, methods=("nope",))

    def test_too_many_failures(self):
        # tiny subsamples on few rows separate almost surely
        cfg = ExperimentConfig(
            spec=presets.correct_gaussian(p=3, mu_scale=3.0, prior1=0.5),
            n_full=40,
            n_pilot=6,
            n_lcc=6,
            replications=6,
            methods=("cc",),
            bootstrap_B=150,
            master_seed=1,
            max_failure_fraction=0.0,
        )
        with pytest.raises(TooManyFailures):
            run_experiment(cfg)


class TestExplicitDraws:
    def test_cc_keeps_population_draws(self, monkeypatch):
        # lcc runs first and draws features on its own stream; the rows cc
        # keeps are still draws of X | Y, whatever else the replication drew
        config = ExperimentConfig(
            spec=presets.simulation1(), n_full=40000, n_pilot=200, n_lcc=200,
            replications=20, methods=("lcc", "wcc", "cc", "uniform"), master_seed=7,
        )
        fit, kept = experiments.fit_subsample, []

        def fit_and_keep_cc(sub, cfg):
            if type(sub.scheme) is CaseControl:
                kept.append(sub)
            return fit(sub, cfg)

        monkeypatch.setattr(experiments, "fit_subsample", fit_and_keep_cc)
        for rep in range(config.replications):
            experiments._replicate_explicit(config, rep)
        labels = np.concatenate([sub.labels for sub in kept])
        feats = np.concatenate([sub.features for sub in kept])
        spec = config.spec
        for y, mu, sigma in ((0.0, spec.mu0, spec.sigma0), (1.0, spec.mu1, spec.sigma1)):
            rows = feats[labels == y]
            n, sq = rows.shape[0], (rows - mu) ** 2
            assert n > 3000
            assert np.all(np.abs(rows.mean(axis=0) - mu) < 4 * np.sqrt(np.diag(sigma) / n))
            assert np.all(np.abs(sq.mean(axis=0) - np.diag(sigma)) < 4 * sq.std(axis=0) / np.sqrt(n))

    @pytest.mark.parametrize("name", ["correct_gaussian", "oatmeal", "steplogit"])
    def test_rows_store_only_what_a_method_keeps(self, small_config, name, monkeypatch):
        # features stored for at most 3 x (n_pilot + n_lcc) rows without `full`;
        # a Gaussian population draws features for no other row, and any other
        # population draws x | y once for each row the lcc pass reads without them
        draw, drawn, made = experiments.sample_conditional, [], []
        monkeypatch.setattr(
            experiments, "sample_conditional",
            lambda spec, labels, *a: drawn.append(len(labels)) or draw(spec, labels, *a),
        )
        rows_of = experiments._replication_rows
        monkeypatch.setattr(
            experiments, "_replication_rows", lambda *a: made.append(rows_of(*a)) or made[-1]
        )
        spec = small_config.spec if name == "correct_gaussian" else getattr(presets, name)()
        for methods in (("lcc", "wcc", "cc", "uniform"), ("lcc", "full")):
            config = replace(small_config, spec=spec, methods=methods)
            for rep in range(config.replications):
                drawn.clear()
                out = experiments._replicate_explicit(config, rep)
                assert not any(isinstance(r, Exception) for r in out.values())
                stored = made[-1].at.size
                if "full" in methods:
                    assert stored == sum(drawn) == config.n_full
                else:
                    assert 0 < stored <= 3 * config.comparison_budget
                    gaussian = name == "correct_gaussian"
                    assert sum(drawn) == (stored if gaussian else config.n_full)

    @pytest.mark.parametrize("name", ["simulation1", "oatmeal", "steplogit"])
    def test_replication_holds_one_byte_per_row(self, name):
        # the benchmark's study: a 1-byte label per row, the uniforms redrawn
        # CHUNK_ROWS at a time, and about 3,000 candidates; the peak was 1.80 MB
        # at 200,000 rows and 2.43 MB at 800,000 for simulation1, 1.96 and 2.58 MB
        # for oatmeal and 2.08 and 2.72 MB for steplogit
        peaks, candidates = [], 0
        for n_full in (200_000, 800_000):
            config = ExperimentConfig(
                spec=getattr(presets, name)(), n_full=n_full, n_pilot=1000, n_lcc=1000,
                replications=2, methods=("lcc", "wcc", "cc"), master_seed=20140601,
            )
            experiments._replicate_explicit(config, 0)
            tracemalloc.start()
            try:
                experiments._replicate_explicit(config, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            candidates = experiments._replication_rows(config, 1).candidates[0].size
        assert peaks[0] < 2.4e6  # simulation1's 1.80 MB plus a third
        # a byte per extra row, plus under 100 bytes per candidate (its position,
        # label, uniform and stored position and 5 features take 72)
        assert peaks[1] - peaks[0] < 600_000 + 100 * candidates

    def test_scan_draws_one_uniform_per_row_around_skipped_rows(self):
        # skipped rows inside a block, between two blocks and last
        n_full = 3 * CHUNK_ROWS + 17
        config = ExperimentConfig(
            spec=presets.simulation1(), n_full=n_full, n_pilot=200, n_lcc=600, replications=2,
            master_seed=5,
        )
        rows = experiments._replication_rows(config, 1)
        every = derived_rng(5, 1, "uniforms").random(n_full)
        skip = np.array([0, 5, CHUNK_ROWS + 2, CHUNK_ROWS + 3, 2 * CHUNK_ROWS + 100, n_full - 1])
        for skip in (experiments._NO_ROWS, skip):
            kept = np.delete(np.arange(n_full), skip)
            at, labels, uniforms = zip(*rows.scan(skip))
            assert [u.size for u in uniforms] == [CHUNK_ROWS] * 3 + [17 - skip.size]
            assert np.concatenate(uniforms).tobytes() == every[kept].tobytes()
            assert np.concatenate(labels).tobytes() == rows.labels[kept].astype(float).tobytes()
        assert at[1][0] == CHUNK_ROWS + 4  # the rows before it were skipped

    @pytest.mark.parametrize("spec,methods,recycle", [
        ("simulation1", ("wcc", "cc", "uniform"), True),
        ("simulation1", ("lcc", "full"), True),
        ("simulation1", ("lcc", "wcc"), False),
        ("simulation1", ("lcc", "full"), False),
        ("oatmeal", ("lcc", "cc"), True),
    ])
    def test_label_only_schemes_keep_from_the_candidates(self, spec, methods, recycle):
        # cc, wcc and uniform read only the candidates, and keep what
        # draw_subsample keeps over every row; lcc, when listed, runs first and
        # adds its own rows' features to the store
        config = ExperimentConfig(
            spec=getattr(presets, spec)(), n_full=3 * CHUNK_ROWS + 17, n_pilot=200, n_lcc=600,
            replications=2, methods=methods, recycle_pilot=recycle, master_seed=5,
        )
        rows = experiments._replication_rows(config, 1)
        if "lcc" in methods:
            experiments._lcc_subsample(config, 1, rows)
        assert rows.candidates[0].size < 0.15 * config.n_full
        # the rows without features, never kept by these schemes, read zeros
        features = np.zeros((config.n_full, config.spec.p))
        features[rows.at] = rows.features
        data = ObservationSet(features, rows.labels)
        uniforms = derived_rng(5, 1, "uniforms").random(config.n_full)
        counts, budget = class_counts(rows.labels), config.comparison_budget
        for scheme in (class_balanced_scheme(counts, budget, weighted=False),
                       class_balanced_scheme(counts, budget, weighted=True),
                       Uniform(budget / config.n_full)):
            sub, want = rows.keep(scheme), draw_subsample(data, scheme, uniforms)
            assert sub.rows_read == want.rows_read == config.n_full
            assert sub.realized_size > 0
            for name in ("rows", "labels", "features", "weights", "offsets"):
                assert getattr(sub, name).tobytes() == getattr(want, name).tobytes(), name
            assert sub.expected_size == pytest.approx(want.expected_size, rel=1e-12, abs=0)
            assert sub.size_variance == pytest.approx(want.size_variance, rel=1e-12, abs=0)

    @pytest.mark.parametrize("recycle,retain,c", [(False, True, None), (True, False, 2.0)])
    def test_streamed_lcc_equals_the_rows_in_full(self, recycle, retain, c):
        # three CHUNK_ROWS blocks and 17 rows; `full` draws every row's features,
        # so fit_pilot_wcc and draw_subsample can read them all in memory
        config = ExperimentConfig(
            spec=presets.simulation1(), n_full=3 * CHUNK_ROWS + 17, n_pilot=200, n_lcc=600,
            replications=2, methods=("lcc", "full"), c=c, retain_cases=retain,
            recycle_pilot=recycle, master_seed=5,
        )
        rows = experiments._replication_rows(config, 1)
        data = ObservationSet(rows.features, rows.labels)
        sub = experiments._lcc_subsample(config, 1, rows)
        pilot = fit_pilot_wcc(data, config.n_pilot, derived_rng(5, 1, "pilot"), config.fit)
        at = np.arange(data.n)
        if not recycle:
            at = np.delete(at, pilot.subsample.rows)
        source = ObservationSet(data.features[at], data.labels[at])
        scheme = LocalCaseControl(pilot.params, c=1.0 if c is None else c, retain_cases=retain)
        uniforms = derived_rng(5, 1, "uniforms").random(data.n)[at]
        want = draw_subsample(source, scheme, uniforms, None if c else config.n_lcc)
        assert sub.scheme.pilot.as_array().tobytes() == pilot.params.as_array().tobytes()
        assert sub.scheme.c == want.scheme.c
        assert sub.rows_read == want.rows_read == at.size
        assert (sub.expected_size, sub.size_variance) == (want.expected_size, want.size_variance)
        for name in ("rows", "labels", "features", "weights", "offsets"):
            assert np.array_equal(getattr(sub, name), getattr(want, name))


class TestDerivedStreams:
    def test_streams_differ_by_stage_and_rep(self):
        a = derived_rng(0, 1, "data").random(4)
        b = derived_rng(0, 1, "pilot").random(4)
        c = derived_rng(0, 2, "data").random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.allclose(a, derived_rng(0, 1, "data").random(4))


class TestConvergenceStudy:
    def test_oatmeal_lcc_shrinks_cc_plateaus(self):
        oat = presets.oatmeal()
        star = population_theta_star(oat)
        rows = convergence_study(
            oat,
            n_grid=[4000, 16000, 64000],
            methods=("lcc", "cc"),
            seeds=12,
            master_seed=3,
            theta_star=star,
        )
        med = {(r["n"], r["method"]): r["median_error"] for r in rows}
        assert med[(64000, "lcc")] < med[(4000, "lcc")]
        # cc error stays near its population-limit distance
        from lccsub.populations import equal_class_bias, theta_cc_limit

        plateau = np.linalg.norm(
            theta_cc_limit(oat, equal_class_bias(oat)).params.as_array()
            - star.params.as_array()
        )
        assert med[(64000, "cc")] == pytest.approx(plateau, rel=0.2)

    def test_one_data_draw_per_seed_and_n(self, monkeypatch):
        # p + 2 = 5 is the pilot floor here, rounded up to 6: 3 rows per class
        spec = presets.correct_gaussian(p=3, mu_scale=0.8, prior1=0.3)
        draw = experiments._replication_rows
        calls = []
        monkeypatch.setattr(
            experiments, "_replication_rows", lambda *a: calls.append(a[0].n_full) or draw(*a)
        )
        rows = convergence_study(
            spec, n_grid=[400, 800], methods=("lcc", "cc", "wcc"), seeds=3,
            pilot_fraction=0.001, theta_star=population_theta_star(spec),
        )
        assert sorted(calls) == [400] * 3 + [800] * 3
        assert {(r["n"], r["method"]) for r in rows} == {
            (n, m) for n in (400, 800) for m in ("lcc", "cc", "wcc")
        }

    def test_every_seed_failed_reads_nan(self):
        # every 6-row lcc pilot at n = 400 separates: that row reports no seed
        spec = presets.correct_gaussian(p=3, mu_scale=0.8, prior1=0.3)
        rows = convergence_study(
            spec, n_grid=[400, 800, 3000], methods=("lcc", "cc", "wcc"), seeds=3,
            pilot_fraction=0.01, theta_star=population_theta_star(spec),
        )
        assert len(rows) == 9
        failed = [r for r in rows if r["seeds"] == 0]
        assert [(r["n"], r["method"]) for r in failed] == [(400, "lcc")]
        for name in ("median_error", "q25_error", "q75_error"):
            assert np.isnan(failed[0][name])
        assert all(np.isfinite(r["median_error"]) for r in rows if r["seeds"])

    def test_one_seed_refused(self):
        # a quantile over fewer than two seeds is no study, as in run_experiment
        with pytest.raises(ValueError, match="at least 2 seeds"):
            convergence_study(presets.oatmeal(), n_grid=[4000], seeds=1)
