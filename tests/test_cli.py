import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lccsub import fileio, presets
from lccsub.cli import _reservoir_balanced_pass, main
from lccsub.asymptotics import eval_matrices
from lccsub.fileio import (
    format_value,
    load_config_file,
    map_shards,
    parse_population,
    read_coefficients,
    read_observations_csv,
    shard_plan,
    stream_rows,
    write_coefficients,
)
from lccsub.populations import population_theta_star, sample_population, theta_cc_limit
from lccsub.sampling import (
    LocalCaseControl,
    TooFewCases,
    acceptance_probabilities,
    estimate,
)

CONFIGS = "configs"


def write_raw_csv(path, obs, names):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", *names])
        for i in range(obs.n):
            writer.writerow(
                [f"{obs.labels[i]:.17g}", *(f"{v:.17g}" for v in obs.features[i])]
            )


@pytest.fixture(scope="module")
def gauss_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    spec = presets.correct_gaussian(p=3, mu_scale=0.8)
    obs = sample_population(spec, 20000, np.random.default_rng(55))
    path = tmp / "raw.csv"
    write_raw_csv(path, obs, ["x1", "x2", "x3"])
    pilot = tmp / "pilot.coef"
    write_coefficients(pilot, spec.linear_params(), ["x1", "x2", "x3"])
    return spec, obs, str(path), str(pilot), tmp


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wide")
    spec = presets.correct_gaussian(p=10, mu_scale=0.3)
    obs = sample_population(spec, 2 * 8192 + 1, np.random.default_rng(56))
    names = [f"x{i + 1}" for i in range(spec.p)]
    path = tmp / "raw.csv"
    write_raw_csv(path, obs, names)
    pilot = tmp / "pilot.coef"
    write_coefficients(pilot, spec.linear_params(), names)
    return spec, obs, str(path), str(pilot), tmp


def test_every_command_runs_on_one_blas_thread(tmp_path, monkeypatch):
    from lccsub import cli, experiments

    blas = experiments._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = blas
    seen = {}

    def record(args):
        seen[args.command] = get()
        return 0

    argvs = {
        "oracle": ["--spec", "spec.cfg"],
        "sample": ["--data", "raw.csv", "--scheme", "uniform"],
        "fit": ["--data", "sub.csv"],
        "asymptotics": ["--spec", "spec.cfg"],
        "simulate": ["--config", "study.cfg"],
    }
    before = get()
    set_(2)
    try:
        for command, argv in argvs.items():
            monkeypatch.setattr(cli, f"cmd_{command}", record)
            assert main([command, *argv]) == 0
            assert get() == 2, command
        monkeypatch.undo()
        # a command that fails restores the count too
        assert main(["fit", "--data", str(tmp_path / "missing.csv")]) == 1
        assert get() == 2
    finally:
        set_(before)
    assert seen == dict.fromkeys(argvs, 1)


class TestOracle:
    def test_oatmeal_report_values(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        rc = main(
            [
                "oracle",
                "--spec",
                f"{CONFIGS}/oatmeal.cfg",
                "--format",
                "json",
                "--out",
                str(out),
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        by_key = {
            (r["quantity"], r["coefficient"]): r["value"] for r in payload["rows"]
        }
        assert by_key[("theta_star", "x1")] == pytest.approx(1.4, abs=0.05)
        cc_key = next(k for k in by_key if k[0].startswith("theta_cc") and k[1] == "x1")
        assert by_key[cc_key] == pytest.approx(-0.83, abs=0.15)

    def test_extra_bias_rows_are_the_cc_limits(self, tmp_path):
        out = tmp_path / "oracle.csv"
        rc = main(["oracle", "--spec", f"{CONFIGS}/oatmeal.cfg", "--b", "0", "--b", "1.5",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        with open(out) as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        assert list(rows[0]) == ["quantity", "coefficient", "value"]
        value = {(r["quantity"], r["coefficient"]): r["value"] for r in rows}
        spec = parse_population(load_config_file(f"{CONFIGS}/oatmeal.cfg")["population"])
        names = ("intercept", "x1", "x2")
        for b, label in ((0.0, "theta_cc[b=0]"), (1.5, "theta_cc[b=1.5]")):
            limit = theta_cc_limit(spec, b, tol=1e-10).params.as_array()
            assert [value[(label, name)] for name in names] == [format_value(v) for v in limit]
        for name in names:
            assert value[("theta_cc[b=0]", name)] == value[("theta_star", name)]

    def test_steplogit_writes_plot_data(self, tmp_path):
        out = tmp_path / "report.csv"
        plot = tmp_path / "fig1.csv"
        rc = main(
            [
                "oracle",
                "--spec",
                f"{CONFIGS}/steplogit.cfg",
                "--out",
                str(out),
                "--plot-out",
                str(plot),
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        with open(plot) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 512
        probs = np.array([float(r["true_prob"]) for r in rows])
        xs = np.array([float(r["x"]) for r in rows])
        assert np.all((probs > 0) & (probs < 1))
        # monotone within each panel on either side of the jump
        for mask in (xs < 0.5, xs > 0.5):
            assert np.all(np.diff(probs[mask]) > 0)

    def test_malformed_spec_exits_one_with_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("population:\n  kind: discrete\n  cellz: []\n")
        rc = main(["oracle", "--spec", str(bad), "--seed", "1"])
        assert rc == 1
        assert "cellz" in capsys.readouterr().err

    def test_singular_hessian_is_not_a_usage_error(self, tmp_path):
        # oatmeal log-odds at 20% exposure and 4% family history: the
        # case-control Newton solve meets a singular Hessian on its way
        spec = tmp_path / "singular.cfg"
        spec.write_text(
            """
population:
  kind: discrete
  cells:
    - {x: [0, 0], mass: 0.768, logodds: -5}
    - {x: [0, 1], mass: 0.032, logodds: -4}
    - {x: [1, 0], mass: 0.192, logodds: -10}
    - {x: [1, 1], mass: 0.008, logodds: -1}
"""
        )
        rc = main(["oracle", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert rc in (0, 2)  # never 1, the usage code


class TestSample:
    def test_balanced_pilot_accepts_half(self, gauss_csv, tmp_path):
        _, _, raw, _, _ = gauss_csv
        pilot0 = tmp_path / "zero.coef"
        pilot0.write_text("intercept 0\nx1 0\nx2 0\nx3 0\n")
        out = tmp_path / "sub.csv"
        rc = main(
            [
                "sample",
                "--data",
                raw,
                "--scheme",
                "lcc",
                "--pilot",
                str(pilot0),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        obs, _ = read_observations_csv(out)
        assert obs.n == pytest.approx(10000, rel=0.05)

    def test_c5_vs_c1_size_ratio(self, tmp_path):
        spec = presets.simulation2(p=10)
        obs = sample_population(spec, 100000, np.random.default_rng(7))
        raw = tmp_path / "sim.csv"
        write_raw_csv(raw, obs, [f"x{i}" for i in range(1, 11)])
        pilot = tmp_path / "pilot.coef"
        write_coefficients(pilot, spec.linear_params(), [f"x{i}" for i in range(1, 11)])
        sizes = {}
        for c in (1, 5):
            out = tmp_path / f"sub{c}.csv"
            rc = main(
                [
                    "sample",
                    "--data",
                    str(raw),
                    "--scheme",
                    "lcc",
                    "--pilot",
                    str(pilot),
                    "--c",
                    str(c),
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            sizes[c], _ = read_observations_csv(out)
        ratio = sizes[5].n / sizes[1].n
        assert 2.4 <= ratio <= 3.6

    def test_roundtrip_matches_library_bitwise(self, gauss_csv, tmp_path):
        spec, obs, raw, pilot, _ = gauss_csv
        out = tmp_path / "sub.csv"
        coef = tmp_path / "est.coef"
        assert (
            main(
                [
                    "sample",
                    "--data",
                    raw,
                    "--scheme",
                    "lcc",
                    "--pilot",
                    pilot,
                    "--seed",
                    "99",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert main(["fit", "--data", str(out), "--out", str(coef), "--seed", "1"]) == 0
        est_cli, _ = read_coefficients(coef)
        est_lib = estimate(
            obs, LocalCaseControl(spec.linear_params()), np.random.default_rng(99)
        )
        assert np.array_equal(est_cli.as_array(), est_lib.as_array())

    def test_non_numeric_cell_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x1\n1,0.5\n0,oops\n")
        rc = main(
            ["sample", "--data", str(bad), "--scheme", "uniform", "--rate", "0.5", "--seed", "1", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "x1" in err

    def test_missing_label_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,x1\n1,0.5\n")
        rc = main(
            ["sample", "--data", str(bad), "--scheme", "uniform", "--rate", "0.5", "--seed", "1", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 1
        assert "y" in capsys.readouterr().err

    def test_on_the_fly_pilot(self, gauss_csv, tmp_path):
        _, _, raw, _, _ = gauss_csv
        out = tmp_path / "sub.csv"
        summary = tmp_path / "summary.json"
        rc = main(
            [
                "sample",
                "--data",
                raw,
                "--scheme",
                "lcc",
                "--pilot-size",
                "400",
                "--target-size",
                "800",
                "--seed",
                "5",
                "--out",
                str(out),
                "--summary",
                str(summary),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        obs, _ = read_observations_csv(out)
        assert obs.n == pytest.approx(800, rel=0.25)
        payload = json.loads(summary.read_text())
        keys = {r["key"] for r in payload["rows"]}
        assert {"seed", "realized_size", "expected_size", "acceptance_rate_estimate"} <= keys


    @pytest.mark.parametrize("retain", [False, True])
    def test_target_size_is_expected_size_at_c_above_one(self, gauss_csv, tmp_path, retain):
        _, _, raw, pilot, _ = gauss_csv
        summary = tmp_path / "summary.json"
        argv = ["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot,
                "--target-size", "8000", "--seed", "2", "--out", str(tmp_path / "sub.csv"),
                "--summary", str(summary), "--format", "json"]
        assert main(argv + ["--retain-cases"] * retain) == 0
        values = {r["key"]: r["value"] for r in json.loads(summary.read_text())["rows"]}
        c = float(values["scheme"].split("c=")[1].split(",")[0])
        assert c > 1
        assert values["expected_size"] == pytest.approx(8000, rel=1e-9)

    def test_unreachable_target_size_exits_one(self, gauss_csv, tmp_path, capsys):
        _, _, raw, pilot, _ = gauss_csv
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot,
                   "--target-size", "20000", "--seed", "2", "--out", str(tmp_path / "sub.csv")])
        assert rc == 1
        assert "target size 20000 is not reachable" in capsys.readouterr().err
        assert not (tmp_path / "sub.csv").exists()

    def test_retained_cases_over_target_exit_one(self, gauss_csv, tmp_path, capsys):
        _, _, raw, pilot, _ = gauss_csv
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot, "--retain-cases",
                   "--target-size", "10", "--seed", "2", "--out", str(tmp_path / "sub.csv")])
        assert rc == 1
        assert "target size 10 is not reachable" in capsys.readouterr().err
        assert not (tmp_path / "sub.csv").exists()

    @pytest.mark.parametrize("retain", [False, True])
    def test_target_size_matches_library_bitwise(
        self, gauss_csv, wide_csv, tmp_path, retain, lcc_reference
    ):
        # wide_csv: 10 features, where OpenBLAS rounds a product's tail rows
        # apart from the rest, and a one-row last chunk
        for spec, obs, raw, pilot, _ in (gauss_csv, wide_csv):
            out = tmp_path / "sub.csv"
            argv = ["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot,
                    "--target-size", "8000", "--seed", "6", "--out", str(out)]
            assert main(argv + ["--retain-cases"] * retain) == 0
            scheme = LocalCaseControl(spec.linear_params(), retain_cases=retain)
            uniforms = np.random.default_rng(6).random(obs.n)
            _, keep, weights, offsets, _ = lcc_reference(obs, scheme, 8000, uniforms)
            want = {"features": obs.features[keep], "labels": obs.labels[keep],
                    "weights": weights, "offsets": offsets}
            got, _ = read_observations_csv(out)
            for field, value in want.items():
                assert np.array_equal(getattr(got, field), value), field

    def test_bad_last_row_leaves_no_output(self, gauss_csv, tmp_path, capsys):
        _, _, raw, pilot, _ = gauss_csv
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(raw).read_text() + "0,1,2,oops\n")
        out = tmp_path / "sub.csv"
        rc = main(["sample", "--data", str(bad), "--scheme", "lcc", "--pilot", pilot,
                   "--target-size", "800", "--seed", "2", "--out", str(out)])
        assert rc == 1
        assert "row 20001, column 'x3': not a number: 'oops'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @staticmethod
    def count_passes(monkeypatch):
        from lccsub import cli

        passes = []  # one entry per pass: "labels" or "rows"

        def counting(*args, **kwargs):
            passes.append("labels" if kwargs.get("labels_only") else "rows")
            return map_shards(*args, **kwargs)

        monkeypatch.setattr(cli, "map_shards", counting)
        return passes

    @staticmethod
    def count_scans(monkeypatch):
        scans = []  # the shards each newline scan found
        real = fileio._shards
        monkeypatch.setattr(fileio, "_shards", lambda *args: scans.append(real(*args)) or scans[-1])
        return scans

    def test_usage_errors_before_any_pass(self, gauss_csv, tmp_path, capsys, monkeypatch):
        _, _, raw, _, _ = gauss_csv
        passes, scans = self.count_passes(monkeypatch), self.count_scans(monkeypatch)
        out = tmp_path / "sub.csv"
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot-size", "400",
                   "--seed", "1", "--out", str(out), "--c", "2", "--target-size", "50"])
        assert rc == 1
        assert "not allowed with argument --c" in capsys.readouterr().err
        assert passes == scans == [] and not out.exists()

    def test_bad_pilot_file_before_any_scan(self, gauss_csv, tmp_path, capsys, monkeypatch):
        _, _, raw, _, _ = gauss_csv
        pilot = tmp_path / "pilot.coef"
        pilot.write_text("x1 0.5\n")
        passes, scans = self.count_passes(monkeypatch), self.count_scans(monkeypatch)
        out = tmp_path / "sub.csv"
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot", str(pilot),
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "first coefficient must be 'intercept'" in capsys.readouterr().err
        assert passes == scans == [] and not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["uniform", "--rate", "0.1", "--target-size", "1000"],
             "--target-size is not used by --scheme uniform"),
            (["cc", "--a0", "0.1", "--a1", "0.5", "--c", "2"], "--c is not used by --scheme cc"),
            (["wcc", "--target-size", "300", "--retain-cases"],
             "--retain-cases is not used by --scheme wcc"),
            (["uniform", "--rate", "0.1", "--pilot", "PILOT"],
             "--pilot is not used by --scheme uniform"),
            (["cc", "--target-size", "300", "--pilot-size", "400"],
             "--pilot-size is not used by --scheme cc"),
            (["lcc", "--pilot-size", "400", "--rate", "0.1"], "--rate is not used by --scheme lcc"),
            (["lcc", "--pilot-size", "400", "--rate", "0"], "--rate is not used by --scheme lcc"),
            (["wcc", "--a0", "0.1", "--a1", "0.5", "--rate", "0.1"],
             "--rate is not used by --scheme wcc"),
            (["wcc", "--target-size", "300", "--a0", "0.1"], "--a0 is not used with --target-size"),
            (["cc", "--target-size", "300", "--a0", "0.1", "--a1", "0.5"],
             "--a0 is not used with --target-size"),
            (["lcc", "--pilot", "PILOT", "--pilot-size", "400"],
             "--pilot-size is not used with --pilot"),
            (["lcc", "--pilot-size", "-4", "--c", "1"], "--pilot-size must be at least 4"),
            (["lcc", "--pilot-size", "3"], "--pilot-size must be at least 4"),
            (["cc", "--target-size", "-5"], "--target-size must be at least 1"),
            (["wcc", "--target-size", "0"], "--target-size must be at least 1"),
            (["lcc", "--target-size", "-5"], "--target-size must be at least 1"),
            (["uniform"], "--rate is required for uniform sampling"),
            (["cc"], "--a0/--a1 or --target-size required for cc"),
            (["wcc", "--a0", "0.1"], "--a0/--a1 or --target-size required for wcc"),
        ],
    )
    def test_unused_option_refused_before_any_pass(
        self, gauss_csv, tmp_path, capsys, monkeypatch, options, message
    ):
        _, _, raw, pilot, _ = gauss_csv
        passes, scans = self.count_passes(monkeypatch), self.count_scans(monkeypatch)
        out = tmp_path / "sub.csv"
        options = [pilot if o == "PILOT" else o for o in options]
        rc = main(["sample", "--data", raw, "--scheme", *options, "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert passes == scans == [] and not out.exists()

    def test_chunk_size_is_not_an_option(self, gauss_csv, tmp_path, capsys):
        _, _, raw, pilot, _ = gauss_csv
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot,
                   "--seed", "1", "--chunk-size", "7", "--out", str(tmp_path / "sub.csv")])
        assert rc == 1
        assert "unrecognized arguments: --chunk-size 7" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", [["lcc", "--pilot-size", "400"], ["wcc"]])
    def test_label_pass_then_one_full_pass(self, gauss_csv, tmp_path, monkeypatch, scheme):
        _, _, raw, _, _ = gauss_csv
        passes = self.count_passes(monkeypatch)
        rc = main(["sample", "--data", raw, "--scheme", *scheme, "--target-size", "800",
                   "--seed", "1", "--out", str(tmp_path / "sub.csv")])
        assert rc == 0
        assert passes == ["labels", "rows"]

    @pytest.mark.parametrize("bad", [False, True])
    def test_newline_scan_once_per_run(self, gauss_csv, tmp_path, monkeypatch, capsys, bad):
        # an on-the-fly pilot makes a label pass, then the acceptance pass;
        # a bad label fails the label pass, and the full check pass follows
        _, _, raw, _, _ = gauss_csv
        self.set_workers(monkeypatch, 2)
        if bad:
            path = tmp_path / "bad.csv"
            path.write_text(Path(raw).read_text() + "2,1,2,3\n")
            raw = str(path)
        passes, scans = self.count_passes(monkeypatch), self.count_scans(monkeypatch)
        rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot-size", "400",
                   "--target-size", "800", "--seed", "1", "--out", str(tmp_path / "sub.csv")])
        assert rc == (1 if bad else 0)
        assert passes == ["labels", "rows"]
        assert ("row 20001: label 2.0 is not 0 or 1" in capsys.readouterr().err) == bad
        assert len(scans) == 1 and len(scans[0]) == 2

    @staticmethod
    def write_rows(path, n, cases, bad=()):
        """y,x1,x2 rows with label 1 at the rows in `cases`; `bad` maps
        (row, column index) to a replacement cell."""
        rng = np.random.default_rng(3)
        lines = []
        for r in range(1, n + 1):
            cells = [str(int(r in cases)), *(f"{v:.17g}" for v in rng.normal(size=2))]
            for (row, col), cell in bad:
                if row == r:
                    cells[col] = cell
            lines.append(",".join(cells))
        path.write_text("y,x1,x2\n" + "\n".join(lines) + "\n")
        return str(path)

    PILOT = ["--scheme", "lcc", "--pilot-size", "400", "--target-size", "300"]

    @pytest.mark.parametrize(
        "cases, bad, scheme, message",
        [
            # the label pass meets the bad label first; the bad cell comes first in the file
            (range(1, 10001, 50), [((5, 1), "oops"), ((9000, 0), "2")], PILOT,
             "row 5, column 'x1': not a number: 'oops'"),
            # one class: a bad cell, not TooFewCases
            ((), [((7000, 2), "inf")], PILOT, "row 7000, column 'x2': non-finite value"),
            ((), [((7000, 2), "inf")], ["--scheme", "cc", "--target-size", "300"],
             "row 7000, column 'x2': non-finite value"),
            # every case is kept by the pilot, the bad one too
            (range(1, 10001, 1000), [((2001, 2), "x")], PILOT,
             "row 2001, column 'x2': not a number: 'x'"),
        ],
    )
    def test_first_bad_cell_wins_over_label_pass(self, tmp_path, capsys, cases, bad, scheme, message):
        data = self.write_rows(tmp_path / "bad.csv", 10000, set(cases), bad)
        out = tmp_path / "sub.csv"
        rc = main(["sample", "--data", data, *scheme, "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.csv"]

    def test_stderr_reports_z_score(self, gauss_csv, tmp_path, capsys, lcc_reference):
        spec, obs, raw, pilot, _ = gauss_csv
        for rate in (["--c", "2"], ["--target-size", "3000"]):
            out = tmp_path / "sub.csv"
            rc = main(["sample", "--data", raw, "--scheme", "lcc", "--pilot", pilot, *rate,
                       "--retain-cases", "--seed", "4", "--out", str(out)])
            assert rc == 0
            scheme = LocalCaseControl(spec.linear_params(), c=2.0, retain_cases=True)
            if rate[0] == "--target-size":
                scheme = lcc_reference(obs, scheme, 3000, np.zeros(obs.n))[0]
            prob, _ = acceptance_probabilities(scheme, obs.features, obs.labels)
            realized = read_observations_csv(out)[0].n
            z = (realized - prob.sum()) / np.sqrt(np.sum(prob * (1 - prob)))
            assert f"(expected {prob.sum():.1f}, z {z:+.2f})" in capsys.readouterr().err

    def test_weight_column_refused_before_any_pass(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "weighted.csv"
        data.write_text("y,x1,weight\n" + "".join(
            f"{i % 2},{i / 7:.17g},1.5\n" for i in range(1000)))
        passes = self.count_passes(monkeypatch)
        out = tmp_path / "sub.csv"
        rc = main(["sample", "--data", str(data), "--scheme", "lcc", "--pilot-size", "400",
                   "--target-size", "300", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "already has weight/offset columns" in capsys.readouterr().err
        assert passes == [] and not out.exists()


    @staticmethod
    def set_workers(monkeypatch, workers):
        """Make `workers` cores usable, whatever the machine has."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))

    @pytest.mark.parametrize(
        "options",
        [
            ["lcc", "--pilot-size", "400", "--target-size", "3000"],
            ["lcc", "--pilot-size", "400", "--target-size", "3000", "--retain-cases"],
            ["lcc", "--pilot", "PILOT", "--c", "2"],
            ["cc", "--target-size", "2000"],
            ["wcc", "--target-size", "2000"],
            ["uniform", "--rate", "0.05"],
        ],
    )
    def test_output_does_not_depend_on_worker_count(
        self, gauss_csv, tmp_path, capsys, monkeypatch, options
    ):
        # 20,000 rows: two full chunks and a partial one, so 3 workers scan one chunk each
        _, _, raw, pilot, _ = gauss_csv
        options = [pilot if o == "PILOT" else o for o in options]
        out, summary = tmp_path / "sub.csv", tmp_path / "summary.json"
        runs = []
        for workers in (1, 2, 3):
            assert len(fileio._shards(raw, workers)) == workers
            self.set_workers(monkeypatch, workers)
            assert main(["sample", "--data", raw, "--scheme", *options, "--seed", "7",
                         "--out", str(out), "--summary", str(summary), "--format", "json"]) == 0
            runs.append((out.read_bytes(), summary.read_bytes(), capsys.readouterr().err))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("first_shard_bad", [False, True])
    def test_worker_error_raised_in_file_order(
        self, gauss_csv, tmp_path, capsys, monkeypatch, first_shard_bad
    ):
        _, _, raw, pilot, _ = gauss_csv
        self.set_workers(monkeypatch, 2)
        lines = Path(raw).read_text().splitlines(keepends=True)
        if first_shard_bad:
            lines[5] = "0,1,oops,2\n"  # row 5, in the caller's shard
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines) + "0,1,2,x\n")  # row 20001, in the worker's shard
        assert [s[1] for s in fileio._shards(str(bad), 2)] == [1, 8193]
        out = tmp_path / "sub.csv"
        # each worker ends in os._exit, so none unwinds into this test: it writes a byte first
        exits, wrote = os.pipe()
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: (os.write(wrote, b"x"), real_exit(code)))
        rc = main(["sample", "--data", str(bad), "--scheme", "lcc", "--pilot", pilot,
                   "--target-size", "800", "--seed", "2", "--out", str(out)])
        os.close(wrote)
        with open(exits, "rb") as pipe:
            ended = pipe.read()
        # the worker ran to os._exit, unless it was stopped once shard 0 had failed
        assert ended == b"x" or (first_shard_bad and ended == b"")
        assert rc == 1
        message = ("row 5, column 'x2': not a number: 'oops'" if first_shard_bad
                   else "row 20001, column 'x3': not a number: 'x'")
        assert f"error: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("worker_fails", [False, True])
    def test_worker_whose_result_was_read_is_not_killed(
        self, gauss_csv, monkeypatch, worker_fails
    ):
        _, _, raw, _, _ = gauss_csv
        self.set_workers(monkeypatch, 2)
        # the worker lingers on its way to os._exit, after its result was sent
        real_exit, real_waitpid = os._exit, os.waitpid
        monkeypatch.setattr(os, "_exit", lambda code: (time.sleep(0.2), real_exit(code)))
        exits = []

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            exits.append(os.waitstatus_to_exitcode(reaped[1]))
            return reaped

        monkeypatch.setattr(os, "waitpid", waitpid)

        def scan(chunks, first):
            if worker_fails and first > 0:
                raise ValueError(f"shard from row {first + 1}")
            return sum(labels.size for _, _, _, labels, _, _ in chunks)

        if worker_fails:
            with pytest.raises(ValueError, match="shard from row 8193"):
                map_shards(raw, scan, shard_plan(raw))
        else:
            assert sum(map_shards(raw, scan, shard_plan(raw))[1]) == 20000
        assert exits == [0]  # exited by itself, not -SIGKILL

    @pytest.mark.parametrize("layout, shards", [("quoted", 1), ("\r", 1), ("\r\n", 3)])
    def test_records_off_newlines_keep_one_shard(
        self, gauss_csv, tmp_path, capsys, monkeypatch, layout, shards
    ):
        _, _, raw, _, _ = gauss_csv
        lines = Path(raw).read_text().splitlines()
        if layout == "quoted":
            cells = lines[9000].split(",")
            lines[9000] = ",".join([cells[0], f'"{cells[1]}\n"', *cells[2:]])  # over two lines
            text = "\n".join(lines) + "\n"
        elif layout == "\r":
            # bare \r ends the first 100 lines, \n the rest
            text = "\r".join(lines[:100]) + "\r" + "\n".join(lines[100:]) + "\n"
        else:
            text = layout.join(lines) + layout
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert len(fileio._shards(str(path), 3)) == shards
        runs = []
        for workers in (1, 3):
            self.set_workers(monkeypatch, workers)
            out = tmp_path / "sub.csv"
            assert main(["sample", "--data", str(path), "--scheme", "lcc", "--pilot-size", "400",
                         "--target-size", "3000", "--seed", "3", "--out", str(out)]) == 0
            runs.append((out.read_bytes(), capsys.readouterr().err))
        assert runs[1] == runs[0]


class TestPilotSample:
    @staticmethod
    def balanced_pass(path, per_class, rng):
        return _reservoir_balanced_pass(path, per_class, rng, shard_plan(path))

    @staticmethod
    def write(path, labels):
        # the feature is the row number, so kept rows can be told apart
        path.write_text("y,x1\n" + "".join(f"{y},{i}\n" for i, y in enumerate(labels)))
        return str(path)

    def test_keeps_min_k_seen_with_wcc_weights(self, tmp_path):
        path = self.write(tmp_path / "d.csv", [0] * 30 + [1] * 3 + [0] * 10)
        obs = self.balanced_pass(path, 5, np.random.default_rng(0))
        zeros, ones = obs.labels == 0.0, obs.labels == 1.0
        assert zeros.sum() == 5 and ones.sum() == 3
        assert np.all(obs.weights[zeros] == 40 / 5) and np.all(obs.weights[ones] == 1.0)
        assert sorted(obs.features[ones, 0]) == [30.0, 31.0, 32.0]
        assert np.unique(obs.features[zeros, 0]).size == 5
        assert set(obs.features[zeros, 0]) <= set(range(30)) | set(range(33, 43))

    def test_chunking_does_not_change_the_sample(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "d.csv", [int(i % 3 == 0) for i in range(200)])
        whole = self.balanced_pass(path, 7, np.random.default_rng(5))
        for size in (1, 9, 64):
            monkeypatch.setattr(
                fileio, "stream_rows", lambda p, **kw: stream_rows(p, chunk_size=size, **kw)
            )
            chunked = self.balanced_pass(path, 7, np.random.default_rng(5))
            assert np.array_equal(whole.features, chunked.features)
            assert np.array_equal(whole.labels, chunked.labels)

    @staticmethod
    def reference(path, per_class, rng):
        """The pilot from a full parse: each class's per_class smallest keys."""
        obs, _ = read_observations_csv(path)
        keys = rng.random(obs.n)
        rows = [np.flatnonzero(obs.labels == y) for y in (0, 1)]
        return [obs.features[r[np.argsort(keys[r])][:per_class]] for r in rows], rows

    @pytest.mark.parametrize("quoted", [False, True])
    def test_label_pass_equals_full_parse_bitwise(self, tmp_path, monkeypatch, quoted):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-5, 5, size=(300, 3))
        y = (rng.random(300) < 0.2).astype(int)
        lines = []
        for i in range(300):
            cells = [str(y[i]), *(f"{v:.17g}" for v in x[i])]
            if quoted and i % 7 == 3:
                cells[2] = f'"{cells[2]}\n"'  # a record over two lines
            lines.append(",".join(cells))
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2,x3\n" + "\n".join(lines) + "\n")
        (want0, want1), rows = self.reference(str(path), 20, np.random.default_rng(4))
        for size in (1, 5, 64, 8192):
            monkeypatch.setattr(
                fileio, "stream_rows", lambda p, **kw: stream_rows(p, chunk_size=size, **kw)
            )
            got = self.balanced_pass(str(path), 20, np.random.default_rng(4))
            assert got.features.flags["C_CONTIGUOUS"]
            assert got.features.tobytes() == np.vstack([want0, want1]).tobytes()
            assert got.labels.tolist() == [0.0] * 20 + [1.0] * 20
            assert got.weights.tolist() == [rows[0].size / 20] * 20 + [rows[1].size / 20] * 20

    def test_inclusion_is_uniform(self, tmp_path):
        path = self.write(tmp_path / "d.csv", [0] * 20 + [1] * 2)
        rng = np.random.default_rng(11)
        counts = np.zeros(20)
        reps = 400
        for _ in range(reps):
            obs = self.balanced_pass(path, 5, rng)
            counts[obs.features[obs.labels == 0.0, 0].astype(int)] += 1
        # each row is kept with probability 5/20; 0.1 is over 4.5 sd
        assert np.all(np.abs(counts / reps - 0.25) < 0.1)

    def test_absent_class_raises(self, tmp_path):
        path = self.write(tmp_path / "d.csv", [0] * 12)
        with pytest.raises(TooFewCases):
            self.balanced_pass(path, 5, np.random.default_rng(0))

    def test_shards_merge_to_the_serial_reservoir(self, tmp_path, monkeypatch):
        # three full chunks and a partial one; rows of the rarer class in every chunk
        path = self.write(tmp_path / "d.csv", [int(i % 37 == 0) for i in range(3 * 8192 + 100)])
        runs = []
        for workers in (1, 2, 3, 4):
            assert len(fileio._shards(path, workers)) == workers
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            rng = np.random.default_rng(12)
            obs = self.balanced_pass(path, 300, rng)
            runs.append((obs.features.tobytes(), obs.labels.tobytes(), obs.weights.tobytes()))
            # rng ends where one key per row leaves it
            assert rng.random() == np.random.default_rng(12).random(3 * 8192 + 101)[-1]
        assert runs[1:] == runs[:1] * 3


def test_cli_import_leaves_scipy_unloaded():
    """lccsub does not depend on scipy: neither importing the CLI nor the
    Gaussian population solvers may load it."""
    import lccsub

    env = dict(os.environ)
    src = str(Path(lccsub.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, lccsub.cli\n"
        "from lccsub import presets, populations as P\n"
        "spec = presets.simulation1()\n"
        "P.population_theta_star(spec); P.theta_cc_limit(spec, P.equal_class_bias(spec))\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"



def test_cli_import_starts_no_process_pool():
    """Importing lccsub.cli is every command's set-up: it loads neither
    multiprocessing nor concurrent.futures, which cost milliseconds, nor
    yaml and secrets, which only simulate and a run without --seed need."""
    import lccsub

    env = dict(os.environ)
    src = str(Path(lccsub.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, lccsub.cli\n"
        "loaded = {'multiprocessing', 'concurrent.futures', 'yaml', 'secrets'} & set(sys.modules)\n"
        "print(sorted(loaded))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

class TestFit:
    def test_intercept_only_file(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_text("y,x1\n1,0\n1,0\n1,0\n0,0\n")
        coef = tmp_path / "out.coef"
        rc = main(["fit", "--data", str(data), "--out", str(coef), "--seed", "1"])
        assert rc == 0
        params, _ = read_coefficients(coef)
        assert params.intercept == pytest.approx(math.log(3), abs=1e-8)
        # the report has no Monte-Carlo error column: no fit path has one
        header = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"][0]
        assert header == "quantity,coefficient,value"

    def test_weighted_oatmeal_cells(self, tmp_path):
        oat = presets.oatmeal()
        p = 1 / (1 + np.exp(-oat.logodds))
        rows = ["y,x1,x2,weight,offset"]
        for point, mass, prob in zip(oat.points, oat.masses, p):
            rows.append(f"1,{point[0]},{point[1]},{mass * prob:.17g},0")
            rows.append(f"0,{point[0]},{point[1]},{mass * (1 - prob):.17g},0")
        data = tmp_path / "oat.csv"
        data.write_text("\n".join(rows) + "\n")
        coef = tmp_path / "oat.coef"
        rc = main(["fit", "--data", str(data), "--out", str(coef), "--seed", "1"])
        assert rc == 0
        params, _ = read_coefficients(coef)
        assert params.slopes[0] == pytest.approx(1.4, abs=0.05)

    def test_separation_exit_code(self, tmp_path):
        data = tmp_path / "sep.csv"
        data.write_text("y,x1\n0,-1\n1,1\n")
        rc = main(["fit", "--data", str(data), "--seed", "1"])
        assert rc == 2

    def test_adjustment_added(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_text("y,x1\n1,0.5\n1,-0.2\n1,0.1\n0,0.3\n0,-0.5\n")
        adj = tmp_path / "adj.coef"
        adj.write_text("intercept 10\nx1 -2\n")
        coef1 = tmp_path / "c1.coef"
        coef2 = tmp_path / "c2.coef"
        main(["fit", "--data", str(data), "--out", str(coef1), "--seed", "1"])
        main(
            [
                "fit",
                "--data",
                str(data),
                "--adjustment",
                str(adj),
                "--out",
                str(coef2),
                "--seed",
                "1",
            ]
        )
        p1, _ = read_coefficients(coef1)
        p2, _ = read_coefficients(coef2)
        assert p2.intercept == pytest.approx(p1.intercept + 10)
        assert p2.slopes[0] == pytest.approx(p1.slopes[0] - 2)


# pilots of 12 rows separate in replications 0, 5 and 6
_FRAGILE_STUDY = """
population:
  kind: gaussian2
  prior1: 0.5
  mu0: [0, 0]
  mu1: [1, 1]
  sigma0: [[1, 0], [0, 1]]
  sigma1: [[1, 0], [0, 1]]
experiment:
  n_full: 200
  n_pilot: 12
  n_lcc: 12
  replications: 8
  methods: [cc]
  bootstrap_B: 150
  master_seed: 1
"""


class TestSimulate:
    def test_seeded_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            """
population:
  kind: gaussian2
  prior1: 0.05
  mu0: [0, 0]
  mu1: [0.8, 0.8]
  sigma0: [[1, 0], [0, 1]]
  sigma1: [[1, 0], [0, 1]]
experiment:
  n_full: 5000
  n_pilot: 200
  n_lcc: 200
  replications: 8
  methods: [lcc, cc]
  bootstrap_B: 150
  master_seed: 3
"""
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_report_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            """
population:
  kind: steplogit
experiment:
  n_full: 2000
  n_pilot: 200
  n_lcc: 200
  replications: 3
  methods: [lcc]
  bootstrap_B: 100
"""
        )
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = ["simulate", "--config", str(cfg), "--seed", "7", "--format", "json"]
            assert main([*argv, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"runtime_seconds" not in outs[0]
        assert "runtime: " in capsys.readouterr().err
        # perfbench/workloads.py's ReplicationStudy._check_study reads these
        # keys, theta_star_mc_se among them, from this report
        report = json.loads(outs[0])
        assert report["theta_star_mc_se"] == [0.0, 0.0]
        assert isinstance(report["n_failures"], int)
        for row in report["rows"]:
            assert {"method", "bias_sq", "var", "mean_subsample_size"} <= set(row)

    def test_threads_do_not_change_output(self, tmp_path):
        tiny = """
population:
  kind: gaussian2
  prior1: 0.05
  mu0: [0, 0]
  mu1: [0.8, 0.8]
  sigma0: [[1, 0], [0, 1]]
  sigma1: [[1, 0], [0, 1]]
experiment:
  n_full: 5000
  n_pilot: 200
  n_lcc: 200
  replications: 6
  methods: [lcc]
  bootstrap_B: 150
  master_seed: 3
"""
        # unequal covariances: a row given the other class's factor shows
        misspecified = tiny.replace("sigma1: [[1, 0], [0, 1]]", "sigma1: [[0.3, 0], [0, 5]]")
        # 20-d fits on 5,000 rows, large enough for OpenBLAS to use its threads
        wide = (
            Path(CONFIGS, "sim2_desk.cfg").read_text()
            .replace("n_pilot: 10000", "n_pilot: 5000")
            .replace("n_lcc: 10000", "n_lcc: 5000")
            .replace("replications: 200", "replications: 3")
            .replace("bootstrap_B: 400", "bootstrap_B: 100")
        )
        for study in (tiny, misspecified, wide):
            cfg = tmp_path / "study.cfg"
            cfg.write_text(study)
            outs = []
            for threads, name in ((1, "a.csv"), (3, "b.csv")):
                out = tmp_path / name
                rc = main(
                    [
                        "simulate",
                        "--config",
                        str(cfg),
                        "--threads",
                        str(threads),
                        "--out",
                        str(out),
                    ]
                )
                assert rc == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_worker_pool_on_stderr(self, tmp_path, capsys, monkeypatch):
        from lccsub import experiments

        cfg = tmp_path / "study.cfg"
        cfg.write_text(_FRAGILE_STUDY + "  max_failure_fraction: 0.5\n")
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"study{threads}.csv"
            assert main(["simulate", "--config", str(cfg), "--threads", str(threads),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
            err = capsys.readouterr().err
            workers = min(threads, len(os.sched_getaffinity(0)))  # one per usable core at most
            assert f", workers: {workers}, BLAS threads per worker: " in err
            if experiments._openblas() is not None:
                was = experiments._openblas()[0]()
                assert f"BLAS threads per worker: 1 (was {was})\n" in err
        monkeypatch.setattr(experiments, "_openblas", lambda: None)
        out = tmp_path / "unpinned.csv"
        assert main(["simulate", "--config", str(cfg), "--threads", "2", "--out", str(out)]) == 0
        assert f", workers: {workers}, BLAS threads per worker: not pinned\n" in capsys.readouterr().err
        assert out.read_bytes() == outs[0] == outs[1]

    def test_workers_capped_at_usable_cores(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(_FRAGILE_STUDY + "  max_failure_fraction: 0.5\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_fork, forks = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / "study.csv"
        assert main(["simulate", "--config", str(cfg), "--threads", "64", "--out", str(out)]) == 0
        assert ", workers: 2, BLAS threads per worker: " in capsys.readouterr().err
        assert len(forks) == 1  # the caller is the other worker
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        # refused before the config is read: this one does not exist
        cfg = tmp_path / "absent.cfg"
        assert main(["simulate", "--config", str(cfg), "--threads", threads]) == 1
        assert capsys.readouterr().err == "error: --threads must be at least 1\n"

    def test_failed_replications_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "fragile.cfg"
        cfg.write_text(_FRAGILE_STUDY + "  max_failure_fraction: 0.5\n")
        out = tmp_path / "study.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "failed replications: 3\n" in err
        for rep in (0, 5, 6):
            assert f"  replication {rep}: Separation: " in err
        report = out.read_text()
        assert "failures 3" in report and "Separation" not in report

    def test_aborted_study_lists_every_failure(self, tmp_path, capsys):
        # 3 of 8 failures exceed the default tolerated fraction of 0.2
        cfg = tmp_path / "fragile.cfg"
        cfg.write_text(_FRAGILE_STUDY)
        out = tmp_path / "study.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "failed replications: 3\n" in err
        for rep in (0, 5, 6):
            assert f"  replication {rep}: Separation: " in err
        assert "budget exceeded: 3/8 replications failed" in err
        assert not out.exists()

    def test_fewer_than_two_successes_is_a_budget_failure(self, tmp_path, capsys):
        # every 6-row pilot of these well-separated classes separates, so a
        # tolerated failure fraction of 1 still leaves nothing to summarize
        cfg = tmp_path / "separable.cfg"
        cfg.write_text(
            """
population:
  kind: gaussian2
  prior1: 0.5
  mu0: [0, 0]
  mu1: [3, 3]
  sigma0: [[1, 0], [0, 1]]
  sigma1: [[1, 0], [0, 1]]
experiment:
  n_full: 200
  n_pilot: 6
  n_lcc: 6
  replications: 8
  methods: [cc]
  max_failure_fraction: 1.0
"""
        )
        out = tmp_path / "study.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "budget exceeded: " in err and "at least 2 must succeed" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            """
population:
  kind: steplogit
experiment:
  n_full: 100
  n_pilot: 10
  n_lcc: 10
  replications: 2
  replicationz: 5
"""
        )
        rc = main(["simulate", "--config", str(cfg), "--out", "-"])
        assert rc == 1
        assert "replicationz" in capsys.readouterr().err


class TestAsymptotics:
    def test_oatmeal_report_contains_identities(self, tmp_path):
        out = tmp_path / "asym.json"
        rc = main(
            [
                "asymptotics",
                "--spec",
                f"{CONFIGS}/oatmeal.cfg",
                "--format",
                "json",
                "--out",
                str(out),
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        values = {
            (r["quantity"], r["row"], r["col"]): r["value"] for r in payload["rows"]
        }
        assert 0 < values[("abar", 0, 0)] < 1
        # score vanishes at (theta*, theta*)
        assert all(abs(values[("G", i, 0)]) < 1e-8 for i in range(3))
        # H symmetric positive-definite
        H = np.array([[values[("H", i, j)] for j in range(3)] for i in range(3)])
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) > 0
        # C is the library's closed form, carried through JSON exactly
        spec = parse_population(load_config_file(f"{CONFIGS}/oatmeal.cfg")["population"])
        star = population_theta_star(spec, tol=1e-10).params
        C = np.array([[values[("C", i, j)] for j in range(3)] for i in range(3)])
        assert np.array_equal(C, eval_matrices(spec, star, star).C)
        assert "c_fd_relerr" not in payload

    def test_c_below_one_accepted(self, tmp_path):
        values = {}
        for c in ("0.5", "1"):
            out = tmp_path / f"c{c}.json"
            rc = main(["asymptotics", "--spec", f"{CONFIGS}/oatmeal.cfg", "--seed", "1",
                       "--c", c, "--format", "json", "--out", str(out)])
            assert rc == 0
            rows = json.loads(out.read_text())["rows"]
            # every rule is exact: no row carries a Monte-Carlo error column
            assert all(set(r) == {"quantity", "row", "col", "value"} for r in rows)
            values[c] = {(r["quantity"], r["row"], r["col"]): r["value"] for r in rows}
        assert values["0.5"][("abar", 0, 0)] == values["1"][("abar", 0, 0)] / 2
        for key, value in values["1"].items():
            if key[0] in ("H", "J", "C", "Sigma"):
                assert values["0.5"][key] == value, key
            elif key[0] == "variance":
                # half the acceptance doubles the full-sample-scale variance
                assert values["0.5"][key] == pytest.approx(2 * value, rel=1e-12), key

    def test_gaussian_output_ignores_seed_and_mc_nodes(self, tmp_path):
        outputs = set()
        for seed, nodes in (("1", "1000"), ("2", "1000"), ("1", "500000")):
            out = tmp_path / "limits.csv"
            rc = main(["asymptotics", "--spec", f"{CONFIGS}/example2.cfg", "--seed", seed,
                       "--c", "2", "--mc-nodes", nodes, "--out", str(out)])
            assert rc == 0
            # the seed is still recorded, in the first comment line
            first, rest = out.read_text().split("\n", 1)
            assert first == f"# seed {seed}"
            outputs.add(rest)
        assert len(outputs) == 1

    def test_runs_on_the_twenty_dimensional_desk_population(self, tmp_path):
        out = tmp_path / "sim2.json"
        rc = main(["asymptotics", "--spec", f"{CONFIGS}/sim2_desk.cfg", "--seed", "1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        H = np.zeros((21, 21))
        for r in rows:
            if r["quantity"] == "H":
                H[r["row"], r["col"]] = r["value"]
        assert np.allclose(H, H.T) and np.min(np.linalg.eigvalsh(H)) > 0

    def test_theta_star_solved_once(self, tmp_path, monkeypatch):
        import lccsub.cli as cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return population_theta_star(*args, **kwargs)

        monkeypatch.setattr(cli, "population_theta_star", counted)
        out = tmp_path / "asym.csv"
        rc = main(["asymptotics", "--spec", f"{CONFIGS}/oatmeal.cfg", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1


class TestUsage:
    def test_missing_required_flag(self, capsys):
        assert main(["oracle"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_empty_subsample_exit_code(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("y,x1\n1,0.5\n0,0.3\n")
        rc = main(
            [
                "sample",
                "--data",
                str(data),
                "--scheme",
                "uniform",
                "--rate",
                "1e-9",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 3
        assert not (tmp_path / "o.csv").exists()


class TestCsvRoundTrip:
    def test_seventeen_digit_lossless(self, tmp_path):
        from lccsub.fileio import write_observations_csv
        from lccsub.glm import ObservationSet

        rng = np.random.default_rng(0)
        obs = ObservationSet(
            rng.standard_normal((50, 3)) * 1e3,
            (rng.random(50) < 0.5).astype(float),
            weights=rng.uniform(0.1, 5, 50),
            offsets=rng.standard_normal(50) * 40,
        )
        path = tmp_path / "round.csv"
        write_observations_csv(path, obs, ["a", "b", "c"])
        back, names = read_observations_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(back.features, obs.features)
        assert np.array_equal(back.weights, obs.weights)
        assert np.array_equal(back.offsets, obs.offsets)

    def test_rows_written_as_csv_writer_would(self, tmp_path):
        from lccsub.fileio import format_value, write_observations_csv
        from lccsub.glm import ObservationSet

        # special values, then enough rows to span several write blocks
        rng = np.random.default_rng(2)
        feats = np.vstack([
            [[-0.0, 1e-320, 0.1], [1.7976931348623157e308, -2.5e-7, 123456789.0]],
            rng.standard_normal((2500, 3)) * 10.0 ** rng.integers(-8, 8, (2500, 3)),
        ])
        labels = np.r_[0.0, 1.0, rng.integers(0, 2, 2500)]
        weights = np.r_[1.0, 3.25, rng.uniform(1, 50, 2500)]
        offsets = np.r_[-0.0, 1e300, rng.standard_normal(2500)]
        obs = ObservationSet(feats, labels, weights=weights, offsets=offsets)
        path = tmp_path / "rows.csv"
        write_observations_csv(path, obs, ["a", "b,c", "d"])
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["y", "a", "b,c", "d", "weight", "offset"])
            for i in range(obs.n):
                writer.writerow([format_value(v) for v in (
                    obs.labels[i], *obs.features[i], obs.weights[i], obs.offsets[i])])
        assert path.read_bytes() == want.read_bytes()
        assert b"-0," in path.read_bytes() and path.read_bytes().endswith(b"\r\n")
