"""The two benchmark workloads: inputs, lccsub command lines and output checks.

Inputs are drawn by this module's own numpy code from the public preset
attributes (prior1, mu0, mu1, sigma0, sigma1) and the workload seed, never
through the program's samplers, so a change to the program's random
streams cannot change what is benchmarked.

A workload is a sequence of commands run in fresh processes.  Each command
gets its output checks; a command that exits nonzero or fails a check
counts as one failed operation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# example2 theta* at the seed commit (Sobol grid; Monte-Carlo SEs 0.0044, 0.0031, 0.0024).
EXAMPLE2_THETA_STAR = (-6.45663, 1.59292, 1.01273)
FIT_GRAD_TOL = 1e-10  # the `lccsub fit` default
# Inputs are drawn from their own stream of the workload seed.  Seeding
# numpy with the bare seed would replay the uniforms `lccsub sample --seed`
# draws, so acceptance would be correlated with the labels.
INPUT_STREAM = 1306


def input_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, INPUT_STREAM])


@dataclass
class Command:
    label: str
    argv: list
    outputs: list  # files compared byte for byte across iterations
    check: object  # check(it_dir) -> (problems, facts)


@dataclass
class Prepared:
    meta: dict
    files: dict = field(default_factory=dict)


def _gaussian_rows(pop, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.random(n) < pop.prior1
    z = rng.standard_normal((n, pop.p))
    x = np.empty((n, pop.p))
    for cls, (mu, sigma) in enumerate(((pop.mu0, pop.sigma0), (pop.mu1, pop.sigma1))):
        rows = labels == bool(cls)
        x[rows] = mu + z[rows] @ np.linalg.cholesky(sigma).T
    return labels.astype(np.float64), x


def _yaml_block(name: str, mapping: dict) -> str:
    # JSON values are valid YAML flow nodes, and json.dumps keeps 17 digits.
    lines = [f"{name}:"]
    for key, value in mapping.items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        lines.append(f"  {key}: {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def _gaussian_population(pop) -> dict:
    return {
        "kind": "gaussian2",
        "prior1": float(pop.prior1),
        "mu0": pop.mu0,
        "mu1": pop.mu1,
        "sigma0": pop.sigma0,
        "sigma1": pop.sigma1,
    }


def _load_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# subsample_fit: the practitioner path (CSV in, subsample, fit)


class SubsampleFit:
    name = "subsample_fit"
    why = "the practitioner path: the only workload that parses CSV (200,000 x 5, 1% positives)"

    def __init__(self, smoke: bool):
        self.rows = 20_000 if smoke else 200_000
        self.pilot_size = 400 if smoke else 1000
        self.target = 2000 if smoke else 10_000

    def prepare(self, run_dir: Path, seed: int) -> Prepared:
        from lccsub import presets

        pop = presets.simulation1()
        labels, x = _gaussian_rows(pop, self.rows, input_rng(seed))
        path = run_dir / "data.csv"
        header = ",".join(["y", *(f"x{j + 1}" for j in range(pop.p))])
        np.savetxt(path, np.column_stack([labels, x]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        self.p = pop.p
        return Prepared(
            meta={"input_rows": self.rows, "input_bytes": path.stat().st_size,
                  "input_columns": pop.p + 1},
            files={"data": path},
        )

    def commands(self, prep: Prepared, it_dir: Path, seed: int) -> list:
        data = str(prep.files["data"])
        sample = [
            "sample", "--data", data, "--scheme", "lcc",
            "--pilot-size", str(self.pilot_size), "--target-size", str(self.target),
            "--seed", str(seed), "--out", str(it_dir / "sub.csv"),
            "--summary", str(it_dir / "summary.json"), "--format", "json",
        ]
        fit = [
            "fit", "--data", str(it_dir / "sub.csv"), "--seed", str(seed),
            "--out", str(it_dir / "est.coef"), "--format", "json",
        ]
        return [
            Command("sample", sample, ["sub.csv", "summary.json"], self._check_sample),
            Command("fit", fit, ["est.coef", "fit.stdout"], self._check_fit),
        ]

    def _check_sample(self, it_dir: Path):
        problems = []
        with open(it_dir / "sub.csv") as handle:
            header = handle.readline().strip()
        want = ",".join(["y", *(f"x{j + 1}" for j in range(self.p)), "weight", "offset"])
        if header != want:
            problems.append(f"header {header!r}, want {want!r}")
        table = np.loadtxt(it_dir / "sub.csv", delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] and not np.all(table[:, -2] >= 1.0):
            problems.append(f"{int(np.sum(table[:, -2] < 1.0))} weights below 1")
        summary = {r["key"]: r["value"] for r in _load_json(it_dir / "summary.json")["rows"]}
        realized, expected = summary["realized_size"], summary["expected_size"]
        if realized != table.shape[0]:
            problems.append(f"summary says {realized} rows, file has {table.shape[0]}")
        if abs(realized - expected) > 5 * math.sqrt(expected):
            problems.append(f"realized {realized} vs expected {expected:.1f}: beyond 5 sd")
        facts = {
            "target_size_err": abs(expected - self.target) / self.target,
            "realized_size": realized,
            "expected_size": expected,
        }
        return problems, facts

    def _check_fit(self, it_dir: Path):
        problems = []
        report = _load_json(it_dir / "fit.stdout")["rows"]
        grad = next(r["value"] for r in report if r["quantity"] == "grad_norm")
        if not grad < FIT_GRAD_TOL:
            problems.append(f"grad_norm {grad:.3g} not below {FIT_GRAD_TOL:g}")
        reported = [r["value"] for r in report if r["quantity"] == "coefficients"]
        with open(it_dir / "est.coef") as handle:
            written = [float(line.split()[1]) for line in handle if line.strip()]
        if written != reported:
            problems.append("coefficient file does not round-trip the reported fit")
        return problems, {"fit_grad_norm": grad}


# ---------------------------------------------------------------------------
# replication_study: the paper's headline simulation (sim1_desk population),
# then the population limits and variance law of example2


class ReplicationStudy:
    name = "replication_study"
    why = ("the headline sim1_desk study, then the example2 variance law: the only workload"
           " with replications, the worker pool, theta* and asymptotics")

    def __init__(self, smoke: bool):
        self.smoke = smoke
        if smoke:
            self.experiment = {"n_full": 20_000, "n_pilot": 400, "n_lcc": 400,
                               "replications": 4, "bootstrap_B": 100}
        else:
            self.experiment = {"n_full": 200_000, "n_pilot": 1000, "n_lcc": 1000,
                               "replications": 30, "bootstrap_B": 400}
        self.experiment["methods"] = ["lcc", "wcc", "cc"]
        self.mc_nodes = 20_000 if smoke else 500_000

    def prepare(self, run_dir: Path, seed: int) -> Prepared:
        from lccsub import presets

        # The smoke study uses a correctly specified population, whose
        # theta* has a closed form, so it skips the 4.2M-node solve.
        pop = presets.correct_gaussian() if self.smoke else presets.simulation1()
        config = run_dir / "study.cfg"
        config.write_text(
            _yaml_block("population", _gaussian_population(pop))
            + _yaml_block("experiment", {**self.experiment, "master_seed": seed})
        )
        # The limits are taken at the seed commit's example2 theta*, read from
        # a file: the study already times one theta* solve, and a second one
        # here would leave time for a single iteration per run.
        spec = run_dir / "example2.cfg"
        spec.write_text(_yaml_block("population", _gaussian_population(presets.example2())))
        coef = run_dir / "theta.coef"
        coef.write_text("".join(
            f"{name} {value!r}\n"
            for name, value in zip(["intercept", "x1", "x2"], EXAMPLE2_THETA_STAR)
        ))
        return Prepared(
            meta={"input_rows": self.experiment["n_full"] * self.experiment["replications"],
                  "input_bytes": config.stat().st_size + spec.stat().st_size,
                  "replications": self.experiment["replications"],
                  "mc_nodes": self.mc_nodes},
            files={"config": config, "spec": spec, "coef": coef},
        )

    def commands(self, prep: Prepared, it_dir: Path, seed: int) -> list:
        simulate = [
            "simulate", "--config", str(prep.files["config"]), "--threads", "2",
            "--seed", str(seed), "--format", "json", "--out", str(it_dir / "study.json"),
        ]
        coef = str(prep.files["coef"])
        asymptotics = [
            "asymptotics", "--spec", str(prep.files["spec"]), "--theta", coef,
            "--pilot", coef, "--c", "2", "--mc-nodes", str(self.mc_nodes),
            "--seed", str(seed), "--format", "json", "--out", str(it_dir / "limits.json"),
        ]
        return [
            Command("simulate", simulate, ["study.json"], self._check_study),
            Command("asymptotics", asymptotics, ["limits.json"], self._check_limits),
        ]

    def _check_study(self, it_dir: Path):
        problems = []
        report = _load_json(it_dir / "study.json")
        rows = {r["method"]: r for r in report["rows"]}
        if not self.smoke:
            if not rows["lcc"]["bias_sq"] < rows["cc"]["bias_sq"]:
                problems.append("lcc bias^2 not below cc bias^2")
            if not rows["lcc"]["var"] < rows["wcc"]["var"]:
                problems.append("lcc variance not below wcc variance")
        n_lcc = self.experiment["n_lcc"]
        size = rows["lcc"]["mean_subsample_size"]
        if abs(size - n_lcc) > 0.1 * n_lcc:
            problems.append(f"lcc mean subsample size {size} not within 10% of {n_lcc}")
        facts = {
            "replications": self.experiment["replications"],
            "failed_replications": int(report["n_failures"]),
            "theta_mc_se": max(report["theta_star_mc_se"]),
        }
        return problems, facts

    def _check_limits(self, it_dir: Path):
        problems = []
        report = _load_json(it_dir / "limits.json")
        theta = np.asarray(report["theta"])
        if theta.tolist() != list(EXAMPLE2_THETA_STAR):
            problems.append(f"theta {theta.tolist()} is not the one given")
        rows = report["rows"]
        abar = next(r["value"] for r in rows if r["quantity"] == "abar")
        if not 0.0 < abar < 1.0:
            problems.append(f"abar {abar} outside (0, 1)")
        k = theta.size
        for name in ("H", "Sigma"):
            mat = np.zeros((k, k))
            for r in rows:
                if r["quantity"] == name:
                    mat[r["row"], r["col"]] = r["value"]
            if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-9 * np.abs(mat).max()):
                problems.append(f"{name} not symmetric")
            elif np.linalg.eigvalsh(mat).min() <= 0.0:
                problems.append(f"{name} not positive definite")
        return problems, {"abar": abar}

    @staticmethod
    def normalize(name: str, data: bytes) -> bytes:
        # runtime_seconds is a wall time written into the report itself, the
        # one field exempt from the byte-identity contract.
        return re.sub(rb'\n *"runtime_seconds": [^\n]*', b"", data)


WORKLOADS = {cls.name: cls for cls in (SubsampleFit, ReplicationStudy)}
