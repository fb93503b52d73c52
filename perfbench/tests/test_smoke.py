"""Smoke tests: every workload runs end to end at toy sizes (--smoke).

Run with `python -m pytest perfbench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import _scipy_import_s, _self_times, tail_value  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".rows", ".passes", ".nodes", ".elements", ".iterations", ".bytes_computed")


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(workload, trace, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    metrics = result_of(workload, trace=1)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    commands = {"subsample_fit": ["cli.sample.s", "cli.fit.s"],
                "replication_study": ["cli.simulate.s", "cli.asymptotics.s"]}[workload]
    assert all(metrics[command]["value"] > 0 for command in commands)
    assert metrics["cli.import_s"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    metrics = result_of("replication_study", trace=0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in metrics.values())


def test_counts_repeat_between_traced_runs():
    first = result_of("subsample_fit", trace=1)["metrics"]
    second = result_of("subsample_fit", trace=1)["metrics"]
    counts = [name for name in first if name.endswith(COUNTS)]
    assert "fileio.stream_rows.passes" in counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["fileio.stream_rows.passes"]["value"] == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "subsample_fit", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 with children 1..4 and 3..6 in two threads: union 1..6
    spans = [
        [1, None, "p", 0.0, 10.0, 1, None],
        [2, 1, "c", 1.0, 4.0, 1, None],
        [3, 1, "c", 3.0, 6.0, 2, None],
    ]
    assert _self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}


def test_tail_value_needs_ten_samples_beyond():
    assert tail_value(range(1, 21)) == 10
    assert tail_value([1.0, 2.0, 3.0]) == 2.0


def test_scipy_import_counts_outermost_scipy_subtrees():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |     math2",
        "import time:       200 |        350 |   scipy",
        "import time:        10 |        360 | lccsub.populations",
        "import time:        40 |         40 | scipy.special",
    ]
    assert _scipy_import_s(lines) == pytest.approx(390e-6)
