"""Full-scale headline study: n = 10^6, 1000 replications (about 5 min).

Not part of the default suite; opt in with LCCSUB_RUN_FULL_TABLE2=1.
Checks the published bias^2/variance values within three bootstrap SEs.
"""

import os

import pytest

from lccsub.experiments import run_experiment
from lccsub.fileio import load_config_file, parse_experiment, parse_population
from lccsub.populations import population_theta_star

pytestmark = pytest.mark.skipif(
    not os.environ.get("LCCSUB_RUN_FULL_TABLE2"),
    reason="long-running; set LCCSUB_RUN_FULL_TABLE2=1 to enable",
)

TARGETS = {
    "lcc": {"bias_sq": 0.0049, "var": 0.025},
    "wcc": {"bias_sq": 0.023, "var": 0.16},
    "cc": {"bias_sq": 0.15, "var": 0.043},
}


def test_full_scale_simulation1():
    raw = load_config_file("configs/sim1.cfg")
    spec = parse_population(raw["population"])
    config = parse_experiment(raw["experiment"], spec)
    rep = run_experiment(config, theta_star=population_theta_star(spec))
    for method, targets in TARGETS.items():
        m = rep.methods[method]
        for metric, target in targets.items():
            value = getattr(m, metric)
            se = getattr(m, f"{metric}_se")
            print(f"{method} {metric}: {value:.4f} (se {se:.5f}) vs {target}")
            assert abs(value - target) <= 3 * se + 0.1 * target
