"""Golden determinism regression: same seed + same trace => identical runs.

Every stochastic component (victim RNG, workload draws, price schedules) is
seeded, so two full ``SpotServeSystem`` runs with identical inputs must
produce *byte-identical* :meth:`ServingStats.summary_text` digests -- any
hidden dependence on object identity, dict ordering or wall-clock would show
up here.  The check covers both the classic single-zone paper scenario and
the new multi-zone autoscaling scenario.  A short chaos run in two
interpreters with different ``PYTHONHASHSEED`` values must also agree,
which no in-process comparison can check.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.server import SpotServeSystem
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import (
    multi_zone_fluctuating_scenario,
    stable_workload_scenario,
)


def run_single_zone():
    scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
    result = run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        scenario.trace,
        scenario.arrival_process(),
        duration=scenario.duration,
        drain_time=200.0,
        options=scenario.options(),
    )
    return result


def run_multi_zone():
    scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
    result = run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        trace=None,
        arrival_process=arrivals,
        duration=scenario.duration,
        drain_time=300.0,
        options=scenario.options(),
        zones=scenario.zones,
        allow_spot_requests=True,
    )
    return result


class TestGoldenDeterminism:
    def test_single_zone_runs_are_byte_identical(self):
        first = run_single_zone()
        second = run_single_zone()
        assert first.stats.summary_text() == second.stats.summary_text()
        assert first.total_cost == second.total_cost
        assert first.latency.mean == second.latency.mean

    def test_multi_zone_runs_are_byte_identical(self):
        first = run_multi_zone()
        second = run_multi_zone()
        assert first.stats.summary_text() == second.stats.summary_text()
        assert first.cost_by_zone == second.cost_by_zone
        assert first.latency.p99 == second.latency.p99

    def test_different_seeds_actually_diverge(self):
        # Sanity check that the digest is sensitive to the workload at all:
        # with a different seed the summaries must differ.
        base = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        other = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0, seed=base.seed + 1)
        results = [
            run_serving_experiment(
                SpotServeSystem,
                scenario.model_name,
                scenario.trace,
                scenario.arrival_process(),
                duration=scenario.duration,
                drain_time=200.0,
                options=scenario.options(),
            )
            for scenario in (base, other)
        ]
        assert results[0].stats.summary_text() != results[1].stats.summary_text()


#: Prints the sha256 of a short chaos run's extended summary.
CHAOS_DIGEST_SCRIPT = """
import hashlib
from repro.experiments.runner import run_scenario_experiment
from repro.experiments.scenarios import chaos_scenario
scenario, arrivals = chaos_scenario("OPT-6.7B", duration=300.0, target_requests=8000)
stats = run_scenario_experiment(scenario, arrivals, drain_time=100.0).stats
print(hashlib.sha256(stats.extended_summary_text().encode()).hexdigest())
"""


def test_chaos_digest_does_not_depend_on_the_hash_seed():
    # Two runs in one process share one string-hash seed, so only separate
    # interpreters can show an order that follows hashes.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", CHAOS_DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
