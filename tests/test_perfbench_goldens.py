"""Readable goldens: perfbench's three workloads, shortened, as summary text.

Each run is built from ``perfbench.workloads`` at seed 0 and wired as
``perfbench/replay.py`` wires it: ``serve`` over 1200 simulated seconds,
``ingest`` over 600, and ``churn`` over one chaos period with its fault
plan and offload tier.  Its ``extended_summary_text()`` must equal
``tests/goldens/perfbench_<workload>.txt`` line for line, so a failure
shows the lines that moved.  The text is the same under
``PYTHONHASHSEED`` 0, 1 and 2.
"""

import sys
from pathlib import Path

import pytest

from repro.cloud.provider import CloudProvider
from repro.core.server import SpotServeSystem
from repro.faults.injector import FaultInjector
from repro.llm.spec import get_model
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import workloads  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: Workload sizes: simulated seconds for serve and ingest, chaos periods for churn.
SIZES = {"serve": 1200.0, "ingest": 600.0, "churn": 1}


def summary_text(name):
    """``extended_summary_text()`` of workload *name*, seed 0, at its golden size."""
    work = workloads.build(name, 0, SIZES[name])
    scenario = work.scenario
    sim = Simulator()
    plan = scenario.fault_plan
    provider = CloudProvider(
        sim,
        None,
        zones=scenario.zones,
        allow_spot_requests=work.allow_spot_requests,
        fault_injector=FaultInjector(plan) if plan is not None else None,
    )
    arrivals = work.arrivals.count_arrivals(scenario.duration)
    system = SpotServeSystem(
        sim,
        provider,
        get_model(scenario.model_name),
        options=scenario.options(),
        initial_arrival_rate=max(arrivals / max(scenario.duration, 1.0), 1e-3),
    )
    system.submit_arrival_process(work.arrivals, scenario.duration)
    system.initialize()
    return system.run(until=scenario.duration + work.drain_time).extended_summary_text()


@pytest.mark.parametrize("name", sorted(SIZES))
def test_summary_matches_the_golden(name):
    golden = (GOLDENS / f"perfbench_{name}.txt").read_text(encoding="utf-8")
    assert summary_text(name) + "\n" == golden
