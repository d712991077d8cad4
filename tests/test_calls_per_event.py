"""A guard on the Python calls the per-request path makes per event.

Wall-clock guards depend on the host; a call count does not.  Each test
builds one perfbench workload at a shortened size (``serve`` over 1200
simulated seconds, ``ingest`` over 600, both seed 0), runs it under
``sys.setprofile`` and counts the ``'call'`` events whose code lies under
``src/repro``, per event the simulator dispatched.  Only ``repro`` frames
count, so stdlib differences between Python versions stay out of the
number, and the counts repeat exactly (checked under ``PYTHONHASHSEED``
0, 1 and 2).

A rise above a workload's bound in :data:`MAX_CALLS_PER_EVENT` means a
call came back into the per-event path: a helper, property or wrapper the
run loop, an arrival or a batch now goes through.  The failure message lists the most frequent
callees; ``python -m cProfile`` on the same workload shows who calls them.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cloud.provider import CloudProvider
from repro.core.server import SpotServeSystem
from repro.llm.spec import get_model
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import workloads  # noqa: E402

#: Calls into ``repro`` per dispatched event allowed on each workload: the
#: measured count plus one.  Measured 8.38 on serve and 6.35 on ingest; a
#: run loop that goes back through a pop helper and ``_fire`` adds two per
#: event and fails both.
MAX_CALLS_PER_EVENT = {"serve": 9.38, "ingest": 7.35}

#: Shortened workload sizes, in simulated seconds.
SIZES = {"serve": 1200.0, "ingest": 600.0}

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def calls_per_event(name):
    """Run workload *name* under the profiler; return calls/event and callees."""
    work = workloads.build(name, 0, SIZES[name])
    scenario = work.scenario
    assert scenario.fault_plan is None, "the guard builds no fault injector"
    sim = Simulator()
    provider = CloudProvider(
        sim, None, zones=scenario.zones, allow_spot_requests=work.allow_spot_requests
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
    callees = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_REPRO_DIR):
                callees[(os.path.basename(code.co_filename), code.co_name)] += 1

    sys.setprofile(profile)
    try:
        system.run(until=scenario.duration + work.drain_time)
    finally:
        sys.setprofile(None)
    assert sim.dispatched_events > 10_000
    return sum(callees.values()) / sim.dispatched_events, callees


@pytest.mark.parametrize("name", sorted(SIZES))
def test_calls_per_event_stay_under_the_guard(name):
    ratio, callees = calls_per_event(name)
    top = ", ".join(f"{file}:{function} {count}" for (file, function), count in callees.most_common(8))
    assert ratio <= MAX_CALLS_PER_EVENT[name], f"{name}: {ratio:.2f} calls per event ({top})"
