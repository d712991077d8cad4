"""A guard on the Python calls the serving path makes per submitted request.

Wall-clock guards depend on the host; a call count does not.  Each test
builds one perfbench workload at a shortened size (``serve`` over 1200
simulated seconds, ``ingest`` over 600, both seed 0), runs it under
``sys.setprofile`` and counts the ``'call'`` events whose code lies under
``src/repro``, per request the system was submitted.  Only ``repro``
frames count, so stdlib differences between Python versions stay out of
the number, and the counts repeat exactly (checked under
``PYTHONHASHSEED`` 0, 1 and 2).

The count is per request, not per dispatched event, because one event can
carry many requests: between two control events the serving system takes
in the stream's arrivals and its batches' completions without events of
their own.  Firing each of them as an event again raises both counts.

A rise above a workload's bound in :data:`MAX_CALLS_PER_REQUEST` means a
call came back into the per-request path: a helper, property or wrapper
the run loop, an arrival or a batch now goes through.  The failure
message lists the most frequent callees; ``python -m cProfile`` on the
same workload shows who calls them.

The same serve run also counts the cost model's memo lookups (the hits
and misses of ``LatencyModel.cache_info()``) per started batch.  A
pipeline times its batches from its own table, so only a table miss
looks up; a rise above :data:`MAX_COST_MODEL_LOOKUPS_PER_BATCH` means a
started batch calls the cost model again.  The lookups go through C-level
memo wrappers, which the call count does not see.
"""

import os
import sys
from collections import Counter
from functools import lru_cache
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

#: Calls into ``repro`` per submitted request allowed on each workload.
#: Measured 5.74 on serve and 1.52 on ingest; each bound is the measure
#: plus one half, so one call per request coming back fails it.  Serve
#: read 6.06 while serve's plans priced every transfer through Python
#: helpers (``transfer_time``, ``is_noop``, ``is_local``,
#: ``is_cross_zone``) and built each ``Transfer`` through a generated
#: ``__init__``, and 6.24 while the migration planner ranked its holders
#: per layer.
#: They read 8.22 and 2.75 while ``next_batch`` built each taken
#: arrival's ``Request`` through the class and the Gamma stream stepped a
#: generator per arrival; the class call alone reads 7.05 on serve, and
#: the generator alone 2.52 on ingest.  They read 10.32 and 2.84 while
#: every completion was an event, 12.02 and 6.55 while every arrival was
#: an event and every completion called ``dispatch``, and 3.60 on ingest
#: while each arrival taken in built its ``Request`` at once.
MAX_CALLS_PER_REQUEST = {"serve": 6.24, "ingest": 2.02}

#: Cost-model memo lookups per started batch allowed on serve.  Measured
#: 0.08 (the pipelines' table misses); 2.01 while every started batch
#: asked the memo for its decode iteration and prefill times.
MAX_COST_MODEL_LOOKUPS_PER_BATCH = 0.5

#: Shortened workload sizes, in simulated seconds.
SIZES = {"serve": 1200.0, "ingest": 600.0}

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


@lru_cache(maxsize=None)
def profiled_run(name):
    """Run workload *name* under the profiler; return the system and its callees."""
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
    assert system.submitted_requests > 10_000
    return system, callees


def calls_per_request(name):
    """Calls into ``repro`` per submitted request on workload *name*, and the callees."""
    system, callees = profiled_run(name)
    return sum(callees.values()) / system.submitted_requests, callees


@pytest.mark.parametrize("name", sorted(SIZES))
def test_calls_per_request_stay_under_the_guard(name):
    ratio, callees = calls_per_request(name)
    top = ", ".join(f"{file}:{function} {count}" for (file, function), count in callees.most_common(8))
    assert ratio <= MAX_CALLS_PER_REQUEST[name], f"{name}: {ratio:.2f} calls per request ({top})"


def test_started_batches_time_themselves_without_the_cost_model():
    system, callees = profiled_run("serve")
    lookups = system.latency_model.cache_info()
    batches = callees[("pipeline.py", "start_batch")]
    assert batches > 5_000
    ratio = sum(hits + misses for hits, misses in lookups.values()) / batches
    assert ratio <= MAX_COST_MODEL_LOOKUPS_PER_BATCH, (
        f"serve: {ratio:.2f} cost-model lookups per started batch ({lookups})"
    )
