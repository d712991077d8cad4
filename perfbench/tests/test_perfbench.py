"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Most tests replay shortened workloads in-process; two drive ``run.py`` end
to end on the full-size ``ingest`` and ``churn`` workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfbench.replay as replay_module
from perfbench import calibrate, reference, run, workloads
from perfbench.replay import _violations, replay
from repro.engine.pipeline import InferencePipeline

ROOT = Path(__file__).resolve().parents[2]

#: Shortened sizes: simulated seconds for serve/ingest, periods for churn.
SMALL = {"serve": 2400.0, "churn": 1, "ingest": 1200.0}


@pytest.fixture(scope="module")
def traced():
    """One traced replay per workload, shared by the checks below."""
    return {name: replay(name, 7, trace=True, size=size) for name, size in SMALL.items()}


def test_benchmark_json_is_rendered_from_the_reference():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == reference.benchmark_json()


def test_reference_is_complete_and_within_limits():
    names = [row[0] for row in reference.END_TO_END + reference.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(reference.PER_LAYER) <= 128
    assert "setup_s" in names
    bounds = {name: bound for name, _unit, _better, _clock, bound in reference.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for name, _unit, _better, clock, moves, where in reference.PER_LAYER:
        assert moves in bounds, name
        assert set(where) <= set(reference.WORKLOADS), name
        assert clock in ("wall", "sim", "count"), name


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_per_layer_metric_is_measured(traced, name):
    expected = {row[0] for row in reference.PER_LAYER} - set(run.ACROSS_REPLAYS)
    assert expected <= set(traced[name]["layers"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_add_up_to_the_run_time(traced, name):
    result = traced[name]
    layers = result["layers"]
    assert layers["trace.accounting_error_ratio"] <= reference.ACCOUNTING_TOLERANCE
    assert result["min_self_s"] >= run.MIN_SELF_S
    handlers = sum(
        layers[f"sim.engine.{event}.self_us"] * layers[f"sim.engine.{event}.events"] * 1e-6
        for event in reference.EVENT_TYPES
    )
    # Handler self times and the loop leave only the layers' own self time.
    assert handlers + layers["sim.engine.loop_self_s"] <= result["run_wall_s"] * (
        1 + reference.ACCOUNTING_TOLERANCE
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_outcome_and_reports_its_overhead(traced, name):
    plain = replay(name, 7, trace=False, size=SMALL[name])
    assert plain["sim"] == traced[name]["sim"]
    assert plain["latencies"] == traced[name]["latencies"]
    overhead = traced[name]["run_s"] / plain["run_s"]
    print(f"{name}: trace.overhead_ratio {overhead:.2f}")
    assert overhead > 0


def test_running_in_slices_changes_no_outcome(monkeypatch):
    sliced = replay("churn", 7, size=SMALL["churn"])
    monkeypatch.setattr(replay_module, "RUN_SLICES", 1)
    whole = replay("churn", 7, size=SMALL["churn"])
    assert sliced["sim"] == whole["sim"]
    assert sliced["latencies"] == whole["latencies"]


def test_calibration_scales_to_the_reference_host():
    assert calibrate.scale(calibrate.REFERENCE_S, calibrate.REFERENCE_S) == 1.0
    # A host running at half speed doubles both the run and the slices.
    assert calibrate.scale(2 * calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S) == 0.5


def test_patches_are_undone(traced):
    assert "is_busy" in InferencePipeline.__dict__
    assert InferencePipeline.is_busy.fget.__name__ == "is_busy"
    assert InferencePipeline.start_batch.__name__ == "start_batch"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_still_loads_its_layer(traced, name):
    assert run._purpose(name, traced[name]) == []


def test_purpose_check_catches_a_workload_that_changed_character(traced):
    # ingest's traced replay judged as serve: far from fully served.
    assert run._purpose("serve", traced["ingest"])
    # serve's traced replay judged as churn: the control stack is idle.
    assert run._purpose("churn", traced["serve"])


def test_correctness_gate_catches_broken_conservation():
    class Stats:
        completed_count = 5
        requests_dropped = requests_rejected = requests_shed = 0
        bytes_spilled = 10.0
        bytes_restored = 4.0
        bytes_abandoned = 1.0

    class System:
        stats = Stats()
        submitted_requests = 7

        def unfinished_request_count(self):
            return 1

        def pending_spill_bytes(self):
            return 5.0

    found = _violations(System())
    assert len(found) == 1 and found[0].startswith("request conservation")


def test_the_seed_alone_fixes_the_inputs():
    for name, size in SMALL.items():
        first = workloads.build(name, 3, size)
        again = workloads.build(name, 3, size)
        other = workloads.build(name, 4, size)
        duration = first.scenario.duration
        times = first.arrivals.arrival_times(duration)
        assert times == again.arrivals.arrival_times(duration)
        assert times != other.arrivals.arrival_times(duration)
        assert first.scenario == again.scenario


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_end_to_end_run_prints_every_metric():
    done = _run("--workload", "ingest", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert set(result["metrics"]) == {row[0] for row in reference.END_TO_END}
    assert "requests: attempted" in done.stdout


def test_traced_run_prints_every_per_layer_metric():
    done = _run("--workload", "churn", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {row[0] for row in reference.PER_LAYER}
    spans = (ROOT / ".perfbench_out" / "churn-5.spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["fields"][:2] == ["id", "name"]
    assert len(spans) > 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("--workload", "serve", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
