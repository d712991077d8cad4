"""``benchmarks/perf/run_perf.py``: ``measure()`` and its command line.

``measure()`` times the control stack with perfbench's tracer, wrapped
around four class attributes for the length of one call, and counts the
device mapper's Kuhn-Munkres solves.  These tests
drive it on the ``small`` scenario (about 0.1 s of wall time per call).
"""

import pytest

import repro.core.device_mapper as device_mapper_module
from repro.core.controller import ParallelizationController
from repro.core.device_mapper import DeviceMapper
from repro.core.migration import MigrationPlanner
from repro.sim.engine import Simulator

#: The attributes ``measure()`` wraps while a scenario runs: four class
#: attributes and the solver the device mapper calls.
WRAPPED = (
    (ParallelizationController, "propose"),
    (DeviceMapper, "map_devices"),
    (MigrationPlanner, "plan"),
    (Simulator, "run"),
    (device_mapper_module, "maximum_weight_assignment"),
)


def _class_attributes():
    return [owner.__dict__[attr] for owner, attr in WRAPPED]


class _Boom(Exception):
    pass


def _raise_boom(_event):
    raise _Boom


def _scenario_that_raises():
    """Fails inside the wrapped ``Simulator.run``."""
    simulator = Simulator()
    simulator.schedule_at(1.0, callback=_raise_boom)
    simulator.run(until=2.0)


def _scenario_that_never_proposes():
    Simulator().run(until=1.0)


@pytest.fixture(scope="module")
def small(run_perf):
    """The class attributes before, and two ``measure("small")`` rows."""
    before = _class_attributes()
    return before, [run_perf.measure("small") for _ in range(2)]


def _calls(report):
    return {phase: data["calls"] for phase, data in report["phases"].items()}


class TestMeasure:
    def test_counts_every_control_call(self, small):
        _before, (report, _again) = small
        calls = _calls(report)
        assert report["controller_invocations"] == calls["propose"] > 0
        assert calls["map"] == calls["plan"] > 0
        assert calls["simulate"] == 1
        assert report["hungarian_solves"] > 0
        assert "hungarian_solves" not in report["phases"]

    def test_exclusive_columns_add_up_to_wall(self, small):
        _before, reports = small
        for report in reports:
            parts = report["setup_s"] + report["simulate_self_s"] + report["control_s"]
            assert parts == pytest.approx(report["wall_s"], rel=0.02)
            assert report["accounting_error_ratio"] <= 0.02
            assert report["simulate_self_s"] < report["simulate_s"]

    def test_two_calls_in_one_process_count_the_same(self, small):
        _before, (first, second) = small
        assert _calls(first) == _calls(second)
        for key in (
            "controller_invocations",
            "hungarian_solves",
            "submitted_requests",
            "dispatched_events",
        ):
            assert first[key] == second[key]

    def test_rows_report_work_done(self, small):
        _before, (report, _again) = small
        assert report["served_fraction"] == pytest.approx(
            report["completed_requests"] / report["submitted_requests"], abs=1e-4
        )
        assert report["goodput_tok_per_sim_s"] > 0
        assert 0 < report["latency_p50_s"] <= report["latency_p99_s"]

    def test_patches_are_undone_after_a_normal_return(self, small):
        before, _reports = small
        assert all(a is b for a, b in zip(_class_attributes(), before))

    def test_patches_are_undone_after_a_scenario_raises(self, run_perf, monkeypatch):
        before = _class_attributes()
        monkeypatch.setitem(run_perf.SCENARIOS, "raises", _scenario_that_raises)
        with pytest.raises(_Boom):
            run_perf.measure("raises")
        assert all(a is b for a, b in zip(_class_attributes(), before))

    def test_a_scenario_that_never_proposes_fails_loudly(self, run_perf, monkeypatch):
        monkeypatch.setitem(run_perf.SCENARIOS, "idle", _scenario_that_never_proposes)
        with pytest.raises(RuntimeError, match="propose"):
            run_perf.measure("idle")


class TestCommandLine:
    def test_profile_with_check_is_rejected(self, run_perf, tmp_path):
        """cProfile's overhead would eat the --check allowance."""
        output = tmp_path / "bench.json"
        argv = [
            "--scenario",
            "small",
            "--profile",
            "--check",
            str(run_perf.REPO_ROOT / "benchmarks" / "perf" / "baseline.json"),
            "--output",
            str(output),
        ]
        with pytest.raises(SystemExit) as exit_info:
            run_perf.main(argv)
        assert exit_info.value.code == 2
        assert not output.exists()
