"""Tests for the serving statistics collector."""

import pytest

from repro.core.config import ParallelConfig
from repro.core.stats import AutoscaleRecord, ReconfigurationRecord, ServingStats
from repro.workload.request import Request


def finished_request(arrival, latency):
    request = Request(arrival_time=arrival, input_tokens=8, output_tokens=4)
    request.first_start_time = arrival
    request.completion_time = arrival + latency
    return request


class TestServingStats:
    def test_record_completion_and_latencies(self):
        stats = ServingStats(system_name="test")
        stats.record_completion(finished_request(0.0, 2.0))
        stats.record_completion(finished_request(5.0, 3.0))
        assert stats.completed_count == 2
        assert stats.latencies() == pytest.approx([2.0, 3.0])

    def test_incomplete_requests_are_excluded_from_latencies(self):
        stats = ServingStats()
        stats.record_completion(Request(arrival_time=0.0, input_tokens=8, output_tokens=4))
        assert stats.latencies() == []

    def test_request_timeline_is_sorted_by_arrival(self):
        stats = ServingStats()
        stats.record_completion(finished_request(10.0, 1.0))
        stats.record_completion(finished_request(2.0, 4.0))
        timeline = stats.request_timeline()
        assert [arrival for arrival, _ in timeline] == [2.0, 10.0]

    def test_record_reconfiguration_updates_timeline_and_stall(self):
        stats = ServingStats()
        old = ParallelConfig(1, 1, 4, 2)
        new = ParallelConfig(2, 1, 4, 2)
        stats.record_reconfiguration(
            ReconfigurationRecord(
                time=12.0,
                old_config=old,
                new_config=new,
                reason="preemption",
                stall_time=3.5,
            )
        )
        stats.record_reconfiguration(
            ReconfigurationRecord(
                time=40.0,
                old_config=new,
                new_config=old,
                reason="workload",
                stall_time=1.5,
            )
        )
        assert stats.total_stall_time == pytest.approx(5.0)
        assert [time for time, _ in stats.config_timeline] == [12.0, 40.0]
        assert stats.config_timeline[0][1] == new

    def test_record_autoscale(self):
        stats = ServingStats()
        record = AutoscaleRecord(
            time=30.0,
            reason="scale up",
            acquired={"us-east-1a": 2},
            released={},
            fleet_before=4,
        )
        stats.record_autoscale(record)
        assert stats.autoscale_actions == [record]
        assert record.delta == 2

    def test_autoscale_delta_counts_releases(self):
        record = AutoscaleRecord(
            time=0.0,
            reason="scale down",
            acquired={"a": 1},
            released={"b": 3},
        )
        assert record.delta == -2


class TestSummary:
    def _populated_stats(self):
        stats = ServingStats(system_name="SpotServe")
        stats.tokens_generated = 128
        stats.preemption_notices = 2
        stats.record_completion(finished_request(1.0, 2.5))
        stats.record_config(0.0, ParallelConfig(2, 1, 4, 2))
        stats.record_autoscale(
            AutoscaleRecord(time=30.0, reason="r", acquired={"z": 1})
        )
        return stats

    def test_summary_contents(self):
        summary = self._populated_stats().summary()
        assert summary["system"] == "SpotServe"
        assert summary["completed"] == 1
        assert summary["tokens_generated"] == 128
        assert summary["autoscale_action_count"] == 1
        assert summary["autoscale_net_delta"] == 1
        assert summary["config_timeline"] == [(0.0, "(D=2, P=1, M=4, B=2)")]

    def test_summary_text_is_deterministic(self):
        a = self._populated_stats().summary_text()
        b = self._populated_stats().summary_text()
        assert a == b
        assert "completed=1" in a

    def test_summary_text_detects_divergence(self):
        a = self._populated_stats()
        b = self._populated_stats()
        b.tokens_generated += 1
        assert a.summary_text() != b.summary_text()


class TestCounters:
    def test_groups_cover_every_counter_in_declaration_order(self):
        stats = ServingStats()
        groups = ("digest", "conservation", "faults", "spill")
        assert [name for group in groups for name in stats.counters(group)] == list(
            stats.counters()
        )
        assert list(stats.extended_summary()) == [
            *stats.summary(),
            *stats.counters("conservation", "faults", "spill"),
        ]

    def test_an_unknown_group_is_refused(self):
        with pytest.raises(ValueError, match="spil"):
            ServingStats().counters("faults", "spil")


class TestIncrementalAggregates:
    def test_unretained_stats_match_retained_metrics(self):
        retained = ServingStats(system_name="s", retain_requests=True)
        unretained = ServingStats(system_name="s", retain_requests=False)
        for arrival, latency in [(0.0, 2.0), (5.0, 3.0), (1.0, 7.5), (9.0, 0.5)]:
            retained.record_completion(finished_request(arrival, latency))
            unretained.record_completion(finished_request(arrival, latency))
        assert unretained.completed_requests == []
        assert retained.completed_count == unretained.completed_count == 4
        assert retained.latencies() == unretained.latencies()
        assert retained.request_timeline() == unretained.request_timeline()
        assert retained.summary_text() == unretained.summary_text()

    def test_latency_sum_matches_sequential_sum_bitwise(self):
        # Zero arrivals so each request's stored latency is bit-exact, then
        # the streaming accumulator must equal left-to-right sum() exactly.
        stats = ServingStats()
        latencies = [0.1, 0.2, 0.30000000000000004, 7.7, 1e-12]
        for latency in latencies:
            stats.record_completion(finished_request(0.0, latency))
        assert stats.summary()["latency_sum"] == sum(latencies)
        assert stats.summary()["latency_max"] == max(latencies)

    def test_incomplete_request_counts_but_adds_no_latency(self):
        stats = ServingStats(retain_requests=False)
        stats.record_completion(Request(arrival_time=0.0, input_tokens=8, output_tokens=4))
        assert stats.completed_count == 1
        assert stats.latencies() == []
        assert stats.summary()["latency_sum"] == 0
