"""Scalar references for the parallelization controller (Algorithm 1).

:class:`ScalarController` selects the next configuration with one
Python-level :meth:`~repro.core.controller.ParallelizationController.estimate`
per feasible configuration, which is how Algorithm 1 reads in the paper.
The production controller evaluates the same filters and near-tie
thresholds as whole-array numpy expressions and must pick the same winner
with bit-identical floats.

:class:`MemolessController` drops every memo before each call, so nothing
it returns was ever served from a cache.
"""

from typing import Optional, Tuple

from repro.core.controller import ConfigEstimate, ParallelizationController


class ScalarController(ParallelizationController):
    """Algorithm 1 as a per-configuration loop over the feasible space."""

    def _select_best(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        estimates = [
            self.estimate(config, arrival_rate)
            for config in self.config_space.feasible_configs(max_instances)
        ]
        reachable = [est for est in estimates if est.execution_latency != float("inf")]
        if not reachable:
            return None
        # Lines 2-3: configurations that keep up with the arrival rate.
        sustaining = [
            est
            for est in reachable
            if est.throughput >= arrival_rate
            and est.meets_rate
            and (self.slo_latency is None or est.request_latency <= self.slo_latency)
        ]
        if sustaining:
            return self._pick_lowest_latency(sustaining), "latency"
        # Line 5: maximise throughput over every feasible configuration.
        return self._pick_highest_throughput(estimates), "throughput"


class MemolessController(ParallelizationController):
    """A controller that invalidates all of its memos before every call."""

    def estimate(self, config, arrival_rate):
        self.invalidate()
        return super().estimate(config, arrival_rate)

    def propose(self, available_instances, arrival_rate, max_instances=None):
        self.invalidate()
        return super().propose(available_instances, arrival_rate, max_instances)
