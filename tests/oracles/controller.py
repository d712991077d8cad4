"""Scalar references for the parallelization controller (Algorithm 1).

:class:`ScalarController` selects the next configuration with one
Python-level :meth:`~repro.core.controller.ParallelizationController.estimate`
per feasible configuration, which is how Algorithm 1 reads in the paper.  It
enumerates the feasible space with the nested loop of
:mod:`oracles.config` and profiles each ``(P, M, B)`` shape with the
per-token ``l_exe`` loop of :mod:`oracles.costmodel`, so nothing it decides
comes from the production cost table.  The production controller evaluates
the same filters and near-tie thresholds as whole-array numpy expressions
over that table and must pick the same winner with bit-identical floats.

:class:`MemolessController` drops the per-fleet-size sweep memo before
each proposal, so no decision it returns was built from a cached sweep.
"""

from typing import Dict, List, Optional, Tuple

from repro.core.config import ParallelConfig
from repro.core.controller import ConfigEstimate, ParallelizationController
from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH

from . import config as config_oracle
from . import costmodel as costmodel_oracle


class ScalarController(ParallelizationController):
    """Algorithm 1 as a per-configuration loop over the feasible space."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._oracle_configs: Dict[int, List[ParallelConfig]] = {}
        self._oracle_latency: Dict[Tuple[int, int, int], float] = {}

    def _static(self, config: ParallelConfig) -> Tuple[float, float]:
        shape = (config.pipeline_degree, config.tensor_degree, config.batch_size)
        latency = self._oracle_latency.get(shape)
        if latency is None:
            latency = costmodel_oracle.l_exe(
                self.latency_model,
                *shape,
                DEFAULT_INPUT_LENGTH,
                DEFAULT_OUTPUT_LENGTH,
            )
            self._oracle_latency[shape] = latency
        return latency, config.data_degree * config.batch_size / latency

    def _feasible_configs(self, num_instances: int) -> List[ParallelConfig]:
        configs = self._oracle_configs.get(num_instances)
        if configs is None:
            configs = config_oracle.feasible_configs(self.config_space, num_instances)
            self._oracle_configs[num_instances] = configs
        return configs

    def _select_best(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        estimates = [
            self.estimate(config, arrival_rate)
            for config in self._feasible_configs(max_instances)
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
    """A controller that drops its sweep memo before every proposal."""

    def propose(self, available_instances, arrival_rate, max_instances=None):
        self.invalidate()
        return super().propose(available_instances, arrival_rate, max_instances)
