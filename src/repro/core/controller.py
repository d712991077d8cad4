"""Parallelization controller: the adaptive configuration optimizer.

This is Algorithm 1 of the paper.  Given the number of available instances
``N_t`` (instances in their grace period excluded, newly allocated instances
included) and the observed request arrival rate ``alpha_t``, the optimizer
selects the next parallel configuration ``C_{t+1}``:

* if some configuration can sustain the arrival rate (``phi(C) >= alpha_t``)
  and the cloud can provide enough instances for it, pick the one with the
  smallest estimated end-to-end request latency ``l_req(C)`` -- among
  near-ties the cheaper (fewer instances) configuration wins;
* otherwise pick the configuration that maximises throughput on the
  instances at hand;
* the difference between the chosen configuration's instance requirement and
  ``N_t`` is returned so the instance manager can allocate (on-demand and
  spot together) or release (on-demand first) instances.

``l_req`` is estimated as the execution latency from the offline cost table
(built once from :meth:`~repro.llm.costmodel.LatencyModel.l_exe_many`)
plus a simple queueing/batch-formation term, mirroring the paper's
decomposition ``l_req = l_sch + l_exe``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..llm.costmodel import LatencyModel
from .config import ConfigurationSpace, ParallelConfig

#: Two candidate latencies within this relative margin are treated as ties,
#: letting the cheaper configuration win (Section 3.2).
LATENCY_TIE_MARGIN = 0.05


@dataclass(frozen=True)
class ConfigEstimate:
    """Cost-model estimates for one candidate configuration."""

    config: ParallelConfig
    execution_latency: float
    request_latency: float
    throughput: float
    num_instances: int

    @property
    def meets_rate(self) -> bool:
        """Whether this configuration can keep up with the arrival rate."""
        return self.request_latency != float("inf")


@dataclass(frozen=True)
class OptimizerDecision:
    """Outcome of one optimizer invocation."""

    config: ParallelConfig
    estimate: ConfigEstimate
    instance_delta: int
    objective: str  # "latency" (line 3) or "throughput" (line 5)


class ParallelizationController:
    """Adaptive configuration optimizer (Algorithm 1)."""

    def __init__(
        self,
        config_space: ConfigurationSpace,
        latency_model: LatencyModel,
        slo_latency: Optional[float] = None,
    ) -> None:
        self.config_space = config_space
        self.latency_model = latency_model
        self.slo_latency = slo_latency
        #: Per-fleet-size slices of the cost table backing the vectorized
        #: sweep: (rows, exec latency, throughput, batch, data degree).
        self._vector_memo: Dict[int, Tuple] = {}
        # The offline cost table, built once: l_exe per (P, M, B) shape of
        # the space at the paper's sequence lengths, broadcast to the
        # space's rows, and throughput phi(C) = D * B / l_exe per row (inf
        # where l_exe <= 0).
        shape_latency = latency_model.l_exe_many(config_space.shapes)
        self._shape_latency: Dict[Tuple[int, int, int], float] = dict(
            zip(config_space.shapes, shape_latency.tolist())
        )
        latency = shape_latency[config_space.row_shape]
        self._exec_latency = latency
        with np.errstate(divide="ignore"):
            self._throughput = np.where(
                latency > 0,
                (config_space.row_data_degree * config_space.row_batch_size) / latency,
                float("inf"),
            )

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the memoised per-fleet-size sweeps (not the cost table)."""
        self._vector_memo.clear()

    def estimate(self, config: ParallelConfig, arrival_rate: float) -> ConfigEstimate:
        """Estimate execution latency, request latency and throughput of *config*."""
        execution_latency, throughput = self._static(config)
        return ConfigEstimate(
            config=config,
            execution_latency=execution_latency,
            request_latency=self._request_latency(
                execution_latency, throughput, config, arrival_rate
            ),
            throughput=throughput,
            num_instances=config.num_instances(self.config_space.gpus_per_instance),
        )

    def _static(self, config: ParallelConfig) -> Tuple[float, float]:
        """Rate-independent ``(execution latency, throughput)`` of *config*.

        Read from the cost table by the config's ``(P, M, B)`` shape, with
        the throughput column's operations.  Every config this controller
        estimates comes from its own space, so a shape outside the table
        raises ``KeyError``.
        """
        shape = (config.pipeline_degree, config.tensor_degree, config.batch_size)
        latency = self._shape_latency[shape]
        if latency <= 0:
            return latency, float("inf")
        return latency, config.data_degree * config.batch_size / latency

    def _request_latency(
        self,
        execution_latency: float,
        throughput: float,
        config: ParallelConfig,
        arrival_rate: float,
    ) -> float:
        """``l_req = l_exe + l_sch`` with a simple queueing model for ``l_sch``."""
        if arrival_rate <= 0:
            return execution_latency
        utilisation = arrival_rate / throughput if throughput > 0 else float("inf")
        if utilisation >= 1.0:
            return float("inf")
        # Average wait to fill a batch of B requests at the arrival rate.
        batch_wait = (config.batch_size - 1) / (2.0 * arrival_rate)
        # M/D/c-style queueing delay grows sharply as utilisation approaches 1.
        queue_wait = (
            utilisation
            / (1.0 - utilisation)
            * execution_latency
            / (2.0 * config.data_degree)
        )
        return execution_latency + batch_wait + queue_wait

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def propose(
        self,
        available_instances: int,
        arrival_rate: float,
        max_instances: Optional[int] = None,
    ) -> Optional[OptimizerDecision]:
        """Select ``C_{t+1}`` for ``N_t = available_instances`` and ``alpha_t``.

        ``max_instances`` bounds how many instances the cloud could provide in
        total (``N_t`` plus whatever could still be allocated); it defaults to
        ``N_t`` which models a spot-only deployment that cannot grow on
        demand.  Returns ``None`` when no feasible configuration exists at all
        (e.g. zero instances).
        """
        if max_instances is None:
            max_instances = available_instances
        max_instances = max(max_instances, available_instances)
        selected = self._select_best(max_instances, arrival_rate)
        if selected is None:
            return None
        best, objective = selected
        return OptimizerDecision(
            config=best.config,
            estimate=best,
            instance_delta=best.num_instances - available_instances,
            objective=objective,
        )

    # ------------------------------------------------------------------
    # Vectorized propose sweep
    # ------------------------------------------------------------------
    def _static_vectors(self, num_instances: int):
        """Rate-independent columns of a fleet size's feasible space.

        Returns ``(rows, exec_latency, throughput, batch_size,
        data_degree)``: the configuration-space rows that fit on
        *num_instances* instances, in the ``feasible_configs`` order the
        tie-breaking sorts rely on, and the cost table's columns sliced to
        them.  Cached per fleet size.
        """
        cached = self._vector_memo.get(num_instances)
        if cached is not None:
            return cached
        space = self.config_space
        rows = space.feasible_rows(num_instances)
        vectors = (
            rows,
            self._exec_latency[rows],
            self._throughput[rows],
            space.row_batch_size[rows],
            space.row_data_degree[rows],
        )
        self._vector_memo[num_instances] = vectors
        return vectors

    def _vector_request_latency(self, vectors, arrival_rate: float):
        """``l_req`` for every feasible config at once (column vector).

        Replicates :meth:`_request_latency` operation for operation --
        identical expression ordering on IEEE-754 doubles -- so every
        element equals the scalar result bit for bit.
        """
        _, exec_latency, throughput, batch, data_degree = vectors
        if arrival_rate <= 0:
            return exec_latency.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            utilisation = np.where(
                throughput > 0, arrival_rate / throughput, float("inf")
            )
            result = np.full_like(exec_latency, float("inf"))
            ok = utilisation < 1.0
            batch_wait = (batch[ok] - 1) / (2.0 * arrival_rate)
            queue_wait = (
                utilisation[ok]
                / (1.0 - utilisation[ok])
                * exec_latency[ok]
                / (2.0 * data_degree[ok])
            )
            result[ok] = exec_latency[ok] + batch_wait + queue_wait
        return result

    def _select_best(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        """Pick Algorithm 1's winning configuration and its objective.

        The heavy per-config work (request-latency evaluation, the
        sustaining filter, the near-tie thresholds) runs as whole-array
        numpy expressions over the feasible space; only the handful of
        near-tie contenders are materialised as :class:`ConfigEstimate`
        objects and handed to the tie-breaking sorts, in enumeration order.
        ``tests/test_controller_vectorized.py`` pins the winner and its
        floats bit for bit against the scalar per-config loop in
        ``tests/oracles/controller.py``.
        """
        vectors = self._static_vectors(max_instances)
        rows, exec_latency, throughput, _, _ = vectors
        inf = float("inf")
        reachable = exec_latency != inf
        if not reachable.any():
            return None
        request_latency = self._vector_request_latency(vectors, arrival_rate)
        # Lines 2-3: configurations that keep up with the arrival rate.
        sustaining = reachable & (throughput >= arrival_rate) & (request_latency != inf)
        if self.slo_latency is not None:
            sustaining &= request_latency <= self.slo_latency
        if sustaining.any():
            best_latency = request_latency[sustaining].min()
            threshold = best_latency * (1.0 + LATENCY_TIE_MARGIN)
            contender_idx = np.nonzero(sustaining & (request_latency <= threshold))[0]
            contenders = [
                self.estimate(self.config_space.config_at(row), arrival_rate)
                for row in rows[contender_idx]
            ]
            return self._pick_lowest_latency(contenders), "latency"
        # Line 5: no reachable configuration keeps up with the demand, so
        # maximise throughput.  When the deployment may grow (on-demand
        # mixing), the maximisation considers the larger fleet and the
        # resulting positive delta triggers an allocation (lines 6-8);
        # otherwise it is confined to the instances at hand.
        best_throughput = throughput.max()
        threshold = best_throughput * (1.0 - LATENCY_TIE_MARGIN)
        contender_idx = np.nonzero(throughput >= threshold)[0]
        contenders = [
            self.estimate(self.config_space.config_at(row), arrival_rate)
            for row in rows[contender_idx]
        ]
        return self._pick_highest_throughput(contenders), "throughput"

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pick_lowest_latency(self, estimates: Sequence[ConfigEstimate]) -> ConfigEstimate:
        """Lowest request latency; near-ties resolved by monetary cost then GPUs."""
        best_latency = min(est.request_latency for est in estimates)
        threshold = best_latency * (1.0 + LATENCY_TIE_MARGIN)
        contenders = [est for est in estimates if est.request_latency <= threshold]
        contenders.sort(
            key=lambda est: (
                est.num_instances,
                est.request_latency,
                est.config.num_gpus,
                est.config.without_batch(),
            )
        )
        return contenders[0]

    def _pick_highest_throughput(self, estimates: Sequence[ConfigEstimate]) -> ConfigEstimate:
        """Highest throughput; ties resolved by lower execution latency and cost."""
        best_throughput = max(est.throughput for est in estimates)
        threshold = best_throughput * (1.0 - LATENCY_TIE_MARGIN)
        contenders = [est for est in estimates if est.throughput >= threshold]
        contenders.sort(
            key=lambda est: (
                est.execution_latency,
                est.num_instances,
                est.config.without_batch(),
            )
        )
        return contenders[0]
