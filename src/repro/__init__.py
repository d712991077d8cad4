"""repro: a simulation-based reproduction of SpotServe (ASPLOS 2024).

SpotServe serves generative LLMs on cheap preemptible (spot) GPU instances by
dynamically re-parallelizing inference, migrating model/KV-cache context with
a Kuhn-Munkres device mapping and a memory-bounded progressive migration
plan, and committing decoding progress at token granularity so interrupted
requests resume instead of restarting.

The package layout follows the paper's architecture:

* :mod:`repro.sim` -- discrete-event simulation substrate.
* :mod:`repro.cloud` -- preemptible-cloud simulator (instances, traces, cost).
* :mod:`repro.llm` -- model catalog, memory accounting, analytic cost model.
* :mod:`repro.engine` -- simulated distributed inference engine.
* :mod:`repro.workload` -- request arrival processes.
* :mod:`repro.matching` -- Kuhn-Munkres bipartite matching.
* :mod:`repro.core` -- SpotServe itself: controller, device mapper, migration
  planner, stateful recovery, serving system.
* :mod:`repro.baselines` -- Rerouting, Reparallelization and on-demand-only.
* :mod:`repro.faults` -- seeded cloud-fault injection (refusals, launch
  failures, stragglers, early reclaims, degraded bandwidth).
* :mod:`repro.experiments` -- runners, metrics, scenarios and ablations.
"""

from .core.config import ParallelConfig
from .core.server import SpotServeOptions, SpotServeSystem
from .experiments.runner import ExperimentResult, run_comparison, run_serving_experiment
from .faults import FaultInjector, FaultPlan, ZoneFaultModel

__version__ = "1.0.0"

__all__ = [
    "ExperimentResult",
    "FaultInjector",
    "FaultPlan",
    "ParallelConfig",
    "SpotServeOptions",
    "SpotServeSystem",
    "ZoneFaultModel",
    "__version__",
    "run_comparison",
    "run_serving_experiment",
]
