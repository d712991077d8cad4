"""SpotServe core: controller, autoscaler, admission, mapper, migration, server."""

from .admission import (
    AdmissionPolicy,
    AdmissionSignal,
    DeadlineAwarePolicy,
    QueueCapPolicy,
    TokenBucketPolicy,
    make_admission_policy,
)
from .autoscaler import (
    Autoscaler,
    AutoscaleDecision,
    AutoscaleSignal,
    CostAwarePolicy,
    QueueLatencyPolicy,
    TargetUtilizationPolicy,
    ZoneView,
    make_autoscaler,
    make_policy,
)
from .config import ConfigurationSpace, ParallelConfig
from .controller import (
    ConfigEstimate,
    OptimizerDecision,
    ParallelizationController,
)
from .device_mapper import DeviceMapper, DeviceMapping
from .interruption import InterruptionArrangement, InterruptionArranger
from .migration import MigrationPlan, MigrationPlanner, MigrationStep
from .server import ServingSystemBase, SpotServeOptions, SpotServeSystem
from .stats import AutoscaleRecord, ReconfigurationRecord, ServingStats
from .tenancy import (
    MultiTenantSystem,
    TenantDemand,
    TenantSpec,
    partition_fleet,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionSignal",
    "DeadlineAwarePolicy",
    "QueueCapPolicy",
    "TokenBucketPolicy",
    "make_admission_policy",
    "AutoscaleDecision",
    "AutoscaleRecord",
    "AutoscaleSignal",
    "Autoscaler",
    "ConfigEstimate",
    "CostAwarePolicy",
    "QueueLatencyPolicy",
    "TargetUtilizationPolicy",
    "ZoneView",
    "make_autoscaler",
    "make_policy",
    "ConfigurationSpace",
    "DeviceMapper",
    "DeviceMapping",
    "InterruptionArrangement",
    "InterruptionArranger",
    "MigrationPlan",
    "MigrationPlanner",
    "MigrationStep",
    "OptimizerDecision",
    "ParallelConfig",
    "ParallelizationController",
    "ReconfigurationRecord",
    "ServingStats",
    "ServingSystemBase",
    "SpotServeOptions",
    "SpotServeSystem",
    "MultiTenantSystem",
    "TenantDemand",
    "TenantSpec",
    "partition_fleet",
]
