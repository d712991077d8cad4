"""Design-choice micro-benchmarks: device mapper and migration planner.

Two ablations that the paper motivates but reports only indirectly:

* Kuhn-Munkres optimal device mapping vs. a greedy matcher vs. an arbitrary
  placement -- measured as reused context bytes and migration volume for the
  Figure 4a reconfiguration.  "Kuhn-Munkres" is the production mapper (the
  hierarchical matching, replaced by the flat one when that reuses more);
  "Greedy" is the one flat greedy matching that Figure 9's
  "- Device Mapper" preset runs.
* Memory-optimised migration vs. the "- Migration Planner" preset's
  planner -- measured as peak receive-buffer bytes (what lets GPT-20B stay
  on 12 GPUs) and serving stall.  "memory-optimised" orders layers under
  the buffer bound and resumes serving once the cache and the first stage
  are in place; "naive order" migrates layers in naive order and stalls
  for the whole migration (no progressive resume).
"""

import pytest

from conftest import format_row, write_result
from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.core.migration import MigrationPlanner
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES
from repro.llm.spec import GPT_20B

#: Figure-reproduction benchmarks are slow; deselected from tier-1 runs.
pytestmark = pytest.mark.slow

GB = 1024 ** 3


def deploy(meta, devices, config):
    positions = mesh_positions(config.data_degree, config.pipeline_degree, config.tensor_degree)
    placement = dict(zip(devices, positions))
    for device, position in placement.items():
        meta.daemon(device).install_model_context(
            config.pipeline_degree, config.tensor_degree, position
        )
    return placement


def build_cluster(num_instances=4):
    devices = [(f"inst-{i:02d}", g) for i in range(num_instances) for g in range(4)]
    meta = MetaContextManager()
    deploy(meta, devices, ParallelConfig(1, 2, 8, 8))
    return meta, devices


def test_device_mapper_strategies(benchmark):
    def build():
        meta, devices = build_cluster()
        new = ParallelConfig(1, 3, 4, 8)
        rows = {}
        optimal = DeviceMapper(GPT_20B, use_optimal_matching=True).map_devices(meta, devices, new)
        greedy = DeviceMapper(GPT_20B, use_optimal_matching=False).map_devices(meta, devices, new)
        positions = mesh_positions(1, 3, 4)
        mapper = DeviceMapper(GPT_20B)
        lookup = mapper._weight_lookup(meta, devices, positions, new, None)
        arbitrary_reuse = mapper._placement_reuse(lookup, dict(zip(devices, positions)))
        rows["Kuhn-Munkres"] = (optimal.reused_bytes, optimal.transfer_bytes)
        # The flat greedy matching of the "- Device Mapper" preset.
        rows["Greedy"] = (greedy.reused_bytes, greedy.transfer_bytes)
        rows["Arbitrary"] = (arbitrary_reuse, optimal.required_bytes - arbitrary_reuse)
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    widths = (14, 14, 16)
    lines = [format_row(["matcher", "reused(GB)", "migrated(GB)"], widths)]
    for name, (reused, migrated) in rows.items():
        lines.append(format_row([name, reused / GB, migrated / GB], widths))
    write_result("ablation_device_mapper", lines)

    assert rows["Kuhn-Munkres"][0] >= rows["Greedy"][0] - 1e-6
    assert rows["Kuhn-Munkres"][0] >= rows["Arbitrary"][0] - 1e-6
    assert rows["Kuhn-Munkres"][1] <= rows["Arbitrary"][1] + 1e-6


def test_migration_planner_memory_bound(benchmark):
    def build():
        results = {}
        for optimized in (True, False):
            meta, devices = build_cluster()
            mapping = DeviceMapper(GPT_20B).map_devices(meta, devices, ParallelConfig(1, 3, 4, 8))
            planner = MigrationPlanner(
                GPT_20B,
                memory_optimized=optimized,
                max_buffer_bytes=DEFAULT_MIGRATION_BUFFER_BYTES,
            )
            plan = planner.plan(meta, mapping, {})
            # "naive order" is the "- Migration Planner" preset's planner:
            # naive layer order and no progressive resume.
            label = "memory-optimised" if optimized else "naive order"
            results[label] = (plan.peak_buffer_bytes, plan.stall_time, plan.total_time)
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    widths = (18, 16, 12, 12)
    lines = [format_row(["planner", "peak buffer(GB)", "stall(s)", "total(s)"], widths)]
    for name, (peak, stall, total) in results.items():
        lines.append(format_row([name, peak / GB, stall, total], widths))
    write_result("ablation_migration_planner", lines)

    assert results["memory-optimised"][0] <= results["naive order"][0] + 1e-6
    assert results["memory-optimised"][2] == pytest.approx(results["naive order"][2], rel=0.05)
