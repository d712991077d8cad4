"""Tiered KV-cache offload in the migration planner, pinned four ways.

The host/object-storage spill tier rests on four claims, each pinned here:

* **Differential**: with an infinite-bandwidth, zero-latency tier the
  derived tiered plans carry the byte-identical transfer skeleton (steps,
  ``Transfer`` content and ordering, layer order, byte totals) of the
  scalar GPU-to-GPU reference plans over seeded fleet-churn round
  chains -- the tier changes *transport*, never *what moves where*; and a
  uselessly slow tier (1 B/s) reproduces the tier-less run's legacy
  ``summary_text()`` byte-for-byte.
* **Properties**: spill is chosen iff the direct plan misses the merged
  grace deadline under the active bandwidth factor; a chosen plan's
  source-side ``window_time`` never exceeds the deadline when any feasible
  tier split exists; derivation is deterministic and monotone in the
  window.
* **Conservation**: ``bytes_spilled == bytes_restored + bytes_abandoned +
  pending_spill_bytes()`` at every reconfiguration / completion /
  preemption-final probe under randomized fault mixes, collapsing to the
  exact three-term equation once drained; the new counters appear in
  ``extended_summary_text()`` only, and both legacy golden digests stay
  byte-identical with a *counting* tier installed (non-vacuously: its
  spill/restore pricing counters move the moment a deadline miss
  exercises it).
* **Tooling**: the ``tiered_offload`` scenario is wired through
  ``run_perf.py --check`` (baseline entry + fail/pass/skip guard
  behavior), the CI perf-smoke matrix and the policy benchmark, and the
  ``_drain_deferred`` all-deferred dead-column guard holds with a
  tier configured.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud.trace import TraceEvent, TraceEventKind
from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.core.migration import MigrationPlanner, MigrationStep
from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.core.stats import ServingStats
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.experiments.policy_bench import BENCH_SCENARIOS, build_cell, result_row
from repro.experiments.runner import run_scenario_experiment, run_serving_experiment
from repro.experiments.scenarios import (
    TIERED_OFFLOAD_SEED,
    TIERED_OFFLOAD_TIER,
    multi_zone_fluctuating_scenario,
    stable_workload_scenario,
    tiered_offload_fault_plan,
    tiered_offload_market,
    tiered_offload_scenario,
)
from repro.faults.injector import FaultPlan, ZoneFaultModel
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.sim.network import NetworkModel, OffloadTierSpec, Transfer

from oracles.migration import ReferenceMigrationPlanner

REPO_ROOT = Path(__file__).resolve().parents[1]

GB = 1024 ** 3

#: Unit-test tier: fast enough that spilling beats the direct GPU-to-GPU
#: path on the small planner harness below (where direct bandwidth is not
#: degraded), with a tiny but non-zero latency so restore_time stays
#: observable.  The *scenario* tests use the realistic TIERED_OFFLOAD_TIER.
FAST_TIER = OffloadTierSpec(
    spill_bandwidth=1e6 * GB, restore_bandwidth=2e6 * GB, per_spill_latency=1e-3
)

#: The two legacy golden digests (recorded on PR 2); the tiered-offload
#: hooks must keep both byte-identical whenever no tier is configured, and
#: -- pinned below with a counting tier model -- even when a tier *is*
#: configured but never consulted.
SINGLE_ZONE_SHA256 = "13bd9e142347b849dcba2c5f52829a5ca9c7638ccb40c83512c45d80ce4d64b5"
MULTI_ZONE_SHA256 = "33c8a35b9b2764488dda4379defb50adea6283cafdcfed7618b22167ecc8502c"

#: The five counters the tier adds; extended-summary-only by contract.
SPILL_COUNTERS = (
    "bytes_spilled",
    "bytes_restored",
    "bytes_abandoned",
    "restores",
    "spill_fallbacks",
)


def devices_for(num_instances, gpus_per_instance=4, prefix="inst"):
    return [
        (f"{prefix}-{i:02d}", g)
        for i in range(num_instances)
        for g in range(gpus_per_instance)
    ]


def installed_transition(model=GPT_20B, num_instances=6):
    """A deterministic stateful fleet transition with a non-trivial plan."""
    meta = MetaContextManager()
    devices = devices_for(num_instances)
    old = ParallelConfig(1, 2, 8, 8)
    positions = mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
    for device, position in zip(devices, positions):
        meta.daemon(device).install_model_context(
            old.pipeline_degree, old.tensor_degree, position
        )
    new = ParallelConfig(1, 3, 4, 8)
    mapping = DeviceMapper(model).map_devices(meta, devices, new)
    return meta, devices, mapping


def random_fleet_state(rng, model):
    """Random meta-context state, mirroring the planner fast-path harness."""
    meta = MetaContextManager()
    n_instances = int(rng.integers(2, 9))
    devices = devices_for(n_instances)
    old = ParallelConfig(
        int(rng.choice([1, 2])),
        int(rng.choice([1, 2, 3])),
        int(rng.choice([2, 4, 8])),
        8,
    )
    positions = mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
    for device, position in zip(devices, positions):
        if rng.random() < 0.8:
            meta.daemon(device).install_model_context(
                old.pipeline_degree, old.tensor_degree, position
            )
        if rng.random() < 0.4:
            meta.daemon(device).install_cache_context(
                old.pipeline_degree,
                old.tensor_degree,
                position,
                batch_size=int(rng.integers(1, 9)),
                cached_tokens=int(rng.integers(1, 700)),
            )
    return meta, devices, old


def random_transition(rng, meta, devices, old):
    """Random fleet delta then a feasible new config (fast-path harness)."""
    delta = rng.integers(0, 4)
    if delta == 0 and len({d[0] for d in devices}) > 2:
        instances = sorted({d[0] for d in devices})
        victim = instances[int(rng.integers(0, len(instances)))]
        meta.drop_instance(victim)
        devices = [d for d in devices if d[0] != victim]
    elif delta == 1:
        index = len({d[0] for d in devices}) + int(rng.integers(10, 90))
        devices = devices + devices_for(1, prefix=f"inst-{index:02d}")
    while True:
        new = ParallelConfig(
            int(rng.choice([1, 2])),
            int(rng.choice([1, 2, 3])),
            int(rng.choice([2, 4])),
            8,
        )
        if new.num_gpus <= len(devices):
            return devices, new


def assert_skeletons_byte_equal(tiered, reference):
    """The tiered plan moves byte-identical pieces in identical order."""
    assert tiered.layer_order == reference.layer_order
    assert tiered.peak_buffer_bytes == reference.peak_buffer_bytes
    assert tiered.storage_load_time == reference.storage_load_time
    assert tiered.total_bytes == reference.total_bytes
    assert len(tiered.steps) == len(reference.steps)
    for tiered_step, ref_step in zip(tiered.steps, reference.steps):
        assert tiered_step.kind == ref_step.kind
        assert tiered_step.layer_index == ref_step.layer_index
        assert tiered_step.storage_bytes == ref_step.storage_bytes
        assert tiered_step.stages_ready == ref_step.stages_ready
        assert tiered_step.transfers == ref_step.transfers


def restore_ledger(steps):
    """Bytes each destination instance restores when *steps* are spilled."""
    ledger = {}
    for step in steps:
        for t in step.transfers:
            if not t.is_noop and t.size_bytes > 0:
                ledger[t.dst[0]] = ledger.get(t.dst[0], 0.0) + t.size_bytes
    return ledger


def restore_phase_time(planner, tiered):
    """The destination-side restore of a tiered plan's spilled suffix."""
    transfers = [t for step in spilled_suffix(planner, tiered) for t in step.transfers]
    return planner.network.restore_time(transfers)


def spilled_suffix(planner, tiered):
    """The steps a tiered plan spills: those after its direct prefix."""
    elapsed = 0.0
    for k, step in enumerate(tiered.steps):
        if elapsed == tiered.direct_window_time:
            return tiered.steps[k:]
        elapsed += planner.network.batch_time(step.transfers)
    raise AssertionError("no step boundary matches the direct prefix")


def digest(result) -> str:
    return hashlib.sha256(result.stats.summary_text().encode()).hexdigest()


def run_tiered(scenario, arrivals, system_cls=SpotServeSystem):
    """The acceptance harness: pinned fleet, byte-equal cost across variants."""
    return run_scenario_experiment(
        scenario,
        arrivals,
        drain_time=300.0,
        system_cls=system_cls,
        allow_spot_requests=False,
    )


@pytest.fixture(scope="module")
def tiered_run():
    scenario, arrivals = tiered_offload_scenario()
    return run_tiered(scenario, arrivals)


@pytest.fixture(scope="module")
def tierless_run():
    scenario, arrivals = tiered_offload_scenario()
    return run_tiered(dataclasses.replace(scenario, offload_tier=None), arrivals)


@pytest.fixture(scope="module")
def useless_tier_run():
    """Same market with a tier so slow no split ever fits the window."""
    scenario, arrivals = tiered_offload_scenario()
    crawling = OffloadTierSpec(
        spill_bandwidth=1.0, restore_bandwidth=1.0, per_spill_latency=0.05
    )
    return run_tiered(dataclasses.replace(scenario, offload_tier=crawling), arrivals)


class TestOffloadTierSpec:
    def test_defaults_are_valid_and_frozen(self):
        spec = OffloadTierSpec()
        assert spec.spill_bandwidth > 0 and spec.restore_bandwidth > 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.spill_bandwidth = 1.0

    def test_spec_is_hashable(self):
        assert hash(OffloadTierSpec()) == hash(OffloadTierSpec())

    @pytest.mark.parametrize("field", ["spill_bandwidth", "restore_bandwidth"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_bandwidth_rejected(self, field, value):
        with pytest.raises(ValueError):
            OffloadTierSpec(**{field: value})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            OffloadTierSpec(per_spill_latency=-0.01)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["spill_bandwidth", "restore_bandwidth", "per_spill_latency"]
    )
    def test_non_finite_value_rejected(self, field, value):
        # A ``nan`` spill bandwidth used to run as a merely slow tier:
        # nothing spilled, every spill fell back.
        with pytest.raises(ValueError):
            OffloadTierSpec(**{field: value})



class TestSpillRestoreTimes:
    @staticmethod
    def network(tier=None):
        net = NetworkModel()
        net.offload_tier = tier
        return net

    @staticmethod
    def transfer(src, dst, size):
        return Transfer(src=(src, 0), dst=(dst, 0), size_bytes=size)

    def test_no_tier_means_zero(self):
        net = self.network()
        transfers = [self.transfer("a", "b", 4.0 * GB)]
        assert net.spill_time(transfers) == 0.0
        assert net.restore_time(transfers) == 0.0

    def test_nothing_to_move_means_zero(self):
        net = self.network(OffloadTierSpec())
        noop = Transfer(src=("a", 0), dst=("a", 0), size_bytes=4.0 * GB)
        assert net.spill_time([]) == 0.0
        assert net.spill_time([noop]) == 0.0
        assert net.restore_time([self.transfer("a", "b", 0.0)]) == 0.0

    def test_single_stream_arithmetic(self):
        tier = OffloadTierSpec(
            spill_bandwidth=2.0 * GB, restore_bandwidth=4.0 * GB, per_spill_latency=0.5
        )
        net = self.network(tier)
        transfers = [self.transfer("a", "b", 8.0 * GB)]
        assert net.spill_time(transfers) == pytest.approx(0.5 + 4.0)
        assert net.restore_time(transfers) == pytest.approx(0.5 + 2.0)

    def test_spill_groups_by_source_instance(self):
        tier = OffloadTierSpec(spill_bandwidth=1.0 * GB, per_spill_latency=0.0)
        net = self.network(tier)
        transfers = [
            self.transfer("a", "x", 2.0 * GB),
            self.transfer("a", "y", 3.0 * GB),
            self.transfer("b", "x", 4.0 * GB),
        ]
        # Instance a uploads 5 GB, instance b 4 GB, in parallel: 5 s wins.
        assert net.spill_time(transfers) == pytest.approx(5.0)

    def test_restore_groups_by_destination_instance(self):
        tier = OffloadTierSpec(
            spill_bandwidth=1.0 * GB, restore_bandwidth=1.0 * GB, per_spill_latency=0.0
        )
        net = self.network(tier)
        transfers = [
            self.transfer("a", "x", 2.0 * GB),
            self.transfer("b", "x", 3.0 * GB),
            self.transfer("b", "y", 4.0 * GB),
        ]
        # Destination x downloads 5 GB, y 4 GB, in parallel: 5 s wins.
        assert net.restore_time(transfers) == pytest.approx(5.0)

    def test_degraded_window_divides_both_directions(self):
        tier = OffloadTierSpec(
            spill_bandwidth=2.0 * GB, restore_bandwidth=4.0 * GB, per_spill_latency=0.0
        )
        net = self.network(tier)
        transfers = [self.transfer("a", "b", 8.0 * GB)]
        clean_spill = net.spill_time(transfers)
        clean_restore = net.restore_time(transfers)
        net.bandwidth_factor = 4.0
        assert net.spill_time(transfers) == pytest.approx(4.0 * clean_spill)
        assert net.restore_time(transfers) == pytest.approx(4.0 * clean_restore)

    def test_non_positive_degradation_factor_is_ignored(self):
        tier = OffloadTierSpec(spill_bandwidth=2.0 * GB, per_spill_latency=0.0)
        net = self.network(tier)
        transfers = [self.transfer("a", "b", 8.0 * GB)]
        clean = net.spill_time(transfers)
        net.bandwidth_factor = 0.0
        assert net.spill_time(transfers) == pytest.approx(clean)


class TestDeriveTieredPlan:
    @staticmethod
    def planner_and_plan(tier=FAST_TIER):
        meta, devices, mapping = installed_transition()
        network = NetworkModel()
        network.offload_tier = tier
        planner = MigrationPlanner(GPT_20B, network)
        plan = planner.plan(meta, mapping, {})
        assert plan.migration_time > 0 and len(plan.steps) > 1
        return planner, plan

    def test_no_tier_returns_none(self):
        planner, plan = self.planner_and_plan(tier=None)
        assert planner.derive_tiered_plan(plan, plan.migration_time / 2) is None

    def test_plan_already_fitting_returns_none(self):
        planner, plan = self.planner_and_plan()
        assert planner.derive_tiered_plan(plan, plan.migration_time) is None
        assert planner.derive_tiered_plan(plan, plan.migration_time * 2) is None

    def test_already_tiered_plan_returns_none(self):
        planner, plan = self.planner_and_plan()
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        assert tiered is not None
        assert planner.derive_tiered_plan(tiered, tiered.window_time / 2) is None

    def test_infeasible_window_returns_none(self):
        # Even the all-spill split pays the per-stream latency, so a window
        # below it is infeasible and the caller falls back to rerouting.
        planner, plan = self.planner_and_plan(
            tier=OffloadTierSpec(per_spill_latency=1.0)
        )
        assert planner.derive_tiered_plan(plan, 0.5) is None

    def test_derived_plan_beats_the_window(self):
        planner, plan = self.planner_and_plan()
        window = plan.migration_time / 2
        tiered = planner.derive_tiered_plan(plan, window)
        assert tiered is not None
        assert tiered.tier == "offload"
        assert tiered.window_time <= window
        assert plan.migration_time > window  # direct genuinely missed

    def test_restore_ledger_is_the_suffix_per_destination(self):
        planner, plan = self.planner_and_plan()
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        suffix = spilled_suffix(planner, tiered)
        assert 0 < len(suffix) < len(tiered.steps)
        expected = restore_ledger(suffix)
        # Same bytes summed in the same order: equal bit for bit, keys in
        # the order the restore phase meets the destinations.
        assert tiered.spill_restores == expected
        assert list(tiered.spill_restores) == list(expected)
        spilled = sum(t.size_bytes for step in suffix for t in step.transfers if not t.is_noop)
        assert sum(tiered.spill_restores.values()) == pytest.approx(spilled)
        assert spilled > 0
        # The restore phase, the stall after the window, is priced on
        # exactly these per-destination bytes.
        tier = planner.network.offload_tier
        assert tiered.stall_time - tiered.window_time == pytest.approx(
            max(
                tier.per_spill_latency + size / tier.restore_bandwidth
                for size in tiered.spill_restores.values()
            )
        )

    def test_stall_time_sums_the_three_phases(self):
        planner, plan = self.planner_and_plan()
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        assert tiered.stall_time == pytest.approx(
            tiered.direct_window_time
            + tiered.spill_time
            + restore_phase_time(planner, tiered)
        )
        assert tiered.window_time == pytest.approx(
            tiered.direct_window_time + tiered.spill_time
        )

    def test_input_plan_is_never_mutated(self):
        planner, plan = self.planner_and_plan()
        before = [
            (step.kind, step.layer_index, tuple(step.transfers))
            for step in plan.steps
        ]
        tier_before = plan.tier
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        assert plan.tier == tier_before == "direct"
        assert plan.spill_restores is None
        assert [
            (step.kind, step.layer_index, tuple(step.transfers))
            for step in plan.steps
        ] == before
        # The derived plan reads the input plan's steps; it copies none.
        assert tiered.steps is plan.steps

    def test_memoised_plan_survives_derivation(self):
        """The planner memo hands out shared plan objects; derivation from a
        memo hit must leave the cached plan reusable."""
        meta, devices, mapping = installed_transition()
        network = NetworkModel()
        network.offload_tier = FAST_TIER
        planner = MigrationPlanner(GPT_20B, network)
        first = planner.plan(meta, mapping, {})
        assert planner.derive_tiered_plan(first, first.migration_time / 2) is not None
        second = planner.plan(meta, mapping, {})
        assert second is first  # memo hit, still byte-intact
        assert second.tier == "direct"
        assert second.spill_restores is None

    def test_derivation_is_not_memoised(self):
        planner, plan = self.planner_and_plan()
        one = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        two = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        assert one is not two

    def test_direct_prefix_grows_with_the_window(self):
        planner, plan = self.planner_and_plan()
        windows = [plan.migration_time * f for f in (0.2, 0.5, 0.8, 0.95)]
        kept = []
        for window in windows:
            tiered = planner.derive_tiered_plan(plan, window)
            if tiered is not None:
                kept.append((window, tiered.direct_window_time))
        assert len(kept) >= 2
        for (w1, d1), (w2, d2) in zip(kept, kept[1:]):
            assert w1 <= w2 and d1 <= d2


class TestWindowTimeSemantics:
    def test_direct_plan_window_time_is_migration_time(self):
        meta, devices, mapping = installed_transition()
        plan = MigrationPlanner(GPT_20B, NetworkModel()).plan(meta, mapping, {})
        assert plan.tier == "direct"
        assert plan.window_time == plan.migration_time

    def test_tiered_plan_excludes_restore_from_the_window(self):
        planner, plan = TestDeriveTieredPlan.planner_and_plan()
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        restore = restore_phase_time(planner, tiered)
        assert restore > 0
        # Restore runs on the survivors after the deadline; only the
        # source-side work (direct prefix + spill) must beat it.
        assert tiered.window_time == pytest.approx(tiered.migration_time - restore)


class TestDifferentialInfiniteBandwidth:
    """An infinite tier degenerates to the GPU-to-GPU reference skeleton."""

    INSTANT = OffloadTierSpec(
        spill_bandwidth=1e30, restore_bandwidth=1e30, per_spill_latency=0.0
    )

    # Seed 3 draws a storage-bound chain (no transfer time, nothing to
    # spill) and is replaced by 8 to keep every chain non-vacuous.
    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 6, 7, 8])
    def test_fleet_churn_chains_keep_reference_skeleton(self, seed):
        rng = np.random.default_rng(seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        network = NetworkModel()
        network.offload_tier = self.INSTANT
        planner = MigrationPlanner(model, network)
        reference = ReferenceMigrationPlanner(model, network)
        mapper = DeviceMapper(model)

        derived = 0
        for round_index in range(4):
            devices, new = random_transition(rng, meta, devices, old)
            mapping = mapper.map_devices(meta, devices, new)
            plan = planner.plan(meta, mapping, {})
            ref_plan = reference.plan(meta, mapping, {})
            if plan.migration_time <= 0:
                continue
            window = plan.migration_time * float(rng.uniform(0.1, 0.9))
            tiered = planner.derive_tiered_plan(plan, window)
            if tiered is None:
                continue
            derived += 1
            assert_skeletons_byte_equal(tiered, ref_plan)
            # Infinite bandwidth: the spilled suffix is free, so the tiered
            # plan fits any window its direct prefix fits.
            assert tiered.spill_time == pytest.approx(0.0, abs=1e-12)
            assert restore_phase_time(planner, tiered) == pytest.approx(0.0, abs=1e-12)
            assert tiered.window_time <= window
        assert derived > 0  # the chain genuinely exercised the derivation

    def test_near_zero_window_spills_everything(self):
        meta, devices, mapping = installed_transition()
        network = NetworkModel()
        network.offload_tier = self.INSTANT
        planner = MigrationPlanner(GPT_20B, network)
        plan = planner.plan(meta, mapping, {})
        # A window below any single direct step's duration (but above the
        # infinite tier's epsilon spill time) forces the all-spill split.
        tiered = planner.derive_tiered_plan(plan, 1e-6)
        assert tiered is not None
        assert tiered.direct_window_time == 0.0
        assert tiered.spill_restores == restore_ledger(plan.steps)
        assert_skeletons_byte_equal(tiered, plan)

    def test_useless_tier_reproduces_tierless_summary(
        self, useless_tier_run, tierless_run
    ):
        """A 1 B/s tier never derives a plan: byte-equal legacy behavior."""
        assert (
            useless_tier_run.stats.summary_text() == tierless_run.stats.summary_text()
        )

    def test_useless_tier_counts_its_fallbacks(self, useless_tier_run, tierless_run):
        assert useless_tier_run.stats.migration_fallbacks > 0
        assert (
            useless_tier_run.stats.spill_fallbacks
            == useless_tier_run.stats.migration_fallbacks
        )
        # Without a tier the miss is not a *spill* fallback.
        assert tierless_run.stats.spill_fallbacks == 0


class TestSpillProperties:
    """Randomized invariants of the tier-selection rule."""

    @pytest.mark.parametrize("seed", range(10))
    def test_spill_chosen_iff_direct_misses_deadline(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        network = NetworkModel()
        network.offload_tier = OffloadTierSpec(
            spill_bandwidth=float(rng.uniform(0.5, 8.0)) * GB,
            restore_bandwidth=float(rng.uniform(0.5, 8.0)) * GB,
            per_spill_latency=float(rng.uniform(0.0, 0.2)),
        )
        # An active degraded window scales direct *and* tier bandwidths.
        factor = float(rng.choice([1.0, 2.0, 4.0]))
        network.bandwidth_factor = factor
        planner = MigrationPlanner(model, network)
        mapper = DeviceMapper(model)
        checked = 0
        for round_index in range(3):
            devices, new = random_transition(rng, meta, devices, old)
            mapping = mapper.map_devices(meta, devices, new)
            plan = planner.plan(meta, mapping, {})
            if plan.migration_time <= 0:
                continue
            for fraction in (0.3, 0.7, 1.0, 1.5):
                window = plan.migration_time * fraction
                tiered = planner.derive_tiered_plan(plan, window)
                if plan.migration_time <= window:
                    # Direct fits: spilling is never chosen.
                    assert tiered is None
                elif tiered is not None:
                    # Spilling chosen: only because direct missed, and the
                    # chosen split itself never exceeds the deadline.
                    assert tiered.window_time <= window + 1e-9
                    assert sum(tiered.spill_restores.values()) > 0
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_derivation_is_deterministic(self, seed):
        rng = np.random.default_rng(2000 + seed)
        meta, devices, old = random_fleet_state(rng, GPT_20B)
        network = NetworkModel()
        network.offload_tier = FAST_TIER
        planner = MigrationPlanner(GPT_20B, network)
        mapper = DeviceMapper(GPT_20B)
        devices, new = random_transition(rng, meta, devices, old)
        mapping = mapper.map_devices(meta, devices, new)
        plan = planner.plan(meta, mapping, {})
        if plan.migration_time <= 0:
            pytest.skip("empty transition drawn")
        window = plan.migration_time * 0.5
        first = planner.derive_tiered_plan(plan, window)
        second = planner.derive_tiered_plan(plan, window)
        if first is None:
            assert second is None
            return
        assert_skeletons_byte_equal(first, second)
        assert first.spill_time == second.spill_time
        assert first.stall_time == second.stall_time
        assert first.direct_window_time == second.direct_window_time
        assert first.spill_restores == second.spill_restores
        assert list(first.spill_restores) == list(second.spill_restores)

    def test_degradation_makes_feasibility_strictly_harder(self):
        planner, plan = TestDeriveTieredPlan.planner_and_plan()
        window = plan.migration_time * 0.5
        clean = planner.derive_tiered_plan(plan, window)
        assert clean is not None
        planner.network.bandwidth_factor = 64.0
        degraded = planner.derive_tiered_plan(plan, window)
        # Under heavy degradation the same window either becomes infeasible
        # or requires spilling at least as late a suffix at a higher cost.
        if degraded is not None:
            assert degraded.spill_time >= clean.spill_time
            assert degraded.window_time <= window

    def test_scenario_reruns_are_byte_deterministic(self):
        scenario, arrivals = tiered_offload_scenario()
        one = run_tiered(scenario, arrivals)
        scenario2, arrivals2 = tiered_offload_scenario()
        two = run_tiered(scenario2, arrivals2)
        assert one.stats.summary_text() == two.stats.summary_text()
        assert one.stats.extended_summary_text() == two.stats.extended_summary_text()


class ProbingSystem(SpotServeSystem):
    """Asserts the spill-conservation invariant at every natural probe."""

    probes = 0
    inflight_probes = 0

    def _assert_spill_conserved(self):
        settled = self.stats.bytes_restored + self.stats.bytes_abandoned
        expected = settled + self.pending_spill_bytes()
        tolerance = 1e-6 * max(1.0, self.stats.bytes_spilled)
        assert abs(self.stats.bytes_spilled - expected) <= tolerance
        type(self).probes += 1
        if self.pending_spill_bytes() > 0:
            type(self).inflight_probes += 1

    def _execute_reconfiguration_event(self, event):
        super()._execute_reconfiguration_event(event)
        self._assert_spill_conserved()

    def _finish_reconfiguration(self, event):
        super()._finish_reconfiguration(event)
        self._assert_spill_conserved()

    def handle_preemption_final(self, instance):
        super().handle_preemption_final(instance)
        self._assert_spill_conserved()

    @classmethod
    def reset(cls):
        cls.probes = 0
        cls.inflight_probes = 0


class TestSpillConservation:
    def test_invariant_holds_at_every_probe(self):
        ProbingSystem.reset()
        scenario, arrivals = tiered_offload_scenario()
        result = run_tiered(scenario, arrivals, system_cls=ProbingSystem)
        assert ProbingSystem.probes > 0
        # At least one probe caught bytes parked in the tier mid-flight,
        # so the pending term is exercised, not vacuous.
        assert ProbingSystem.inflight_probes > 0
        assert result.stats.bytes_spilled > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariant_holds_under_randomized_fault_mixes(self, seed):
        ProbingSystem.reset()
        scenario, arrivals = tiered_offload_scenario()
        rng = np.random.default_rng(seed)
        plan = FaultPlan(
            seed=seed,
            default_model=ZoneFaultModel(
                refusal_prob=float(rng.uniform(0.0, 0.3)),
                launch_failure_prob=float(rng.uniform(0.0, 0.2)),
                straggler_prob=float(rng.uniform(0.0, 0.4)),
                straggler_multiplier=3.0,
                early_preemption_prob=float(rng.uniform(0.1, 0.6)),
            ),
            degraded_windows=tiered_offload_fault_plan(scenario.duration).degraded_windows,
        )
        faulty = dataclasses.replace(scenario, fault_plan=plan)
        run_tiered(faulty, arrivals, system_cls=ProbingSystem)
        assert ProbingSystem.probes > 0

    def test_drained_run_settles_the_exact_equation(self, tiered_run):
        stats = tiered_run.stats
        assert stats.bytes_spilled > 0
        assert stats.bytes_spilled == pytest.approx(
            stats.bytes_restored + stats.bytes_abandoned
        )

    def test_destination_death_abandons_its_share(self):
        """A preemption landing inside the restore window abandons exactly
        the dead destination's parked bytes -- the rest still restores."""
        scenario, arrivals = tiered_offload_scenario()
        duration = scenario.duration
        zones = list(tiered_offload_market(duration))
        first = zones[0]
        events = sorted(
            list(first.trace.events)
            + [TraceEvent(0.25 * duration + 8, TraceEventKind.PREEMPT, 1)],
            key=lambda e: e.time,
        )
        zones[0] = dataclasses.replace(
            first, trace=dataclasses.replace(first.trace, events=events)
        )
        ProbingSystem.reset()
        result = run_tiered(
            dataclasses.replace(scenario, zones=tuple(zones)),
            arrivals,
            system_cls=ProbingSystem,
        )
        stats = result.stats
        assert stats.bytes_abandoned > 0
        assert stats.bytes_restored > 0
        assert stats.bytes_spilled == pytest.approx(
            stats.bytes_restored + stats.bytes_abandoned
        )

    def test_restores_count_only_positive_restores(self, tiered_run, tierless_run):
        assert tiered_run.stats.restores > 0
        assert tierless_run.stats.restores == 0
        assert tierless_run.stats.bytes_spilled == 0.0


class CountingTier(OffloadTierSpec):
    """A tier whose spill and restore pricing is counted.

    The ``counting_tier`` fixture wraps ``NetworkModel.spill_time`` and
    ``restore_time``; every call on a network with this tier installed
    counts.
    """

    calls = {"spill": 0, "restore": 0}


@pytest.fixture
def counting_tier(monkeypatch):
    CountingTier.calls = {"spill": 0, "restore": 0}
    for name, key in (("spill_time", "spill"), ("restore_time", "restore")):

        def counted(network, transfers, _priced=getattr(NetworkModel, name), _key=key):
            if isinstance(network.offload_tier, CountingTier):
                CountingTier.calls[_key] += 1
            return _priced(network, transfers)

        monkeypatch.setattr(NetworkModel, name, counted)
    return CountingTier


class TestGoldenDigestContract:
    """Legacy digests stay byte-identical -- pinned non-vacuously."""

    def test_counting_tier_counts_when_exercised(self, counting_tier):
        """The pin below is meaningful only if the counting tier actually
        counts: drive a deadline miss and watch both counters move."""
        network = NetworkModel()
        network.offload_tier = CountingTier(
            spill_bandwidth=1e6 * GB, restore_bandwidth=2e6 * GB
        )
        meta, devices, mapping = installed_transition()
        planner = MigrationPlanner(GPT_20B, network)
        plan = planner.plan(meta, mapping, {})
        tiered = planner.derive_tiered_plan(plan, plan.migration_time / 2)
        assert tiered is not None
        assert CountingTier.calls["spill"] > 0
        assert CountingTier.calls["restore"] > 0

    def test_single_zone_digest_survives_installed_tier(self, counting_tier):
        scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        options = scenario.options()
        options.offload_tier = CountingTier()
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            drain_time=200.0,
            options=options,
        )
        assert digest(result) == SINGLE_ZONE_SHA256
        # The tier was installed yet never consulted: the golden run has no
        # deadline misses, so the pin is exact, not accidental.
        assert CountingTier.calls == {"spill": 0, "restore": 0}

    def test_multi_zone_digest_survives_installed_tier(self, counting_tier):
        scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
        options = scenario.options()
        options.offload_tier = CountingTier()
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            trace=None,
            arrival_process=arrivals,
            duration=scenario.duration,
            drain_time=300.0,
            options=options,
            zones=scenario.zones,
            allow_spot_requests=True,
        )
        assert digest(result) == MULTI_ZONE_SHA256
        assert CountingTier.calls == {"spill": 0, "restore": 0}


class TestCounterPlacement:
    """The five new counters live in the extended summary only."""

    @staticmethod
    def stats_with_counters():
        stats = ServingStats(system_name="s", retain_requests=False)
        stats.bytes_spilled = 128.0 * GB
        stats.bytes_restored = 100.0 * GB
        stats.bytes_abandoned = 28.0 * GB
        stats.restores = 3
        stats.spill_fallbacks = 2
        return stats

    def test_defaults_are_zero(self):
        stats = ServingStats(system_name="s", retain_requests=False)
        for name in SPILL_COUNTERS:
            assert getattr(stats, name) == 0

    def test_counters_absent_from_legacy_summary(self):
        text = self.stats_with_counters().summary_text()
        for name in SPILL_COUNTERS:
            assert name not in text

    def test_counters_present_in_extended_summary(self):
        stats = self.stats_with_counters()
        extended = stats.extended_summary()
        for name in SPILL_COUNTERS:
            assert name in extended
        text = stats.extended_summary_text()
        for name in SPILL_COUNTERS:
            assert name in text

    def test_scenario_counters_reach_the_extended_text(self, tiered_run):
        text = tiered_run.stats.extended_summary_text()
        assert "bytes_spilled" in text and "restores" in text


class TestScenarioAcceptance:
    """Tiered spill preserves cache where the seed planner rerouted."""

    def test_fleet_cost_is_byte_equal(self, tiered_run, tierless_run):
        assert tiered_run.total_cost == tierless_run.total_cost
        assert tiered_run.cost_by_zone == tierless_run.cost_by_zone

    def test_strictly_fewer_migration_fallbacks(self, tiered_run, tierless_run):
        assert tierless_run.stats.migration_fallbacks > 0
        assert (
            tiered_run.stats.migration_fallbacks
            < tierless_run.stats.migration_fallbacks
        )

    def test_strictly_fewer_rerouted_requests(self, tiered_run, tierless_run):
        assert (
            tiered_run.stats.requests_rerouted < tierless_run.stats.requests_rerouted
        )

    def test_cache_preserved_through_the_tier(self, tiered_run):
        assert tiered_run.stats.restores > 0
        assert tiered_run.stats.bytes_spilled > 0
        assert tiered_run.stats.spill_fallbacks == 0

    def test_more_requests_complete(self, tiered_run, tierless_run):
        assert tiered_run.completed_requests > tierless_run.completed_requests

    def test_scenario_defaults(self):
        scenario, arrivals = tiered_offload_scenario()
        assert scenario.offload_tier is TIERED_OFFLOAD_TIER
        assert scenario.seed == TIERED_OFFLOAD_SEED
        assert scenario.autoscale_policy is None  # pinned fleet
        assert not scenario.allow_on_demand
        assert scenario.options().offload_tier is TIERED_OFFLOAD_TIER

    def test_fault_plan_is_degradation_only(self):
        plan = tiered_offload_fault_plan()
        assert plan.degraded_windows
        assert plan.default_model is None
        assert not plan.zone_models


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestDrainDeferredGuard:
    """All-deferred zero-budget drain with overflowing live peaks."""

    @staticmethod
    def overflowing_steps(num_layers=3):
        steps = {}
        for layer in range(num_layers):
            step = MigrationStep(kind="weight", layer_index=layer)
            step.transfers.append(
                Transfer(
                    src=(f"src-{layer:02d}", 0),
                    dst=("shared-dst", 0),
                    size_bytes=1.7e308,
                )
            )
            steps[layer] = step
        return steps

    @staticmethod
    def planners(budget=0.0, with_tier=True):
        network = NetworkModel()
        if with_tier:
            network.offload_tier = TIERED_OFFLOAD_TIER
        fast = MigrationPlanner(GPT_20B, network, max_buffer_bytes=budget)
        reference = ReferenceMigrationPlanner(GPT_20B, network, max_buffer_bytes=budget)
        return fast, reference

    @staticmethod
    def order(planner, steps):
        """The planner's layer order for *steps*, from their buffer deltas."""
        return planner._order_layers(
            {layer: planner._buffer_deltas(step) for layer, step in steps.items()}
        )

    def test_overflowed_live_peaks_match_reference(self):
        """Astronomical sizes push every live peak to +inf: the fast drain
        must not confuse them with the +inf dead-column mask."""
        steps = self.overflowing_steps()
        model = SimpleNamespace(num_layers=3)
        fast, reference = self.planners()
        fast.model = reference.model = model
        fast_order = self.order(fast, steps)
        ref_order = self.order(reference, steps)
        assert fast_order == ref_order
        assert sorted(fast_order) == list(range(3))

    def test_many_layers_all_deferred_zero_budget(self):
        rng = np.random.default_rng(42)
        steps = {}
        num_layers = 9
        for layer in range(num_layers):
            step = MigrationStep(kind="weight", layer_index=layer)
            for _ in range(int(rng.integers(1, 4))):
                step.transfers.append(
                    Transfer(
                        src=(f"src-{int(rng.integers(0, 4)):02d}", 0),
                        dst=(f"dst-{int(rng.integers(0, 2)):02d}", 0),
                        size_bytes=1.5e308,
                    )
                )
            steps[layer] = step
        model = SimpleNamespace(num_layers=num_layers)
        fast, reference = self.planners()
        fast.model = reference.model = model
        fast_order = self.order(fast, steps)
        assert fast_order == self.order(reference, steps)
        assert sorted(fast_order) == list(range(num_layers))

    def test_guard_does_not_disturb_finite_ordering(self):
        rng = np.random.default_rng(7)
        steps = {}
        for layer in range(6):
            step = MigrationStep(kind="weight", layer_index=layer)
            step.transfers.append(
                Transfer(
                    src=(f"src-{layer % 3:02d}", 0),
                    dst=("dst-00", 1),
                    size_bytes=float(rng.integers(1, 64)) * GB / 16,
                )
            )
            steps[layer] = step
        model = SimpleNamespace(num_layers=6)
        fast, reference = self.planners(budget=0.5 * GB)
        fast.model = reference.model = model
        assert self.order(fast, steps) == self.order(reference, steps)


class TestPerfHarnessWiring:
    """run_perf.py --check gains a guarded tiered_offload entry."""

    @staticmethod
    def report(round_ms=5.0, requests=50000.0):
        return {
            "adaptation_round_ms": round_ms,
            "sim_requests_per_sec": requests,
            "phases": {
                "map": {"seconds": 1.0, "calls": 10, "ms_per_call": 2.0},
                "plan": {"seconds": 1.0, "calls": 10, "ms_per_call": 2.0},
            },
        }

    def test_scenario_registered(self, run_perf):
        assert "tiered_offload" in run_perf.SCENARIOS

    def test_committed_baseline_carries_all_four_guards(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "perf" / "baseline.json").read_text()
        )
        entry = baseline["scenarios"]["tiered_offload"]
        for guard in (
            "adaptation_round_ms",
            "map_ms_per_call",
            "plan_ms_per_call",
            "min_sim_requests_per_sec",
        ):
            assert guard in entry

    def test_ci_matrix_includes_the_scenario(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "--scenario tiered_offload" in workflow

    def baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": {
                        "tiered_offload": {
                            "adaptation_round_ms": 8.5,
                            "map_ms_per_call": 6.0,
                            "plan_ms_per_call": 6.5,
                            "min_sim_requests_per_sec": 1367,
                        }
                    }
                }
            )
        )
        return path

    def test_round_regression_fails_the_check(self, run_perf, tmp_path):
        report = self.report(round_ms=50.0)
        assert (
            run_perf.check_regression(
                {"tiered_offload": report}, self.baseline(tmp_path), 2.0
            )
            == 1
        )

    def test_requests_floor_regression_fails_the_check(self, run_perf, tmp_path):
        report = self.report(requests=100.0)
        assert (
            run_perf.check_regression(
                {"tiered_offload": report}, self.baseline(tmp_path), 2.0
            )
            == 1
        )

    def test_healthy_report_passes_the_check(self, run_perf, tmp_path):
        assert (
            run_perf.check_regression(
                {"tiered_offload": self.report()}, self.baseline(tmp_path), 2.0
            )
            == 0
        )

    def test_missing_phases_skip_their_guards(self, run_perf, tmp_path):
        """A run without reconfiguring rounds skips map/plan, not fails."""
        report = self.report()
        report["phases"] = {}
        assert (
            run_perf.check_regression(
                {"tiered_offload": report}, self.baseline(tmp_path), 2.0
            )
            == 0
        )

    def test_measure_attaches_spill_counters(self, run_perf):
        report = run_perf.measure("tiered_offload")
        assert report["spill_counters"]["bytes_spilled"] > 0
        assert report["spill_counters"]["restores"] > 0
        assert report["spill_counters"]["spill_fallbacks"] == 0


class TestPolicyBenchWiring:
    def test_scenario_joins_the_bench_matrix(self):
        assert "tiered_offload" in BENCH_SCENARIOS

    def test_build_cell_attaches_the_sizing_policy(self):
        scenario, arrivals, drain = build_cell("tiered_offload", "cost-aware")
        assert scenario.autoscale_policy == "cost-aware"
        assert scenario.offload_tier is TIERED_OFFLOAD_TIER
        assert scenario.seed == TIERED_OFFLOAD_SEED
        assert drain > 0

    def test_result_row_carries_spill_columns(self, tiered_run):
        row = result_row("tiered_offload", "fixed-fleet", tiered_run)
        assert row["bytes_spilled"] > 0
        assert row["restores"] > 0
        assert row["spill_fallbacks"] == 0
        assert row["migration_fallbacks"] == 0


class TestServerWiring:
    def test_options_default_is_none(self):
        assert SpotServeOptions().offload_tier is None

    def test_no_tier_keeps_network_untouched(self):
        scenario, arrivals = tiered_offload_scenario()
        assert (
            dataclasses.replace(scenario, offload_tier=None).options().offload_tier
            is None
        )

    def test_market_is_sized_for_the_big_model(self):
        zones = tiered_offload_market()
        assert sum(zone.trace.initial_instances for zone in zones) == 9
        # GPT-20B needs 12 GPUs (three 4-GPU instances): the preemption
        # waves must never sink the fleet below that floor.
        preempted = sum(
            event.count
            for zone in zones
            for event in zone.trace.events
            if event.kind is TraceEventKind.PREEMPT
        )
        assert 9 - preempted >= 3
