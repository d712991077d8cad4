"""Network model used to cost context migration.

SpotServe migrates model context (parameters) and cache context (KV cache)
between GPU instances with batched asynchronous NCCL send/recv.  The paper's
migration planner only needs to know *how long a set of transfers takes* and
*how much buffer memory they occupy*; both are functions of tensor sizes and
link bandwidths.  This module provides that model.

Three link classes are distinguished, mirroring the hierarchical device
mapper in the paper (Section 3.3) extended with availability zones: fast
intra-instance links (NVLink / PCIe between GPUs on the same machine),
slower inter-instance links (cloud Ethernet inside one zone), and the
slowest cross-zone links (inter-AZ traffic, which clouds both throttle and
bill).  Zone membership is resolved through an optional ``zone_of`` callable
(typically :meth:`repro.cloud.provider.CloudProvider.zone_of`); without it
every instance is assumed to share one zone, which reproduces the seed's
two-tier behaviour exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

GB = 1024 ** 3


@dataclass(frozen=True)
class NetworkSpec:
    """Bandwidth/latency parameters of the simulated cluster fabric.

    Attributes
    ----------
    inter_instance_bandwidth:
        Point-to-point bandwidth between two different instances in the same
        availability zone, bytes/s.  AWS g4dn.12xlarge offers 50 Gbit/s of
        instance networking; a single TCP/NCCL flow realistically sustains a
        fraction of that.
    intra_instance_bandwidth:
        Bandwidth between GPUs on the same instance (PCIe 3.0 x16 on g4dn),
        bytes/s.
    cross_zone_bandwidth:
        Bandwidth between instances in *different* availability zones,
        bytes/s.  Inter-AZ links ride metro fibre and are both slower and
        metered, so cross-zone migration is the expensive tier.
    per_transfer_latency:
        Fixed startup latency per transfer (connection setup, NCCL kernel
        launch), seconds.
    cross_zone_latency:
        Fixed startup latency for a transfer that crosses zones (higher RTT
        plus the cloud's inter-AZ hop), seconds.
    concurrent_streams:
        Number of transfers that can proceed in parallel across distinct
        instance pairs without sharing bandwidth.
    """

    inter_instance_bandwidth: float = 4.0 * GB
    intra_instance_bandwidth: float = 12.0 * GB
    cross_zone_bandwidth: float = 1.25 * GB
    per_transfer_latency: float = 0.001
    cross_zone_latency: float = 0.004
    concurrent_streams: int = 8

    def __post_init__(self) -> None:
        bandwidths = (
            self.inter_instance_bandwidth,
            self.intra_instance_bandwidth,
            self.cross_zone_bandwidth,
        )
        if not all(math.isfinite(b) and b > 0 for b in bandwidths):
            raise ValueError(f"bandwidths must be finite and positive, got {bandwidths}")
        latencies = (self.per_transfer_latency, self.cross_zone_latency)
        if not all(math.isfinite(t) and t >= 0 for t in latencies):
            raise ValueError(f"latencies must be finite and non-negative, got {latencies}")
        if self.concurrent_streams < 1:
            raise ValueError("need at least one concurrent stream")


@dataclass(frozen=True)
class OffloadTierSpec:
    """Priced host/object-storage spill tier for grace-window migration.

    When direct GPU-to-GPU migration cannot beat a reclaim deadline, the
    planner may instead *spill* context from the doomed sources to this
    slower tier inside the grace window and *restore* it on the destination
    side afterwards.  Spill and restore bandwidths are separate (object
    stores typically ingest slower than they serve).

    Attributes
    ----------
    spill_bandwidth:
        Source-side upload bandwidth to the tier, bytes/s per instance.
    restore_bandwidth:
        Destination-side download bandwidth from the tier, bytes/s per
        instance.
    per_spill_latency:
        Fixed startup latency per spill/restore stream, seconds.
    """

    spill_bandwidth: float = 0.75 * GB
    restore_bandwidth: float = 1.5 * GB
    per_spill_latency: float = 0.05

    def __post_init__(self) -> None:
        bandwidths = (self.spill_bandwidth, self.restore_bandwidth)
        if not all(math.isfinite(b) and b > 0 for b in bandwidths):
            raise ValueError(
                f"offload tier bandwidths must be finite and positive, got {bandwidths}"
            )
        latency = self.per_spill_latency
        if not (math.isfinite(latency) and latency >= 0):
            raise ValueError(
                f"offload tier latency must be finite and non-negative, got {latency}"
            )


class Transfer(NamedTuple):
    """A single point-to-point context transfer.

    ``src`` and ``dst`` identify devices as ``(instance_id, gpu_index)``
    tuples; ``size_bytes`` is the payload size.  ``tag`` is free-form and used
    by the migration planner to distinguish model-context from cache-context
    transfers.

    A plan builds one per moved piece, so the record is a named tuple: it is
    immutable, it builds without the per-field ``object.__setattr__`` a
    frozen dataclass pays, and it hashes and compares in C.
    """

    src: Tuple[str, int]
    dst: Tuple[str, int]
    size_bytes: float
    tag: str = "model"

    @property
    def is_noop(self) -> bool:
        """True when source and destination are the same device."""
        return self.src == self.dst


class NetworkModel:
    """Estimates transfer durations for context migration.

    ``zone_of`` maps an instance id to its availability zone; when provided,
    transfers whose endpoints live in different zones are charged at the
    (slower, higher-latency) cross-zone tier.

    ``bandwidth_factor`` divides every bandwidth (fault injection:
    degraded-bandwidth windows).  The serving system sets it once per
    reconfiguration, before planning.  It defaults to 1.0, and a factor of
    exactly 1.0 (or a non-positive one) leaves the arithmetic untouched, so
    the undegraded path stays byte-identical.

    ``offload_tier`` is an optional :class:`OffloadTierSpec` pricing the
    host/object-storage spill tier.  It defaults to ``None`` (no tier), in
    which case :meth:`spill_time`/:meth:`restore_time` are never consulted
    and every existing code path is byte-identical to the pre-tiering model.
    """

    def __init__(
        self,
        spec: Optional[NetworkSpec] = None,
        zone_of: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.spec = spec or NetworkSpec()
        self.zone_of = zone_of
        self.bandwidth_factor = 1.0
        self.offload_tier: Optional[OffloadTierSpec] = None

    def batch_time(self, transfers: Iterable[Transfer]) -> float:
        """Duration of a batch of transfers executed together.

        Transfers whose endpoints do not share an instance pair run in
        parallel (up to ``concurrent_streams``); transfers sharing an
        endpoint pair are serialized.  This mirrors batched NCCL send/recv
        where distinct peer pairs progress concurrently.

        A transfer takes ``latency + size_bytes / bandwidth`` of its
        instance pair's link (:meth:`_link`), resolved once per pair and
        call; same-device and empty transfers take nothing.  Each pair's
        chain is the sum of its transfers' times in transfer order.
        """
        links: Dict[Tuple[str, str], Tuple[float, float]] = {}
        per_pair: Dict[Tuple[str, str], float] = {}
        for src, dst, size, _ in transfers:
            if src == dst or size <= 0:
                continue
            key = (src[0], dst[0])
            link = links.get(key)
            if link is None:
                link = links[key] = self._link(src[0], dst[0])
                per_pair[key] = 0.0
            latency, bandwidth = link
            per_pair[key] += latency + size / bandwidth
        if not per_pair:
            return 0.0
        durations = sorted(per_pair.values(), reverse=True)
        streams = self.spec.concurrent_streams
        if len(durations) <= streams:
            return durations[0]
        # Greedy multiprocessor scheduling of pair-serialized transfer chains
        # onto the available parallel streams (longest-processing-time rule).
        loads = [0.0] * streams
        for duration in durations:
            loads[loads.index(min(loads))] += duration
        return max(loads)

    def _link(self, src_instance: str, dst_instance: str) -> Tuple[float, float]:
        """``(latency, bandwidth)`` of the link from one instance to another.

        Intra-instance when both are one instance, cross-zone when
        ``zone_of`` puts them in different zones, inter-instance otherwise;
        a ``bandwidth_factor`` other than 1.0 (and positive) divides the
        bandwidth.
        """
        spec = self.spec
        zone_of = self.zone_of
        if src_instance == dst_instance:
            bandwidth = spec.intra_instance_bandwidth
            latency = spec.per_transfer_latency
        elif zone_of is not None and zone_of(src_instance) != zone_of(dst_instance):
            bandwidth = spec.cross_zone_bandwidth
            latency = spec.cross_zone_latency
        else:
            bandwidth = spec.inter_instance_bandwidth
            latency = spec.per_transfer_latency
        factor = self.bandwidth_factor
        if factor != 1.0 and factor > 0.0:
            bandwidth = bandwidth / factor
        return latency, bandwidth

    def spill_time(self, transfers: Iterable[Transfer]) -> float:
        """Duration of spilling *transfers*' payloads to the offload tier.

        Each source instance streams its payload to the tier independently
        (instances do not share the upload path), so the batch duration is
        the slowest instance's ``latency + bytes / spill_bandwidth``.
        Returns 0.0 when no tier is configured or nothing needs moving.
        """
        return self._tier_time(transfers, restore=False)

    def restore_time(self, transfers: Iterable[Transfer]) -> float:
        """Duration of restoring *transfers*' payloads from the offload tier.

        Mirrors :meth:`spill_time` on the destination side: each destination
        instance downloads its payload independently and the batch finishes
        with the slowest one.
        """
        return self._tier_time(transfers, restore=True)

    def _tier_time(self, transfers: Iterable[Transfer], restore: bool) -> float:
        """Tier time of *transfers*, grouped by source (spill) or destination (restore)."""
        tier = self.offload_tier
        if tier is None:
            return 0.0
        per_instance: dict = {}
        for transfer in transfers:
            if transfer.is_noop or transfer.size_bytes <= 0:
                continue
            instance = transfer.dst[0] if restore else transfer.src[0]
            per_instance[instance] = per_instance.get(instance, 0.0) + transfer.size_bytes
        if not per_instance:
            return 0.0
        bandwidth = tier.restore_bandwidth if restore else tier.spill_bandwidth
        factor = self.bandwidth_factor
        if factor != 1.0 and factor > 0.0:
            bandwidth = bandwidth / factor
        return max(tier.per_spill_latency + size / bandwidth for size in per_instance.values())
