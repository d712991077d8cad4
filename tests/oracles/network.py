"""Per-transfer reference for the network model's batch pricing.

``NetworkModel.batch_time`` resolves each (source instance, destination
instance) pair's link once per call and adds its transfers' times into
that pair's chain.  The reference here prices every transfer on its own,
with the link class, the ``zone_of`` lookups and the bandwidth factor
resolved per transfer, and builds the same chains and the same
longest-processing-time schedule from those times.  The production model
must equal it bit for bit.
"""

from typing import Dict, Iterable, Tuple

from repro.sim.network import NetworkModel, Transfer


def is_local(transfer: Transfer) -> bool:
    """True when source and destination GPUs share an instance."""
    return transfer.src[0] == transfer.dst[0]


class PerTransferNetworkModel(NetworkModel):
    """:class:`NetworkModel` that prices every transfer of a batch on its own."""

    def is_cross_zone(self, transfer: Transfer) -> bool:
        """True when the transfer's endpoints live in different zones."""
        if is_local(transfer) or self.zone_of is None:
            return False
        return self.zone_of(transfer.src[0]) != self.zone_of(transfer.dst[0])

    def transfer_time(self, transfer: Transfer) -> float:
        """Duration in seconds of a single transfer."""
        if transfer.is_noop or transfer.size_bytes <= 0:
            return 0.0
        if is_local(transfer):
            bandwidth = self.spec.intra_instance_bandwidth
            latency = self.spec.per_transfer_latency
        elif self.is_cross_zone(transfer):
            bandwidth = self.spec.cross_zone_bandwidth
            latency = self.spec.cross_zone_latency
        else:
            bandwidth = self.spec.inter_instance_bandwidth
            latency = self.spec.per_transfer_latency
        factor = self.bandwidth_factor
        if factor != 1.0 and factor > 0.0:
            bandwidth = bandwidth / factor
        return latency + transfer.size_bytes / bandwidth

    def batch_time(self, transfers: Iterable[Transfer]) -> float:
        """Pair-serialised chains of :meth:`transfer_time`, LPT-scheduled."""
        per_pair: Dict[Tuple[str, str], float] = {}
        for transfer in transfers:
            if transfer.is_noop or transfer.size_bytes <= 0:
                continue
            key = (transfer.src[0], transfer.dst[0])
            per_pair[key] = per_pair.get(key, 0.0) + self.transfer_time(transfer)
        if not per_pair:
            return 0.0
        durations = sorted(per_pair.values(), reverse=True)
        streams = self.spec.concurrent_streams
        if len(durations) <= streams:
            return durations[0]
        loads = [0.0] * streams
        for duration in durations:
            loads[loads.index(min(loads))] += duration
        return max(loads)
