"""Endpoint configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.proto.constants import CAP_RAW, CAP_TCP, CAP_UDP


@dataclass
class EndpointConfig:
    """Operator-controlled endpoint settings.

    ``trusted_key_ids`` is the endpoint's trust store (§3.3): the key
    hashes whose certificate chains it accepts, "installed and managed
    out-of-band by the endpoint operator". These double as the rendezvous
    channels the endpoint subscribes to (§3.3, channels are key hashes).
    """

    name: str = "endpoint"
    trusted_key_ids: list[bytes] = field(default_factory=list)
    capture_buffer_bytes: int = 64 * 1024
    allow_raw: bool = True
    monitor_fuel: int = 10_000
    # Ablation switch (NOT part of the paper's design): when True, the
    # endpoint pushes captured records to the controller immediately
    # instead of buffering until npoll. Exists to quantify why the paper
    # chose buffering — streaming puts control traffic on the access link
    # mid-measurement (see benchmarks/bench_a1_streaming_ablation.py).
    stream_captures: bool = False
    # Fault tolerance: when True the endpoint supervises its controller
    # and rendezvous connections, re-dialing with backoff after a
    # transport loss or a crash-and-restart instead of giving up
    # silently. Off by default — the paper's baseline endpoint makes one
    # connection attempt per discovered experiment.
    reconnect: bool = False
    # Liveness: when positive, the endpoint publishes an RdzHeartbeat on
    # its open rendezvous subscription stream every this-many simulated
    # seconds. Controllers (the fleet pool's HeartbeatMonitor) use the
    # shard's liveness registry to drain endpoints whose beacons go
    # stale *before* an RPC ever has to time out on them. 0 = off —
    # the paper's baseline endpoint advertises nothing.
    heartbeat_interval: float = 0.0

    def caps(self) -> int:
        value = CAP_TCP | CAP_UDP
        if self.allow_raw:
            value |= CAP_RAW
        return value
