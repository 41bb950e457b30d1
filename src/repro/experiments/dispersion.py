"""Downlink bandwidth by packet-pair dispersion.

The complement of the paper's §4 uplink experiment, built on the other
half of the interface: *receive* timestamping. A sender (the controller
host itself, or any cooperating server) emits back-to-back packet pairs
toward the endpoint; the endpoint's capture timestamps give the pair
dispersion, and ``bottleneck_bw = wire_size / dispersion``. Precise
endpoint-side timestamps are exactly what the paper argues PacketLab
provides in place of fast endpoint response (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.controller.client import RECOVERABLE, EndpointHandle
from repro.endpoint.memory import OFF_ADDR_IP
from repro.netsim.clock import NANOSECONDS
from repro.netsim.links import LINK_OVERHEAD_BYTES
from repro.netsim.node import Node
from repro.packet.ipv4 import IP_HEADER_LEN
from repro.packet.udp import UDP_HEADER_LEN


@dataclass
class DispersionResult:
    estimated_bps: float
    pair_dispersions: list[float] = field(default_factory=list)
    pairs_received: int = 0
    pairs_sent: int = 0
    # Graceful degradation: pairs timestamped before a failure still
    # contribute to the estimate; ``error`` says what cut the run short.
    partial: bool = False
    error: Optional[str] = None


def measure_downlink_dispersion(
    handle: EndpointHandle,
    sender_node: Node,
    pair_count: int = 8,
    payload_size: int = 1000,
    pair_spacing: float = 0.2,
    listen_port: int = 9750,
    sktid: int = 0,
) -> Generator:
    """Estimate the endpoint's downlink bottleneck bandwidth.

    ``sender_node`` (typically the controller host) fires back-to-back UDP
    pairs at the endpoint while the experiment reads their arrival
    timestamps from capture records. The per-pair dispersion at the
    bottleneck yields the bandwidth estimate; the median over pairs
    rejects cross-traffic noise.
    """
    error: Optional[str] = None
    sent = 0
    arrivals: dict[tuple[int, int], int] = {}
    try:
        status = yield from handle.nopen_udp(sktid, locport=listen_port)
        handle.expect_ok(status, "nopen(udp)")
        endpoint_addr = yield from handle.mread(OFF_ADDR_IP, 4)
        endpoint_ip = int.from_bytes(endpoint_addr, "big")
        sock = sender_node.udp.bind(0)
        payload = b"P" * payload_size
        for pair in range(pair_count):
            for half in range(2):
                sock.sendto(
                    bytes([pair, half]) + payload, endpoint_ip, listen_port
                )
            sent = pair + 1
            yield pair_spacing
        # Collect arrival timestamps.
        deadline = (yield from handle.read_clock()) + int(3 * NANOSECONDS)
        while len(arrivals) < 2 * pair_count:
            poll = yield from handle.npoll(deadline)
            for record in poll.records:
                if record.sktid != sktid or len(record.data) < 2:
                    continue
                key = (record.data[0], record.data[1])
                arrivals.setdefault(key, record.timestamp)
            if not poll.records:
                now = yield from handle.read_clock()
                if now >= deadline:
                    break
    except RECOVERABLE as exc:
        # Partial result: whatever pairs were timestamped still count.
        error = f"{type(exc).__name__}: {exc}"
    yield from handle.close_quietly(sktid)
    wire_bits = (
        payload_size + 2 + UDP_HEADER_LEN + IP_HEADER_LEN + LINK_OVERHEAD_BYTES
    ) * 8
    dispersions = []
    for pair in range(pair_count):
        first = arrivals.get((pair, 0))
        second = arrivals.get((pair, 1))
        if first is None or second is None or second <= first:
            continue
        dispersions.append((second - first) / NANOSECONDS)
    if not dispersions:
        return DispersionResult(
            estimated_bps=0.0, pairs_sent=sent,
            partial=error is not None, error=error,
        )
    dispersions.sort()
    median = dispersions[len(dispersions) // 2]
    return DispersionResult(
        estimated_bps=wire_bits / median,
        pair_dispersions=dispersions,
        pairs_received=len(dispersions),
        pairs_sent=sent,
        partial=error is not None,
        error=error,
    )
