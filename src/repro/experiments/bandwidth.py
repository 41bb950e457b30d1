"""Uplink bandwidth measurement — the paper's first prototype experiment (§4).

"To measure an endpoint's uplink bandwidth, we make it send a sequence of
UDP packets to our server as quickly as possible, and then record the rate
at which they arrive at the server. The controller first reads the current
time t0 on the endpoint (using the mread command). It then opens a UDP
socket on the endpoint (using nopen) and schedules a block of UDP
datagrams to be sent from the endpoint to the controller at time t0+5
(using nsend). The controller then waits for the UDP packets from the
endpoint, records their arrival times, and calculates the uplink
bandwidth."

Scheduling the burst in the future is the point: by the time the packets
leave, the control channel is quiet, so control traffic does not contend
with the measurement on the shared access link (§3.1). The ``immediate``
mode sends each datagram as soon as its nsend arrives, re-creating the
contention the design avoids — benchmark C1 sweeps both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.controller.client import RECOVERABLE, EndpointHandle
from repro.experiments.servers import UdpSink
from repro.netsim.clock import NANOSECONDS
from repro.netsim.node import Node

# Per-packet wire overhead: UDP(8) + IPv4(20) + link(14).
WIRE_OVERHEAD = 42


@dataclass
class BandwidthResult:
    measured_bps: float
    packets_sent: int
    packets_received: int
    burst_span: float
    first_arrival: float
    scheduled_lead: float
    # Graceful degradation under faults: ``partial`` marks a run cut
    # short by a session/command failure, ``error`` says why. The
    # measured fields then cover only the packets that made it out.
    partial: bool = False
    error: Optional[str] = None

    @property
    def loss_fraction(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return 1.0 - self.packets_received / self.packets_sent


def measure_uplink_bandwidth(
    handle: EndpointHandle,
    controller_node: Node,
    packet_count: int = 50,
    payload_size: int = 1000,
    lead_time: float = 5.0,
    immediate: bool = False,
    sink_port: int = 9901,
    sktid: int = 0,
    settle_time: float = 30.0,
) -> Generator:
    """Run the §4 uplink bandwidth experiment; returns BandwidthResult.

    Use as ``result = yield from measure_uplink_bandwidth(handle, node)``.
    """
    sink = UdpSink(controller_node, sink_port).start()
    try:
        error: Optional[str] = None
        issued = 0
        try:
            status = yield from handle.nopen_udp(
                sktid,
                locport=0,
                remaddr=controller_node.primary_address(),
                remport=sink.port,
            )
            handle.expect_ok(status, "nopen(udp)")
            t0 = yield from handle.read_clock()
            if immediate:
                due = 0  # a time in the past: send upon command arrival (§3.1)
            else:
                due = t0 + int(lead_time * NANOSECONDS)
            payload_base = b"B" * (payload_size - 2)
            for index in range(packet_count):
                data = index.to_bytes(2, "big") + payload_base
                if immediate:
                    # Pipelined: the endpoint transmits each datagram as soon as
                    # its command arrives, so control delivery and measurement
                    # traffic share the access link — the contention the paper's
                    # future-scheduling design avoids.
                    handle.nsend_nowait(sktid, due, data)
                else:
                    status = yield from handle.nsend(sktid, due, data)
                    handle.expect_ok(status, "nsend")
                issued += 1
        except RECOVERABLE as exc:
            # Partial result: report what the sink observed of the packets
            # that were scheduled before the session/command failed.
            error = f"{type(exc).__name__}: {exc}"
        # Wait for the burst to drain to the sink.
        if issued:
            deadline = controller_node.sim.now + lead_time + settle_time
            while sink.count < issued and controller_node.sim.now < deadline:
                yield 0.1
        yield from handle.close_quietly(sktid)
        arrivals = sink.arrivals
        measured = sink.observed_rate_bps(WIRE_OVERHEAD)
        return BandwidthResult(
            measured_bps=measured,
            packets_sent=issued,
            packets_received=len(arrivals),
            burst_span=(arrivals[-1][0] - arrivals[0][0]) if len(arrivals) > 1 else 0.0,
            first_arrival=arrivals[0][0] if arrivals else 0.0,
            scheduled_lead=0.0 if immediate else lead_time,
            partial=error is not None,
            error=error,
        )
    finally:
        # On success, on a RECOVERABLE failure and when the job worker is
        # killed alike, the sink gives its port back with the job.
        sink.stop()
