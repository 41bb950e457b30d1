"""Traceroute — the paper's second prototype experiment (§4).

"To reproduce the traceroute tool, an experiment controller creates a
series of ICMP echo request packets with incrementing TTL values starting
from 1 and the payload set to contain a two-byte sequence number... The
sequence number is extracted from the packet and used to match the
original ICMP's t_snd to calculate the round trip time as t_rcv - t_snd.
Note that both timestamps are relative to the endpoint's clock. The
controller sends packets to the endpoint until either an ICMP reply is
received from the target destination or the next TTL value is greater
than 40."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.controller.client import RECOVERABLE, EndpointHandle
from repro.endpoint.memory import OFF_ADDR_IP
from repro.filtervm import builtins
from repro.netsim.clock import NANOSECONDS
from repro.packet.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    IcmpMessage,
)
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.util.byteio import DecodeError

MAX_TTL = 40


@dataclass
class TracerouteHop:
    ttl: int
    responder: Optional[int]  # IPv4 of the answering host; None = timeout
    rtt: Optional[float]  # endpoint-clock seconds
    reached_destination: bool = False


@dataclass
class TracerouteResult:
    destination: int
    hops: list[TracerouteHop] = field(default_factory=list)
    reached: bool = False
    # Graceful degradation under faults: the hops gathered before the
    # session/command failure are still reported.
    partial: bool = False
    error: Optional[str] = None

    def responder_path(self) -> list[Optional[int]]:
        return [hop.responder for hop in self.hops]


def traceroute(
    handle: EndpointHandle,
    destination: int,
    sktid: int = 0,
    ident: int = 0x7472,  # "tr"
    per_hop_timeout: float = 2.0,
    max_ttl: int = MAX_TTL,
    lead_time: float = 0.05,
) -> Generator:
    """Run the §4 traceroute experiment; returns TracerouteResult.

    All timestamps are endpoint-clock values, exactly as the paper
    specifies; the controller never needs synchronized time.
    """
    result = TracerouteResult(destination=destination)
    try:
        status = yield from handle.nopen_raw(sktid)
        handle.expect_ok(status, "nopen(raw)")
        endpoint_ip = int.from_bytes(
            (yield from handle.mread(OFF_ADDR_IP, 4)), "big"
        )
        # Capture ICMP for the whole run.
        far_future = (1 << 62)
        status = yield from handle.ncap(
            sktid, far_future, builtins.capture_protocol(PROTO_ICMP)
        )
        handle.expect_ok(status, "ncap")

        for ttl in range(1, max_ttl + 1):
            t0 = yield from handle.read_clock()
            t_snd = t0 + int(lead_time * NANOSECONDS)
            probe = IPv4Packet(
                src=endpoint_ip,
                dst=destination,
                proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(
                    ident, ttl, payload=ttl.to_bytes(2, "big")
                ).encode(),
                ttl=ttl,
            ).encode()
            status = yield from handle.nsend(sktid, t_snd, probe)
            handle.expect_ok(status, "nsend")
            deadline = t_snd + int(per_hop_timeout * NANOSECONDS)
            hop = yield from _await_hop(
                handle, ttl, ident, destination, t_snd, deadline
            )
            result.hops.append(hop)
            if hop.reached_destination:
                result.reached = True
                break
    except RECOVERABLE as exc:
        # Partial result: keep the hops discovered before the failure.
        result.partial = True
        result.error = f"{type(exc).__name__}: {exc}"
    yield from handle.close_quietly(sktid)
    return result


def _await_hop(
    handle: EndpointHandle,
    ttl: int,
    ident: int,
    destination: int,
    t_snd: int,
    deadline: int,
) -> Generator:
    """Poll until this TTL's answer (matched by sequence number) arrives."""
    while True:
        poll = yield from handle.npoll(deadline)
        match = _match_response(poll.records, ttl, ident, destination, t_snd)
        if match is not None:
            return match
        now = yield from handle.read_clock()
        if now >= deadline:
            return TracerouteHop(ttl=ttl, responder=None, rtt=None)


def _match_response(records, ttl, ident, destination, t_snd):
    for record in records:
        if record.timestamp < t_snd:
            continue  # captured before the probe left: not its answer
        try:
            packet = IPv4Packet.decode(record.data, verify_checksum=False)
            message = IcmpMessage.decode(packet.payload, verify_checksum=False)
        except DecodeError:
            continue
        if message.icmp_type == ICMP_ECHO_REPLY:
            if message.echo_ident != ident or message.echo_seq != ttl:
                continue
            rtt = (record.timestamp - t_snd) / NANOSECONDS
            return TracerouteHop(
                ttl=ttl, responder=packet.src, rtt=rtt,
                reached_destination=packet.src == destination,
            )
        if message.icmp_type == ICMP_TIME_EXCEEDED:
            quote = message.original_datagram()
            if len(quote) < 28 or quote[9] != PROTO_ICMP:
                continue
            # Sequence number of the quoted echo request (ICMP header
            # starts at quote[20]; seq is its bytes 6..8).
            seq = int.from_bytes(quote[26:28], "big")
            quoted_ident = int.from_bytes(quote[24:26], "big")
            if quoted_ident != ident or seq != ttl:
                continue
            rtt = (record.timestamp - t_snd) / NANOSECONDS
            return TracerouteHop(ttl=ttl, responder=packet.src, rtt=rtt)
    return None
