"""Ping over the PacketLab interface.

The paper repeatedly uses timing measurements like ping as the example of
experiments PacketLab serves well: "what they need are precise timestamps
(which PacketLab provides), rather than fast endpoint response times"
(§3.5). RTTs here come entirely from endpoint-local timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.controller.client import RECOVERABLE, EndpointHandle
from repro.endpoint.memory import OFF_ADDR_IP
from repro.filtervm import builtins
from repro.netsim.clock import NANOSECONDS
from repro.packet.icmp import ICMP_ECHO_REPLY, IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.util.byteio import DecodeError


@dataclass
class PingProbe:
    seq: int
    rtt: Optional[float]  # endpoint-clock seconds; None = lost


@dataclass
class PingResult:
    destination: int
    probes: list[PingProbe] = field(default_factory=list)
    # Graceful degradation: probes scheduled before a failure still
    # report their RTTs (or loss); ``error`` says what cut the run short.
    partial: bool = False
    error: Optional[str] = None

    @property
    def sent(self) -> int:
        return len(self.probes)

    @property
    def received(self) -> int:
        return sum(1 for probe in self.probes if probe.rtt is not None)

    @property
    def loss_fraction(self) -> float:
        return 1.0 - self.received / self.sent if self.probes else 0.0

    @property
    def rtt_avg(self) -> Optional[float]:
        rtts = [probe.rtt for probe in self.probes if probe.rtt is not None]
        return sum(rtts) / len(rtts) if rtts else None

    @property
    def rtt_min(self) -> Optional[float]:
        rtts = [probe.rtt for probe in self.probes if probe.rtt is not None]
        return min(rtts) if rtts else None


def ping(
    handle: EndpointHandle,
    destination: int,
    count: int = 4,
    interval: float = 0.2,
    timeout: float = 2.0,
    ident: int = 0x7069,  # "pi"
    sktid: int = 0,
    payload_size: int = 32,
) -> Generator:
    """Ping ``destination`` from the endpoint; returns PingResult."""
    result = PingResult(destination=destination)
    send_times: dict[int, int] = {}
    rtts: dict[int, float] = {}
    try:
        status = yield from handle.nopen_raw(sktid)
        handle.expect_ok(status, "nopen(raw)")
        endpoint_ip = int.from_bytes(
            (yield from handle.mread(OFF_ADDR_IP, 4)), "big"
        )
        status = yield from handle.ncap(
            sktid, 1 << 62, builtins.capture_protocol(PROTO_ICMP)
        )
        handle.expect_ok(status, "ncap")

        # Schedule the whole probe train up front (no per-probe round trips).
        t0 = yield from handle.read_clock()
        for seq in range(1, count + 1):
            due = t0 + int((0.05 + (seq - 1) * interval) * NANOSECONDS)
            send_times[seq] = due
            probe = IPv4Packet(
                src=endpoint_ip, dst=destination, proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(
                    ident, seq, payload=b"\x00" * payload_size
                ).encode(),
            ).encode()
            status = yield from handle.nsend(sktid, due, probe)
            handle.expect_ok(status, "nsend")

        deadline = t0 + int((0.05 + count * interval + timeout) * NANOSECONDS)
        while len(rtts) < count:
            poll = yield from handle.npoll(deadline)
            for record in poll.records:
                parsed = _parse_reply(record.data, ident)
                if parsed is None:
                    continue
                seq, src = parsed
                # A reply captured before this probe left answers an
                # earlier job's probe on a reused session.
                if (src == destination and seq in send_times and seq not in rtts
                        and record.timestamp >= send_times[seq]):
                    rtts[seq] = (
                        record.timestamp - send_times[seq]
                    ) / NANOSECONDS
            now = yield from handle.read_clock()
            if now >= deadline:
                break
    except RECOVERABLE as exc:
        # Partial result: probes scheduled before the failure still count.
        result.partial = True
        result.error = f"{type(exc).__name__}: {exc}"
    yield from handle.close_quietly(sktid)
    for seq in sorted(send_times):
        result.probes.append(PingProbe(seq=seq, rtt=rtts.get(seq)))
    return result


def _parse_reply(data: bytes, ident: int):
    try:
        packet = IPv4Packet.decode(data, verify_checksum=False)
        message = IcmpMessage.decode(packet.payload, verify_checksum=False)
    except DecodeError:
        return None
    if message.icmp_type != ICMP_ECHO_REPLY or message.echo_ident != ident:
        return None
    return message.echo_seq, packet.src
