"""Endpoint-side sockets: the objects behind ``nopen`` ids.

Three kinds, per Table 1:

- **raw** — a tap on the host's receive path plus raw IP transmission.
  Capture is off until the controller installs an ``ncap`` filter; the
  filter's verdict decides ignore/consume/mirror. Captured records are
  whole IPv4 packets.
- **udp** — a native UDP socket serviced by the (simulated) host OS;
  received datagram payloads become capture records.
- **tcp** — a native TCP connection; received stream chunks become capture
  records, and a full capture buffer stops reading, so the receive window
  closes and the remote sender stalls: genuine TCP back pressure.

No process runs on a socket: ``Event.then`` continuations read native
sockets, and a TCP ``nsend`` writes into its connection at once.

All transmission and capture passes through the session's certificate
monitors; a monitor deny suppresses the operation.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.endpoint.capture import CaptureBuffer
from repro.filtervm.vm import (
    AdmittedProgram,
    FilterVM,
    VERDICT_DROP,
    VERDICT_MIRROR,
)
from repro.netsim.node import Node
from repro.netsim.stack.ip import VERDICT_CONSUME as TAP_CONSUME
from repro.netsim.stack.ip import VERDICT_IGNORE as TAP_IGNORE
from repro.netsim.stack.ip import VERDICT_MIRROR as TAP_MIRROR
from repro.netsim.stack.tcp import TcpConnection, TcpError
from repro.packet.ipv4 import IPv4Packet, PROTO_TCP, PROTO_UDP
from repro.packet.tcp import FLAG_ACK, FLAG_PSH, TcpSegment
from repro.packet.udp import UdpDatagram
from repro.proto.constants import SOCK_RAW, SOCK_TCP, SOCK_UDP
from repro.proto.messages import CaptureRecord
from repro.util.byteio import DecodeError

if TYPE_CHECKING:
    from repro.endpoint.memory import MonitorInfoView

TCP_READ_CHUNK = 1460

# A frame builder returns a packet's IPv4 bytes. A monitor check calls it
# only if some certificate monitor judges that direction; True = allowed.
FrameBuilder = Callable[[], bytes]
MonitorCheck = Callable[[FrameBuilder], bool]


def _frame(proto: int, src: int, src_port: int, dst: int, dst_port: int,
           payload: bytes) -> bytes:
    """The IPv4 frame a native socket's datagram or stream chunk stands
    for, so certificate monitors judge it like any raw packet."""
    if proto == PROTO_UDP:
        l4 = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    else:
        l4 = TcpSegment(src_port=src_port, dst_port=dst_port, seq=0, ack=0,
                        flags=FLAG_ACK | FLAG_PSH, window=0, payload=payload)
    return IPv4Packet(src, dst, proto, segment=l4).encode()


class EndpointSocket:
    """Common endpoint socket state: every socket captures into the
    session's buffer, stamped with the endpoint clock, past its monitors."""

    proto: int = 0

    def __init__(self, sktid: int, node: Node, buffer: CaptureBuffer,
                 ticks: Callable[[], int], check_recv: MonitorCheck) -> None:
        self.sktid = sktid
        self.node = node
        self._buffer = buffer
        self._ticks = ticks
        self._check_recv = check_recv
        self.local_port = 0
        self.closed = False
        self.last_send_ticks = 0
        self.pending_sends = 0

    def note_send(self, ticks: int) -> None:
        self.last_send_ticks = ticks

    def close(self) -> None:
        self.closed = True

    def send_scheduled(self, data: bytes, check_send: MonitorCheck) -> bool:
        raise NotImplementedError

    def _capture(self, data: bytes) -> None:
        self._buffer.push(
            CaptureRecord(sktid=self.sktid, timestamp=self._ticks(), data=data)
        )


class RawEndpointSocket(EndpointSocket):
    """Raw IP socket: tap-based capture + arbitrary IPv4 transmission."""

    proto = SOCK_RAW

    def __init__(
        self,
        sktid: int,
        node: Node,
        buffer: CaptureBuffer,
        ticks: Callable[[], int],
        check_recv: MonitorCheck,
        info_view: "MonitorInfoView",
        exempt: Callable[[IPv4Packet], bool],
    ) -> None:
        super().__init__(sktid, node, buffer, ticks, check_recv)
        self._info_view = info_view
        self._exempt = exempt
        self._filter: Optional[FilterVM] = None
        self._cap_until_ticks = 0
        self._tap = node.ip.add_tap(self._on_packet)

    def install_filter(self, program: AdmittedProgram, until_ticks: int) -> None:
        """ncap: install a capture filter active until the given local
        time. The filter's persistent globals live as long as the filter."""
        self._filter = FilterVM(program, info=self._info_view,
                                obs=self.node.sim.obs)
        self._filter.run_init()
        self._cap_until_ticks = until_ticks

    def _on_packet(self, packet: IPv4Packet) -> int:
        if self.closed:
            return TAP_IGNORE
        if self._filter is None:
            # "The default behavior is to drop all packets" (§3.1): no
            # capture until the controller installs a filter.
            return TAP_IGNORE
        if self._ticks() > self._cap_until_ticks:
            return TAP_IGNORE
        # The connections the agent opened itself are never exposed to raw
        # capture: consuming them would sever a session or a subscription,
        # and mirroring them would leak other experimenters' traffic.
        if self._exempt(packet):
            return TAP_IGNORE
        raw = packet.encode()
        verdict = self._filter.invoke("recv", packet=raw, args=(0, len(raw)))
        # Certificate monitors decide whether the controller may see it.
        if verdict == VERDICT_DROP or not self._check_recv(lambda: raw):
            return TAP_IGNORE
        self._capture(raw)
        if verdict == VERDICT_MIRROR:
            return TAP_MIRROR
        return TAP_CONSUME

    def send_scheduled(self, data: bytes, check_send: MonitorCheck) -> bool:
        """Transmit controller-supplied raw IPv4 bytes."""
        if self.closed:
            return False
        try:
            packet = IPv4Packet.decode(data, verify_checksum=False)
        except DecodeError:
            return False
        if not check_send(lambda: data):
            return False
        return self.node.send_ip(packet)

    def close(self) -> None:
        if not self.closed:
            super().close()
            # The tap's callback is this socket's bound method: drop the
            # way back, so a closed socket and its filter go at once.
            self.node.ip.remove_tap(self._tap)
            self._tap = None


class UdpEndpointSocket(EndpointSocket):
    """Native UDP socket; capture records carry datagram payloads."""

    proto = SOCK_UDP

    def __init__(
        self,
        sktid: int,
        node: Node,
        buffer: CaptureBuffer,
        ticks: Callable[[], int],
        check_recv: MonitorCheck,
        locport: int,
        remaddr: int,
        remport: int,
    ) -> None:
        super().__init__(sktid, node, buffer, ticks, check_recv)
        self.remaddr = remaddr
        self.remport = remport
        self._udp = node.udp.bind(locport)
        self.local_port = self._udp.port
        self._recvfrom()

    def _recvfrom(self) -> None:
        self._waiting = self._udp.recvfrom()
        self._waiting.then(self._on_datagram)

    def _on_datagram(self, item: tuple) -> None:
        if self.closed:
            return
        payload, src_ip, src_port, dst_ip = item
        if self._check_recv(partial(
            _frame, PROTO_UDP, src_ip, src_port, dst_ip, self.local_port,
            payload,
        )):
            if self._buffer.space_for(len(payload)):
                self._capture(payload)
            else:
                self._buffer.note_drop(len(payload))
        self._recvfrom()

    def send_scheduled(self, data: bytes, check_send: MonitorCheck) -> bool:
        if self.closed:
            return False
        if not check_send(partial(
            _frame, PROTO_UDP, self.node.primary_address(), self.local_port,
            self.remaddr, self.remport, data,
        )):
            return False
        return self._udp.sendto(data, self.remaddr, self.remport)

    def close(self) -> None:
        if not self.closed:
            super().close()
            self._udp.close()
            self._waiting.drop_waiter(self._on_datagram)


class TcpEndpointSocket(EndpointSocket):
    """Native TCP connection; capture records carry stream chunks."""

    proto = SOCK_TCP

    def __init__(
        self,
        sktid: int,
        node: Node,
        buffer: CaptureBuffer,
        ticks: Callable[[], int],
        check_recv: MonitorCheck,
        conn: TcpConnection,
    ) -> None:
        super().__init__(sktid, node, buffer, ticks, check_recv)
        self.conn = conn
        self.local_port = conn.local_port
        self.remaddr = conn.remote_ip
        self.remport = conn.remote_port
        self._wait_for_space()

    def _wait_for_space(self) -> None:
        # Back pressure (§3.1): no read until the capture buffer can hold
        # a chunk, so the receive window fills and the sender stalls.
        self._waiting = self._buffer.wait_for_space(TCP_READ_CHUNK)
        self._waiting.then(self._read)

    def _read(self, _: object) -> None:
        if self.closed:
            return
        try:
            chunk = self.conn.read(TCP_READ_CHUNK)
        except TcpError:
            return
        if chunk is None:
            self._waiting = self.conn.wait_readable()
            self._waiting.then(self._read)
            return
        if not chunk:
            return
        if self._check_recv(partial(
            _frame, PROTO_TCP, self.remaddr, self.remport,
            self.node.primary_address(), self.local_port, chunk,
        )):
            self._capture(chunk)
        self._wait_for_space()

    def send_scheduled(self, data: bytes, check_send: MonitorCheck) -> bool:
        if self.closed:
            return False
        if not check_send(partial(
            _frame, PROTO_TCP, self.node.primary_address(), self.local_port,
            self.remaddr, self.remport, data,
        )):
            return False
        try:
            self.conn.write(data)
        except TcpError:
            return False
        return True

    def close(self) -> None:
        if not self.closed:
            super().close()
            self._waiting.drop_waiter(self._read)
            self.conn.close()
