"""Host UDP: port demultiplexing and socket delivery."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.kernel import Event, Queue
from repro.packet.icmp import UNREACH_PORT, IcmpMessage
from repro.packet.ipv4 import IP_HEADER_LEN, IP_MAX_PACKET, PROTO_UDP, IPv4Packet
from repro.packet.udp import UdpDatagram
from repro.util.byteio import DecodeError

if TYPE_CHECKING:
    from repro.netsim.node import Node

EPHEMERAL_PORT_BASE = 49152
# The largest datagram one IPv4 packet holds.
UDP_MAX_LENGTH = IP_MAX_PACKET - IP_HEADER_LEN


class UdpSocket:
    """A bound UDP socket on a simulated node.

    ``recvfrom()`` returns an event to yield on; its value is a tuple
    ``(payload, src_ip, src_port, dst_ip)``.
    """

    def __init__(self, layer: "UdpLayer", port: int) -> None:
        self._layer = layer
        self.port = port
        self.rx = Queue(layer.node.sim, name=f"udp:{layer.node.name}:{port}")
        self.closed = False
        self.rx_dropped = 0
        self.rx_buffer_limit: Optional[int] = None  # packets; None = unbounded

    def sendto(self, payload: bytes, dst_ip: int, dst_port: int,
               src_ip: int = 0, ttl: int = 64) -> bool:
        """Send a datagram; returns False if unroutable or dropped at the
        first hop queue."""
        if self.closed:
            raise RuntimeError("socket is closed")
        node = self._layer.node
        src = src_ip or node.primary_address()
        datagram = UdpDatagram(src_port=self.port, dst_port=dst_port, payload=payload)
        if datagram.wire_len > UDP_MAX_LENGTH:
            raise ValueError(f"datagram too large: {len(payload)} payload bytes")
        return node.send_ip(
            IPv4Packet(src, dst_ip, PROTO_UDP, ttl=ttl, segment=datagram)
        )

    def recvfrom(self) -> Event:
        if self.closed:
            raise RuntimeError("socket is closed")
        return self.rx.get()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._layer._unbind(self.port)

    def _deliver(self, payload: bytes, src_ip: int, src_port: int, dst_ip: int) -> None:
        if self.rx_buffer_limit is not None and len(self.rx) >= self.rx_buffer_limit:
            self.rx_dropped += 1
            return
        self.rx.put((payload, src_ip, src_port, dst_ip))


class UdpLayer:
    """Per-node UDP port table."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self.port_unreachable_sent = 0
        self.rx_rejected = 0

    def bind(self, port: int = 0) -> UdpSocket:
        if port == 0:
            port = self._allocate_port()
        if port in self._sockets:
            raise RuntimeError(f"UDP port {port} already bound on {self.node.name}")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def _allocate_port(self) -> int:
        for _ in range(0xFFFF - EPHEMERAL_PORT_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = EPHEMERAL_PORT_BASE
            if port not in self._sockets:
                return port
        raise RuntimeError("out of ephemeral UDP ports")

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def receive(self, packet: IPv4Packet) -> None:
        datagram = packet.segment
        if datagram is None:
            # The packet entered as bytes (raw nsend): verify them.
            try:
                datagram = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
            except DecodeError:
                self.rx_rejected += 1
                obs = self.node.sim.obs
                if obs.enabled:
                    obs.counter("udp.rx_rejected", node=self.node.name).inc()
                return
        socket = self._sockets.get(datagram.dst_port)
        if socket is None or socket.closed:
            self.port_unreachable_sent += 1
            error = IcmpMessage.dest_unreachable(UNREACH_PORT, packet.quoted())
            self.node.send_ip(
                IPv4Packet(
                    src=packet.dst,
                    dst=packet.src,
                    proto=1,  # ICMP
                    payload=error.encode(),
                )
            )
            return
        socket._deliver(datagram.payload, packet.src, datagram.src_port, packet.dst)
