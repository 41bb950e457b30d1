"""Host ICMP behaviour: echo reply generation and listener dispatch."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.packet.icmp import ICMP_ECHO_REQUEST, IcmpMessage
from repro.packet.ipv4 import PROTO_ICMP, IPv4Packet
from repro.util.byteio import DecodeError

if TYPE_CHECKING:
    from repro.netsim.node import Node

# Listener callbacks receive (ip_packet, icmp_message).
IcmpListener = Callable[[IPv4Packet, IcmpMessage], None]


class IcmpLayer:
    """Replies to echo requests and fans ICMP out to registered listeners."""

    def __init__(self, node: "Node") -> None:
        self._node = node
        self._listeners: list[IcmpListener] = []
        self.echo_requests_answered = 0
        self.rx_rejected = 0

    def add_listener(self, listener: IcmpListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: IcmpListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def receive(self, packet: IPv4Packet) -> None:
        try:
            message = IcmpMessage.decode(packet.payload)
        except DecodeError:
            self.rx_rejected += 1
            obs = self._node.sim.obs
            if obs.enabled:
                obs.counter("icmp.rx_rejected", node=self._node.name).inc()
            return
        for listener in list(self._listeners):
            listener(packet, message)
        if message.icmp_type == ICMP_ECHO_REQUEST:
            self._answer_echo(packet, message)

    def _answer_echo(self, packet: IPv4Packet, request: IcmpMessage) -> None:
        reply = IcmpMessage.echo_reply(
            request.echo_ident, request.echo_seq, request.body
        )
        self.echo_requests_answered += 1
        self._node.send_ip(
            IPv4Packet(
                src=packet.dst,
                dst=packet.src,
                proto=PROTO_ICMP,
                payload=reply.encode(),
            )
        )

    def send_echo_request(
        self, dst: int, ident: int, seq: int, payload: bytes = b"", ttl: int = 64
    ) -> bool:
        """Convenience for on-node (baseline) ping implementations."""
        request = IcmpMessage.echo_request(ident, seq, payload)
        return self._node.send_ip(
            IPv4Packet(
                src=self._node.primary_address(),
                dst=dst,
                proto=PROTO_ICMP,
                payload=request.encode(),
                ttl=ttl,
            )
        )
