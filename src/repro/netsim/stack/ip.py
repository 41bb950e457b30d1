"""Host/router IP layer: delivery, forwarding, TTL, ICMP errors, raw taps.

The raw-tap mechanism is the simulator-side hook behind PacketLab's raw
sockets (§3.1). A tap sees every packet arriving at the node and returns a
verdict:

- ``VERDICT_IGNORE`` — the tap does not capture the packet; the host OS
  processes it normally,
- ``VERDICT_CONSUME`` — the tap captures the packet and the host OS never
  sees it (so the kernel cannot RST an experiment's TCP handshake),
- ``VERDICT_MIRROR`` — the tap captures a copy and the OS also processes it
  (the paper's passive-telescope use case).

If several taps claim a packet, capture happens per tap and the OS is
bypassed if any tap consumed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.packet.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_TIME_EXCEEDED,
    UNREACH_NET,
    IcmpMessage,
)
from repro.packet.ipv4 import PROTO_ICMP, IPv4Packet

if TYPE_CHECKING:
    from repro.netsim.node import Interface, Node

VERDICT_IGNORE = 0
VERDICT_CONSUME = 1
VERDICT_MIRROR = 2

# A tap callback receives the packet and returns a verdict.
TapCallback = Callable[[IPv4Packet], int]


class RawTap:
    """A registered raw-socket tap on a node's receive path."""

    __slots__ = ("callback", "active")

    def __init__(self, callback: TapCallback) -> None:
        self.callback = callback
        self.active = True


class IpLayer:
    """IP receive/forward/send logic for one node."""

    def __init__(self, node: "Node") -> None:
        self._node = node
        self._taps: list[RawTap] = []
        self.packets_forwarded = 0
        self.packets_delivered = 0

    # -- raw taps ---------------------------------------------------------

    def add_tap(self, callback: TapCallback) -> RawTap:
        tap = RawTap(callback)
        self._taps.append(tap)
        return tap

    def remove_tap(self, tap: RawTap) -> None:
        tap.active = False
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # -- receive path ------------------------------------------------------

    def receive(self, packet: IPv4Packet, iface: Optional["Interface"]) -> None:
        node = self._node
        if node.is_local_address(packet.dst):
            consumed = False
            if self._taps:
                for tap in list(self._taps):
                    if not tap.active:
                        continue
                    verdict = tap.callback(packet)
                    if verdict == VERDICT_CONSUME:
                        consumed = True
            if not consumed:
                self.packets_delivered += 1
                node.local_deliver(packet)
            return
        if node.forwarding:
            self.forward(packet, iface)
        # A non-forwarding host silently drops traffic not addressed to it.

    def forward(self, packet: IPv4Packet, in_iface: Optional["Interface"]) -> None:
        node = self._node
        if packet.ttl <= 1:
            self._send_icmp_error(
                packet, in_iface, IcmpMessage.time_exceeded(packet.quoted())
            )
            return
        out = node.lookup_route(packet.dst)
        if out is None:
            self._send_icmp_error(
                packet,
                in_iface,
                IcmpMessage.dest_unreachable(UNREACH_NET, packet.quoted()),
            )
            return
        self.packets_forwarded += 1
        out.send(packet.decremented())

    def _send_icmp_error(
        self,
        offending: IPv4Packet,
        in_iface: Optional["Interface"],
        message: IcmpMessage,
    ) -> None:
        # Never generate ICMP errors about ICMP errors (RFC 1122).
        if offending.proto == PROTO_ICMP:
            try:
                inner = IcmpMessage.decode(offending.payload, verify_checksum=False)
            except Exception:
                inner = None
            if inner is not None and inner.icmp_type in (
                ICMP_DEST_UNREACH,
                ICMP_TIME_EXCEEDED,
            ):
                return
        src = in_iface.addr if in_iface is not None else self._node.primary_address()
        if src == 0:
            return
        reply = IPv4Packet(
            src=src, dst=offending.src, proto=PROTO_ICMP, payload=message.encode()
        )
        self.send(reply)

    # -- send path ---------------------------------------------------------

    def send(self, packet: IPv4Packet) -> bool:
        """Route and transmit a locally originated packet.

        Returns False if there was no route or the first-hop queue dropped
        the packet.
        """
        node = self._node
        if node.is_local_address(packet.dst):
            # Loopback: deliver on the next tick without touching any link.
            node.sim.schedule(0.0, self.receive, packet, None)
            return True
        out = node.lookup_route(packet.dst)
        if out is None:
            return False
        return out.send(packet)
