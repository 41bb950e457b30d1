"""Port-translating NAT middlebox.

The paper (§3.1, Endpoint Information) points out that an endpoint behind a
NAT has an internal address different from its external one, which is why
the info block exposes the internal address to controllers crafting raw
packets. This module provides the NAT box that creates that situation in
the simulator.

Supported translations: UDP and TCP (port mapping) and ICMP echo
(identifier mapping). Inbound ICMP errors are translated by inspecting the
quoted original header, so traceroute from behind a NAT works.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.kernel import Simulator
from repro.netsim.node import Interface, Node
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packet.tcp import TcpSegment
from repro.packet.udp import UdpDatagram
from repro.util.byteio import DecodeError

from dataclasses import replace

_EXTERNAL_PORT_BASE = 20000


class NatBox(Node):
    """A router that NATs traffic from its inside interface."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name, forwarding=True)
        self.inside_iface: Optional[Interface] = None
        self.outside_iface: Optional[Interface] = None
        # (proto, inside_ip, inside_id) -> external_id
        self._out_map: dict[tuple[int, int, int], int] = {}
        # (proto, external_id) -> (inside_ip, inside_id)
        self._in_map: dict[tuple[int, int], tuple[int, int]] = {}
        self._next_external = _EXTERNAL_PORT_BASE
        self.translations_in = 0

    def set_sides(self, inside: Interface, outside: Interface) -> None:
        self.inside_iface = inside
        self.outside_iface = outside

    def external_address(self) -> int:
        if self.outside_iface is None:
            raise RuntimeError("NAT outside interface not configured")
        return self.outside_iface.addr

    # -- mapping management -------------------------------------------------

    def _allocate_external(self, proto: int, inside_ip: int, inside_id: int) -> int:
        key = (proto, inside_ip, inside_id)
        existing = self._out_map.get(key)
        if existing is not None:
            return existing
        external = self._next_external
        self._next_external += 1
        if self._next_external > 0xFFFF:
            self._next_external = _EXTERNAL_PORT_BASE
        self._out_map[key] = external
        self._in_map[(proto, external)] = (inside_ip, inside_id)
        return external

    def lookup_inbound(self, proto: int, external_id: int) -> Optional[tuple[int, int]]:
        return self._in_map.get((proto, external_id))

    # -- packet path hook ------------------------------------------------------

    def receive(self, packet: IPv4Packet, iface: Optional[Interface]) -> None:
        if (
            iface is self.inside_iface
            and not self.is_local_address(packet.dst)
        ):
            translated = self._translate_outbound(packet)
            if translated is None:
                return
            super().receive(translated, iface)
            return
        if iface is self.outside_iface and packet.dst == self.external_address():
            translated = self._translate_inbound(packet)
            if translated is None:
                # Not a mapped flow: treat as traffic to the NAT box itself.
                super().receive(packet, iface)
                return
            super().receive(translated, iface)
            return
        super().receive(packet, iface)

    # -- translations -----------------------------------------------------------

    def _translate_outbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        external_ip = self.external_address()
        try:
            if packet.proto in (PROTO_UDP, PROTO_TCP):
                segment = _l4(packet)
                external = self._allocate_external(
                    packet.proto, packet.src, segment.src_port
                )
                rewritten_l4 = replace(segment, src_port=external)
                return _readdressed(packet, external_ip, packet.dst,
                                    segment=rewritten_l4)
            if packet.proto == PROTO_ICMP:
                message = IcmpMessage.decode(packet.payload)
                if message.is_error:
                    return None  # outbound errors from inside hosts: drop
                external = self._allocate_external(
                    PROTO_ICMP, packet.src, message.echo_ident
                )
                rewritten = IcmpMessage(
                    icmp_type=message.icmp_type,
                    code=message.code,
                    rest=((external & 0xFFFF) << 16) | message.echo_seq,
                    body=message.body,
                )
                return _readdressed(packet, external_ip, packet.dst,
                                    rewritten.encode())
        except DecodeError:
            pass
        return None

    def _translate_inbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        try:
            if packet.proto in (PROTO_UDP, PROTO_TCP):
                segment = _l4(packet)
                mapping = self.lookup_inbound(packet.proto, segment.dst_port)
                if mapping is None:
                    return None
                inside_ip, inside_port = mapping
                rewritten_l4 = replace(segment, dst_port=inside_port)
                translated = _readdressed(packet, packet.src, inside_ip,
                                          segment=rewritten_l4)
            elif packet.proto == PROTO_ICMP:
                message = IcmpMessage.decode(packet.payload)
                if message.is_error:
                    return self._translate_inbound_error(packet, message)
                mapping = self.lookup_inbound(PROTO_ICMP, message.echo_ident)
                if mapping is None:
                    return None
                inside_ip, inside_ident = mapping
                rewritten = IcmpMessage(
                    icmp_type=message.icmp_type,
                    code=message.code,
                    rest=((inside_ident & 0xFFFF) << 16) | message.echo_seq,
                    body=message.body,
                )
                translated = _readdressed(packet, packet.src, inside_ip,
                                          rewritten.encode())
            else:
                return None
        except DecodeError:
            return None
        self.translations_in += 1
        return translated

    def _translate_inbound_error(
        self, packet: IPv4Packet, message: IcmpMessage
    ) -> Optional[IPv4Packet]:
        """Translate an ICMP error by inspecting the quoted original packet.

        The quote contains the *outbound* packet as it appeared after NAT:
        src = external address, L4 source = external id. Map it back and
        rewrite both the outer destination and the quoted bytes.
        """
        quote = message.original_datagram()
        if len(quote) < 28:
            return None
        # Parse the quoted header fields directly; the quote is truncated to
        # header + 8 bytes, so a full decode would reject it.
        quoted_proto = quote[9]
        inner = quote[20:28]
        if quoted_proto in (PROTO_UDP, PROTO_TCP):
            external_id = (inner[0] << 8) | inner[1]
        elif quoted_proto == PROTO_ICMP:
            external_id = (inner[4] << 8) | inner[5]
        else:
            return None
        mapping = self.lookup_inbound(quoted_proto, external_id)
        if mapping is None:
            return None
        inside_ip, inside_id = mapping
        # Rewrite the quoted original: source IP back to inside, id back.
        rebuilt = bytearray(quote)
        rebuilt[12:16] = inside_ip.to_bytes(4, "big")
        if quoted_proto in (PROTO_UDP, PROTO_TCP):
            rebuilt[20:22] = inside_id.to_bytes(2, "big")
        else:
            rebuilt[24:26] = inside_id.to_bytes(2, "big")
        rewritten = IcmpMessage(
            icmp_type=message.icmp_type,
            code=message.code,
            rest=message.rest,
            body=bytes(rebuilt),
        )
        self.translations_in += 1
        return _readdressed(packet, packet.src, inside_ip, rewritten.encode())


def _l4(packet: IPv4Packet) -> TcpSegment | UdpDatagram:
    """The packet's TCP segment or UDP datagram: the one the stack built,
    or its bytes, verified (a NAT recomputes the checksum it rewrites, so
    it must not launder a bad one)."""
    if packet.segment is not None:
        return packet.segment
    codec = TcpSegment if packet.proto == PROTO_TCP else UdpDatagram
    return codec.decode(packet.payload, packet.src, packet.dst)


def _readdressed(packet: IPv4Packet, src: int, dst: int,
                 payload: Optional[bytes] = None,
                 segment: TcpSegment | UdpDatagram | None = None) -> IPv4Packet:
    """``packet`` with new addresses and a rewritten payload or segment."""
    return IPv4Packet(src, dst, packet.proto, payload, packet.ttl, packet.ident,
                      packet.dscp, packet.dont_fragment, segment)


def natted_topology(
    access_bandwidth_bps: float = 10e6,
    access_delay: float = 0.010,
    core_delay: float = 0.020,
):
    """An endpoint behind a NAT: endpoint -- nat -- gw -- {controller, target}.

    Returns ``(network, endpoint, nat, controller, target)``.
    """
    from repro.netsim.topology import Network

    net = Network()
    endpoint = net.add_host("endpoint")
    nat = net.add_node(NatBox(net.sim, "nat"))
    gateway = net.add_router("gw")
    controller = net.add_host("controller")
    target = net.add_host("target")
    net.link(nat, endpoint, bandwidth_bps=access_bandwidth_bps, delay=access_delay)
    net.link(gateway, nat, bandwidth_bps=1e9, delay=core_delay)
    net.link(gateway, controller, bandwidth_bps=1e9, delay=core_delay)
    net.link(gateway, target, bandwidth_bps=1e9, delay=core_delay)
    net.compute_routes()
    nat.set_sides(inside=nat.interfaces[0], outside=nat.interfaces[1])
    return net, endpoint, nat, controller, target
