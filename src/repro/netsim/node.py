"""Simulated nodes (hosts and routers) and their interfaces."""

from __future__ import annotations

from typing import Optional

from repro.netsim.clock import HostClock
from repro.netsim.kernel import Simulator
from repro.netsim.links import LinkDirection
from repro.netsim.stack.icmp import IcmpLayer
from repro.netsim.stack.ip import IpLayer
from repro.netsim.stack.tcp import TcpLayer
from repro.netsim.stack.udp import UdpLayer
from repro.packet.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.util.inet import format_ip, prefix_mask


class Interface:
    """A network interface: an address and an attached link direction."""

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self.addr = 0
        self.prefix_len = 32
        self.mask = prefix_mask(32)
        self._tx: Optional[LinkDirection] = None

    @property
    def full_name(self) -> str:
        return f"{self.node.name}.{self.name}"

    @property
    def connected(self) -> bool:
        return self._tx is not None

    def configure(self, addr: int, prefix_len: int = 24) -> "Interface":
        mask = prefix_mask(prefix_len)  # rejects a bad length before any edit
        if self.addr:
            self.node._local_addrs.discard(self.addr)
        self.addr = addr
        self.prefix_len = prefix_len
        self.mask = mask
        if addr:
            self.node._local_addrs.add(addr)
        return self

    def attach(self, tx: LinkDirection) -> None:
        if self._tx is not None:
            raise RuntimeError(f"interface {self.full_name} already attached")
        self._tx = tx

    def send(self, packet: IPv4Packet) -> bool:
        if self._tx is None:
            raise RuntimeError(f"interface {self.full_name} not attached to a link")
        return self._tx.transmit(packet)

    def deliver(self, packet: IPv4Packet) -> None:
        self.node.receive(packet, self)

    def __repr__(self) -> str:
        return f"<Interface {self.full_name} {format_ip(self.addr)}/{self.prefix_len}>"


class Route:
    """A routing table entry (longest-prefix match, point-to-point links)."""

    __slots__ = ("prefix", "prefix_len", "mask", "iface")

    def __init__(self, prefix: int, prefix_len: int, iface: Interface) -> None:
        self.prefix = prefix
        self.prefix_len = prefix_len
        self.mask = prefix_mask(prefix_len)
        self.iface = iface


class Node:
    """A simulated host or router with a full mini TCP/IP stack."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        forwarding: bool = False,
        clock_offset: float = 0.0,
        clock_skew: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forwarding = forwarding
        self.clock = HostClock(sim, offset=clock_offset, skew=clock_skew)
        self.interfaces: list[Interface] = []
        self.routes: list[Route] = []
        # Exact-match (/32) next-hop table: one dict probe replaces the
        # linear longest-prefix scan on the forwarding fast path. Filled
        # by Network.compute_routes / fleet route installation.
        self.route_table: dict[int, Interface] = {}
        self._local_addrs: set[int] = set()
        self.ip = IpLayer(self)
        self.icmp = IcmpLayer(self)
        self.udp = UdpLayer(self)
        self.tcp = TcpLayer(self)

    # -- configuration ------------------------------------------------------

    def add_interface(self, name: Optional[str] = None) -> Interface:
        iface = Interface(self, name or f"eth{len(self.interfaces)}")
        self.interfaces.append(iface)
        return iface

    def add_route(self, prefix: int, prefix_len: int, iface: Interface) -> None:
        if prefix_len == 32:
            self.route_table[prefix] = iface
        else:
            self.routes.append(Route(prefix, prefix_len, iface))

    def add_exact_route(self, addr: int, iface: Interface) -> None:
        """Install a host (/32) route in the exact-match table."""
        self.route_table[addr] = iface

    def set_default_route(self, iface: Interface) -> None:
        self.add_route(0, 0, iface)

    # -- address helpers ----------------------------------------------------

    def is_local_address(self, addr: int) -> bool:
        return addr in self._local_addrs

    def primary_address(self) -> int:
        for iface in self.interfaces:
            if iface.addr:
                return iface.addr
        return 0

    def lookup_route(self, dst: int) -> Optional[Interface]:
        """True longest-prefix-match across connected networks and the
        routing table (a /32 host route beats a directly connected /30,
        so globally computed shortest paths override link adjacency).

        Masks are fixed when an interface is configured or a route is
        made, so each candidate costs one ``(dst ^ addr) & mask``.
        Nothing is remembered per destination: ``routes`` and
        ``route_table`` are edited in place by the topology builders.
        """
        exact = self.route_table.get(dst)
        if exact is not None:
            return exact
        best_iface: Optional[Interface] = None
        best_len = -1
        for iface in self.interfaces:
            if (
                iface.addr
                and iface._tx is not None
                and iface.prefix_len > best_len
                and not (dst ^ iface.addr) & iface.mask
            ):
                best_iface = iface
                best_len = iface.prefix_len
        for route in self.routes:
            if route.prefix_len > best_len and not (dst ^ route.prefix) & route.mask:
                best_iface = route.iface
                best_len = route.prefix_len
        return best_iface

    # -- packet paths ---------------------------------------------------------

    def receive(self, packet: IPv4Packet, iface: Optional[Interface]) -> None:
        self.ip.receive(packet, iface)

    def local_deliver(self, packet: IPv4Packet) -> None:
        """Dispatch a packet addressed to this node to its L4 handler."""
        if packet.proto == PROTO_ICMP:
            self.icmp.receive(packet)
        elif packet.proto == PROTO_UDP:
            self.udp.receive(packet)
        elif packet.proto == PROTO_TCP:
            self.tcp.receive(packet)
        # Unknown protocols are dropped silently (matching common kernels
        # when no raw listener exists).

    def send_ip(self, packet: IPv4Packet) -> bool:
        return self.ip.send(packet)

    def spawn(self, gen, name: str = "") -> "object":
        """Start an application process on this node."""
        return self.sim.spawn(gen, name=name or f"{self.name}-app")

    def __repr__(self) -> str:
        kind = "router" if self.forwarding else "host"
        return f"<Node {self.name} ({kind})>"
