"""Network assembly: nodes, links, addressing, and route computation.

A :class:`Network` owns a simulator and a set of nodes. Links get /30
subnets allocated from 10.0.0.0/8 automatically; :meth:`Network.compute_routes`
runs Dijkstra (weight = link propagation delay) and installs host routes on
every node, so any topology becomes fully routable with one call.
"""

from __future__ import annotations

import heapq
from random import Random
from typing import Optional

from repro.netsim.kernel import Simulator
from repro.netsim.links import Link
from repro.netsim.node import Interface, Node
from repro.util.inet import format_ip, parse_ip

_BASE_NETWORK = parse_ip("10.0.0.0")
# Core links of the access and fleet topologies.
CORE_BANDWIDTH_BPS = 1e9
# The fleet's links: every access link runs at FLEET_ACCESS_BANDWIDTH_BPS
# with its delay drawn, seeded, from FLEET_ACCESS_DELAY
# * (1 ± FLEET_ACCESS_DELAY_SPREAD), so fleet-wide latency
# distributions are non-degenerate yet deterministic.
FLEET_ACCESS_BANDWIDTH_BPS = 10e6
FLEET_ACCESS_DELAY = 0.010
FLEET_ACCESS_DELAY_SPREAD = 0.5
FLEET_CORE_DELAY = 0.005


class Network:
    """A simulated network: simulator + nodes + links + addressing."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self._next_subnet = 0

    # -- node management ----------------------------------------------------

    def add_host(
        self,
        name: str,
        clock_offset: float = 0.0,
        clock_skew: float = 0.0,
    ) -> Node:
        return self._add_node(
            Node(
                self.sim,
                name,
                forwarding=False,
                clock_offset=clock_offset,
                clock_skew=clock_skew,
            )
        )

    def add_router(self, name: str) -> Node:
        return self._add_node(Node(self.sim, name, forwarding=True))

    def add_node(self, node: Node) -> Node:
        """Register an externally constructed node (e.g. a NAT box)."""
        return self._add_node(node)

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self.nodes[name]

    # -- links ----------------------------------------------------------------

    def allocate_subnet(self) -> int:
        """Allocate the next /30 from 10.0.0.0/8."""
        subnet = _BASE_NETWORK + self._next_subnet * 4
        self._next_subnet += 1
        if subnet >= parse_ip("11.0.0.0"):
            raise RuntimeError("subnet pool exhausted")
        return subnet

    def link(
        self,
        a: Node | str,
        b: Node | str,
        bandwidth_bps: float = 100e6,
        delay: float = 0.001,
        queue_bytes: int = 256 * 1024,
        loss_rate: float = 0.0,
        seed: int = 0,
        bandwidth_up_bps: Optional[float] = None,
        delay_up: Optional[float] = None,
        jitter: float = 0.0,
    ) -> Link:
        """Create a duplex link with automatically assigned /30 addresses."""
        node_a = self.nodes[a] if isinstance(a, str) else a
        node_b = self.nodes[b] if isinstance(b, str) else b
        subnet = self.allocate_subnet()
        iface_a = node_a.add_interface().configure(subnet + 1, 30)
        iface_b = node_b.add_interface().configure(subnet + 2, 30)
        link = Link(
            self.sim,
            iface_a,
            iface_b,
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            queue_bytes=queue_bytes,
            loss_rate=loss_rate,
            seed=seed,
            bandwidth_up_bps=bandwidth_up_bps,
            delay_up=delay_up,
            jitter=jitter,
        )
        self.links.append(link)
        return link

    # -- routing ----------------------------------------------------------------

    def compute_routes(self) -> None:
        """Install shortest-path (by propagation delay) host routes
        everywhere.

        Routes land in each node's exact-match ``route_table`` (one dict
        probe per forwarded packet). Purpose-built fleet topologies skip
        this generic all-pairs pass; see :func:`fleet_topology`.
        """
        adjacency = self._build_adjacency()
        for name, node in self.nodes.items():
            first_hop = self._dijkstra_first_hops(name, adjacency)
            node.routes.clear()
            node.route_table.clear()
            table = node.route_table
            for dest_name, iface in first_hop.items():
                if dest_name == name:
                    continue
                for dest_iface in self.nodes[dest_name].interfaces:
                    if dest_iface.addr:
                        table[dest_iface.addr] = iface

    def _build_adjacency(self) -> dict[str, list[tuple[str, float, Interface]]]:
        adjacency: dict[str, list[tuple[str, float, Interface]]] = {
            name: [] for name in self.nodes
        }
        for link in self.links:
            iface_a = link.reverse.dst_iface
            iface_b = link.forward.dst_iface
            assert iface_a is not None and iface_b is not None
            adjacency[iface_a.node.name].append(
                (iface_b.node.name, link.forward.delay, iface_a)
            )
            adjacency[iface_b.node.name].append(
                (iface_a.node.name, link.reverse.delay, iface_b)
            )
        return adjacency

    def _dijkstra_first_hops(
        self,
        source: str,
        adjacency: dict[str, list[tuple[str, float, Interface]]],
    ) -> dict[str, Interface]:
        """Shortest paths from ``source``; returns dest -> first-hop iface."""
        dist: dict[str, float] = {source: 0.0}
        first_hop: dict[str, Interface] = {}
        heap: list[tuple[float, str]] = [(0.0, source)]
        visited: set[str] = set()
        while heap:
            cost, current = heapq.heappop(heap)
            if current in visited:
                continue
            visited.add(current)
            for neighbor, weight, out_iface in adjacency[current]:
                candidate = cost + weight
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    first_hop[neighbor] = (
                        out_iface if current == source else first_hop[current]
                    )
                    heapq.heappush(heap, (candidate, neighbor))
        return first_hop

    # -- convenience topologies ---------------------------------------------

    def path_to(self, src: Node | str, dst: Node | str) -> list[str]:
        """Ground-truth router path between two nodes (for traceroute
        validation)."""
        src_node = self.nodes[src] if isinstance(src, str) else src
        dst_node = self.nodes[dst] if isinstance(dst, str) else dst
        path = [src_node.name]
        current = src_node
        guard = 0
        while current is not dst_node:
            iface = current.lookup_route(dst_node.primary_address())
            if iface is None or iface._tx is None:
                raise RuntimeError(
                    f"no route from {current.name} to {dst_node.name}"
                )
            next_iface = iface._tx.dst_iface
            assert next_iface is not None
            current = next_iface.node
            path.append(current.name)
            guard += 1
            if guard > 64:
                raise RuntimeError("routing loop detected")
        return path

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


def linear_topology(
    hop_count: int,
    link_delay: float = 0.005,
    bandwidth_bps: float = 100e6,
) -> tuple[Network, Node, Node]:
    """``src -- r1 -- r2 -- ... -- rN -- dst`` chain, routed and ready.

    Returns ``(network, src_host, dst_host)``.
    """
    net = Network()
    src = net.add_host("src")
    previous: Node = src
    for index in range(hop_count):
        router = net.add_router(f"r{index + 1}")
        net.link(previous, router, delay=link_delay, bandwidth_bps=bandwidth_bps)
        previous = router
    dst = net.add_host("dst")
    net.link(previous, dst, delay=link_delay, bandwidth_bps=bandwidth_bps)
    net.compute_routes()
    return net, src, dst


def access_topology(
    access_bandwidth_bps: float = 10e6,
    access_delay: float = 0.010,
    core_delay: float = 0.020,
    uplink_bandwidth_bps: Optional[float] = None,
    access_jitter: float = 0.0,
) -> tuple[Network, Node, Node, Node]:
    """The paper's deployment shape: an endpoint behind a constrained access
    link, a controller and a measurement target on the far side of a core.

    ::

        endpoint --(access link)-- gw --(core)-- controller
                                      \\--(core)-- target

    Returns ``(network, endpoint_host, controller_host, target_host)``. The
    access link is asymmetric when ``uplink_bandwidth_bps`` is given
    (``bandwidth`` = downstream to the endpoint, ``uplink`` = upstream).
    """
    net = Network()
    endpoint = net.add_host("endpoint")
    gateway = net.add_router("gw")
    controller = net.add_host("controller")
    target = net.add_host("target")
    net.link(
        gateway,
        endpoint,
        bandwidth_bps=access_bandwidth_bps,
        delay=access_delay,
        bandwidth_up_bps=uplink_bandwidth_bps,
        jitter=access_jitter,
    )
    net.link(gateway, controller, bandwidth_bps=CORE_BANDWIDTH_BPS,
             delay=core_delay)
    net.link(gateway, target, bandwidth_bps=CORE_BANDWIDTH_BPS,
             delay=core_delay)
    net.compute_routes()
    return net, endpoint, controller, target


def fleet_topology(
    endpoint_count: int,
    kind: str = "star",
    fanout: int = 8,
    seed: int = 0,
) -> tuple[Network, list[Node], Node, Node]:
    """A measurement *fleet*: many endpoint hosts behind a shared core.

    Three shapes, all with the controller and measurement target on the
    core side (the PacketLab deployment model scaled out):

    - ``star`` — every endpoint hangs off one core router,
    - ``tree`` — an N-ary router tree (``fanout`` children per router);
      endpoints attach round-robin to the deepest routers,
    - ``mesh`` — a router ring with cross-chords; endpoints distribute
      round-robin over the ring.

    Access-link delays vary per endpoint by
    ``±FLEET_ACCESS_DELAY_SPREAD`` (fractional, seeded by ``seed``).

    Returns ``(network, endpoint_hosts, controller_host, target_host)``.
    """
    if endpoint_count < 1:
        raise ValueError(f"endpoint_count must be >= 1, got {endpoint_count}")
    net = Network()
    rng = Random(seed)

    # Parent -> child edges recorded during construction; the specialized
    # route installers consume these instead of re-deriving the shape.
    edges: list[tuple[Node, Node, Interface, Interface]] = []

    def attach(parent: Node, child: Node, **kwargs) -> None:
        link = net.link(parent, child, **kwargs)
        parent_iface = link.reverse.dst_iface
        child_iface = link.forward.dst_iface
        assert parent_iface is not None and child_iface is not None
        edges.append((parent, child, parent_iface, child_iface))

    def access_delay_for() -> float:
        spread = FLEET_ACCESS_DELAY_SPREAD
        return FLEET_ACCESS_DELAY * (1.0 + rng.uniform(-spread, spread))

    routers: list[Node] = []
    if kind == "star":
        core = net.add_router("core")
        attach_points = [core]
    elif kind == "tree":
        fanout = max(2, fanout)
        core = net.add_router("core")
        level = [core]
        depth = 0
        # Grow until the deepest level has a router per `fanout` endpoints.
        leaves_needed = max(1, -(-endpoint_count // fanout))
        while len(level) < leaves_needed:
            depth += 1
            next_level = []
            for parent in level:
                for child_index in range(fanout):
                    child = net.add_router(
                        f"t{depth}-{parent.name}-{child_index}"
                    )
                    attach(parent, child,
                           bandwidth_bps=CORE_BANDWIDTH_BPS,
                           delay=FLEET_CORE_DELAY)
                    next_level.append(child)
                    if len(next_level) >= leaves_needed:
                        break
                if len(next_level) >= leaves_needed:
                    break
            level = next_level
        attach_points = level
    elif kind == "mesh":
        ring_size = max(3, fanout)
        routers = [net.add_router(f"m{index}") for index in range(ring_size)]
        for index, router in enumerate(routers):
            net.link(router, routers[(index + 1) % ring_size],
                     bandwidth_bps=CORE_BANDWIDTH_BPS, delay=FLEET_CORE_DELAY)
        # Chords halve the ring diameter.
        if ring_size >= 5:
            half = ring_size // 2
            for index in range(0, half, 2):
                net.link(routers[index], routers[index + half],
                         bandwidth_bps=CORE_BANDWIDTH_BPS,
                         delay=FLEET_CORE_DELAY)
        core = routers[0]
        attach_points = routers
    else:
        raise ValueError(f"unknown fleet topology kind: {kind!r}")

    controller = net.add_host("controller")
    target = net.add_host("target")
    attach(core, controller, bandwidth_bps=CORE_BANDWIDTH_BPS,
           delay=FLEET_CORE_DELAY)
    target_attach = attach_points[len(attach_points) // 2]
    attach(target_attach, target, bandwidth_bps=CORE_BANDWIDTH_BPS,
           delay=FLEET_CORE_DELAY)

    endpoints = []
    for index in range(endpoint_count):
        host = net.add_host(f"ep{index}")
        attach(
            attach_points[index % len(attach_points)],
            host,
            bandwidth_bps=FLEET_ACCESS_BANDWIDTH_BPS,
            delay=access_delay_for(),
        )
        endpoints.append(host)
    if kind == "mesh":
        _install_mesh_routes(net, routers, edges)
    else:
        _install_tree_routes(net, core, edges)
    return net, endpoints, controller, target


def _install_tree_routes(
    net: Network,
    root: Node,
    edges: list[tuple[Node, Node, Interface, Interface]],
) -> None:
    """Shortest-path routes for a pure tree in O(nodes * depth).

    One DFS from the root installs, at every router, exact-match routes
    for each child subtree's addresses; every non-root node also gets a
    default route toward its parent. At each hop the exact table wins
    when the destination is below, the default points up otherwise —
    exactly the shortest path in a tree, without the per-node Dijkstra
    the generic :meth:`Network.compute_routes` pays (quadratic at fleet
    scale).
    """
    children: dict[str, list[tuple[Node, Interface]]] = {}
    uplinks: list[tuple[Node, Interface]] = []
    for parent, child, parent_iface, child_iface in edges:
        children.setdefault(parent.name, []).append((child, parent_iface))
        uplinks.append((child, child_iface))

    def install(node: Node) -> list[int]:
        addrs = [iface.addr for iface in node.interfaces if iface.addr]
        table = node.route_table
        for child, parent_iface in children.get(node.name, ()):
            for addr in install(child):
                table[addr] = parent_iface
                addrs.append(addr)
        return addrs

    install(root)
    # A recursive closure holds itself through its cell; emptying the
    # cell frees it without a collector pass.
    del install
    for child, child_iface in uplinks:
        child.set_default_route(child_iface)


def _install_mesh_routes(
    net: Network,
    routers: list[Node],
    host_edges: list[tuple[Node, Node, Interface, Interface]],
) -> None:
    """Routes for a router mesh with single-homed hosts hanging off it.

    Dijkstra runs once per *router* (the ring stays small regardless of
    endpoint count) instead of once per node; hosts just default-route to
    their attach router.
    """
    adjacency = net._build_adjacency()
    for router in routers:
        first_hop = net._dijkstra_first_hops(router.name, adjacency)
        table = router.route_table
        for dest_name, iface in first_hop.items():
            if dest_name == router.name:
                continue
            for dest_iface in net.nodes[dest_name].interfaces:
                if dest_iface.addr:
                    table[dest_iface.addr] = iface
    for _parent, host, _parent_iface, host_iface in host_edges:
        host.set_default_route(host_iface)


def describe(network: Network) -> str:
    """Human-readable topology dump (handy in examples)."""
    lines = []
    for name, node in sorted(network.nodes.items()):
        kind = "router" if node.forwarding else "host"
        addrs = ", ".join(
            f"{iface.name}={format_ip(iface.addr)}/{iface.prefix_len}"
            for iface in node.interfaces
            if iface.addr
        )
        lines.append(f"{name} ({kind}): {addrs}")
    return "\n".join(lines)
