"""Topology/routing tests beyond linear chains: meshes, shortest paths,
and route recomputation."""

from repro.netsim.topology import Network
from repro.packet.icmp import ICMP_ECHO_REPLY
from repro.packet.ipv4 import IPv4Packet, PROTO_RAW_TEST


def test_mesh_prefers_lower_delay_path():
    """Two paths a->b: direct slow (50 ms) vs two-hop fast (5+5 ms).
    Dijkstra (weight = delay) must pick the two-hop route."""
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    relay = net.add_router("relay")
    net.link(a, b, delay=0.050)
    net.link(a, relay, delay=0.005)
    net.link(relay, b, delay=0.005)
    net.compute_routes()
    assert net.path_to(a, b) == ["a", "relay", "b"]


def test_direct_path_wins_when_faster():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    relay = net.add_router("relay")
    net.link(a, b, delay=0.004)
    net.link(a, relay, delay=0.005)
    net.link(relay, b, delay=0.005)
    net.compute_routes()
    assert net.path_to(a, b) == ["a", "b"]


def test_triangle_routing_all_pairs():
    net = Network()
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    r3 = net.add_router("r3")
    hosts = {}
    for name, router in (("h1", r1), ("h2", r2), ("h3", r3)):
        hosts[name] = net.add_host(name)
        net.link(hosts[name], router, delay=0.001)
    net.link(r1, r2, delay=0.010)
    net.link(r2, r3, delay=0.010)
    net.link(r1, r3, delay=0.010)
    net.compute_routes()
    # Every pair is reachable over its one-router-hop shortest path.
    for src_name in hosts:
        for dst_name in hosts:
            if src_name == dst_name:
                continue
            path = net.path_to(hosts[src_name], hosts[dst_name])
            assert len(path) == 4  # host, router, router, host


def test_route_recompute_after_adding_link():
    """compute_routes() is idempotent and picks up new links."""
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    net.link(a, r1, delay=0.01)
    net.link(r1, r2, delay=0.01)
    net.link(r2, b, delay=0.01)
    net.compute_routes()
    assert net.path_to(a, b) == ["a", "r1", "r2", "b"]
    # A new shortcut appears; recompute must use it.
    net.link(r1, b, delay=0.001)
    net.compute_routes()
    assert net.path_to(a, b) == ["a", "r1", "b"]


def test_end_to_end_ping_across_mesh():
    net = Network()
    core = [net.add_router(f"c{i}") for i in range(4)]
    # Ring of four routers.
    for i in range(4):
        net.link(core[i], core[(i + 1) % 4], delay=0.005)
    src = net.add_host("src")
    dst = net.add_host("dst")
    net.link(src, core[0], delay=0.001)
    net.link(dst, core[2], delay=0.001)
    net.compute_routes()
    replies = []
    src.icmp.add_listener(lambda packet, m: replies.append(m))
    src.icmp.send_echo_request(dst.primary_address(), 1, 1)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for m in replies)
    # Either ring direction is two router hops: path length 4 nodes + dst.
    assert len(net.path_to(src, dst)) == 5


def test_disconnected_node_has_no_route():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    island = net.add_host("island")
    net.link(a, b)
    net.compute_routes()
    assert a.lookup_route(island.primary_address()) is None
    assert island.primary_address() == 0  # never linked -> no address


def test_host_does_not_forward_transit_traffic():
    """Hosts (forwarding=False) drop packets not addressed to them even
    when they sit on the path."""
    net = Network()
    a = net.add_host("a")
    middle = net.add_host("middle")  # a host, not a router
    c = net.add_host("c")
    net.link(a, middle, delay=0.001)
    net.link(middle, c, delay=0.001)
    net.compute_routes()
    received = []
    original = c.local_deliver
    c.local_deliver = lambda packet: (received.append(packet), original(packet))[1]
    a.send_ip(IPv4Packet(src=a.primary_address(), dst=c.primary_address(),
                         proto=PROTO_RAW_TEST, payload=b"transit"))
    net.run()
    assert received == []
    assert middle.ip.packets_forwarded == 0
