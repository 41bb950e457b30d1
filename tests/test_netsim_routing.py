"""Tests for topology building, routing, TTL handling, and ICMP errors."""

import pytest

from repro.netsim.stack.ip import VERDICT_CONSUME, VERDICT_IGNORE, VERDICT_MIRROR
from repro.netsim.topology import Network, access_topology, linear_topology
from repro.packet.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    IcmpMessage,
    UNREACH_NET,
)
from repro.packet.ipv4 import PROTO_ICMP, PROTO_RAW_TEST, IPv4Packet
from repro.util.inet import parse_ip


def icmp_sink(node):
    """Collect ICMP messages arriving at a node."""
    messages = []
    node.icmp.add_listener(lambda packet, message: messages.append((node.sim.now, packet, message)))
    return messages


def test_linear_topology_is_routable_end_to_end():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    src.icmp.send_echo_request(dst.primary_address(), ident=1, seq=1)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_path_ground_truth():
    net, src, dst = linear_topology(hop_count=4)
    assert net.path_to(src, dst) == ["src", "r1", "r2", "r3", "r4", "dst"]


def test_ttl_expiry_generates_time_exceeded_from_each_router():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    for ttl in (1, 2, 3):
        src.icmp.send_echo_request(dst.primary_address(), ident=9, seq=ttl, ttl=ttl)
    net.run()
    exceeded = [m for _, _, m in messages if m.icmp_type == ICMP_TIME_EXCEEDED]
    assert len(exceeded) == 3
    # Each quotes the original echo request so the sender can match it.
    for message in exceeded:
        quote = message.original_datagram()
        assert quote[9] == PROTO_ICMP  # protocol byte of quoted header


def test_ttl_sufficient_reaches_destination():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    # Path src -> r1 -> r2 -> r3 -> dst crosses 3 routers; TTL 4 suffices.
    src.icmp.send_echo_request(dst.primary_address(), ident=9, seq=1, ttl=4)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_no_route_generates_net_unreachable():
    net, src, dst = linear_topology(hop_count=1)
    # Give src a default route so the packet reaches r1, which has no route
    # for the destination and must answer with net-unreachable.
    src.set_default_route(src.interfaces[0])
    messages = icmp_sink(src)
    src.send_ip(
        IPv4Packet(
            src=src.primary_address(),
            dst=parse_ip("203.0.113.99"),  # not in any routing table
            proto=PROTO_RAW_TEST,
            payload=b"lost",
        )
    )
    net.run()
    unreachable = [m for _, _, m in messages if m.icmp_type == ICMP_DEST_UNREACH]
    assert len(unreachable) == 1
    assert unreachable[0].code == UNREACH_NET


def test_no_icmp_error_about_icmp_error():
    """Routers must not generate time-exceeded for an ICMP error packet."""
    net, src, dst = linear_topology(hop_count=2)
    messages = icmp_sink(src)
    error = IcmpMessage.time_exceeded(b"\x45" + b"\x00" * 27)
    src.send_ip(
        IPv4Packet(
            src=src.primary_address(),
            dst=dst.primary_address(),
            proto=PROTO_ICMP,
            payload=error.encode(),
            ttl=1,  # expires at r1
        )
    )
    net.run()
    assert messages == []  # no error-about-error came back


def test_access_topology_shape():
    net, endpoint, controller, target = access_topology()
    assert net.path_to(endpoint, controller) == ["endpoint", "gw", "controller"]
    assert net.path_to(endpoint, target) == ["endpoint", "gw", "target"]


def test_loopback_delivery():
    net, src, dst = linear_topology(hop_count=1)
    messages = icmp_sink(src)
    src.icmp.send_echo_request(src.primary_address(), ident=5, seq=1)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


class TestRawTaps:
    def _echo_to(self, net, src, dst):
        src.icmp.send_echo_request(dst.primary_address(), ident=3, seq=1)
        net.run()

    def test_consume_hides_packet_from_os(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_CONSUME)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured  # tap saw the echo request
        assert not any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_mirror_duplicates_to_os(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_MIRROR)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_ignore_leaves_os_processing_intact(self):
        net, src, dst = linear_topology(hop_count=1)
        seen = []
        dst.ip.add_tap(lambda packet: (seen.append(packet), VERDICT_IGNORE)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert seen  # tap still observes
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_removed_tap_no_longer_called(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        tap = dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_CONSUME)[1])
        dst.ip.remove_tap(tap)
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured == []
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_clock_offset_and_skew():
    net = Network()
    host = net.add_host("h", clock_offset=10.0, clock_skew=100e-6)
    net.sim.schedule(5.0, lambda: None)
    net.run()
    assert net.sim.now == 5.0
    from repro.netsim.clock import CLOCK_EPOCH

    expected_local = 5.0 * (1 + 100e-6) + 10.0 + CLOCK_EPOCH
    assert host.clock.now() == pytest.approx(expected_local)
    assert host.clock.ticks() == pytest.approx(expected_local * 1e9, rel=1e-9)
    assert host.clock.to_true_time(host.clock.now()) == pytest.approx(5.0)


# -- route lookup: longest prefix, and no stale precomputed masks ---------------


class TestLookupRoute:
    def triangle(self):
        """r has three neighbours; every interface is a connected /30."""
        net = Network()
        r = net.add_router("r")
        for name in ("a", "b", "c"):
            net.link(r, net.add_host(name))
        to_a, to_b, to_c = r.interfaces
        return net, r, to_a, to_b, to_c

    def test_host_route_beats_connected_network_and_default_is_last(self):
        _net, r, to_a, to_b, to_c = self.triangle()
        neighbour = to_a.addr + 1  # a's end of the /30 connected via to_a
        assert r.lookup_route(neighbour) is to_a
        r.set_default_route(to_c)
        assert r.lookup_route(neighbour) is to_a  # /30 beats /0
        assert r.lookup_route(parse_ip("198.51.100.7")) is to_c
        r.add_route(parse_ip("198.51.100.0"), 24, to_b)
        assert r.lookup_route(parse_ip("198.51.100.7")) is to_b  # /24 beats /0
        assert r.lookup_route(parse_ip("198.51.101.7")) is to_c
        r.add_route(neighbour, 32, to_b)
        assert r.lookup_route(neighbour) is to_b  # /32 beats connected /30
        r.add_exact_route(parse_ip("198.51.100.7"), to_a)
        assert r.lookup_route(parse_ip("198.51.100.7")) is to_a  # /32 beats /24
        assert r.lookup_route(parse_ip("198.51.100.8")) is to_b

    def test_no_match_and_unattached_interfaces(self):
        _net, r, to_a, _to_b, _to_c = self.triangle()
        assert r.lookup_route(parse_ip("203.0.113.1")) is None
        spare = r.add_interface().configure(parse_ip("203.0.113.2"), 24)
        assert not spare.connected
        assert r.lookup_route(parse_ip("203.0.113.1")) is None

    def test_reconfigure_is_seen_by_the_next_lookup(self):
        _net, r, to_a, _to_b, _to_c = self.triangle()
        inside_24 = parse_ip("192.0.2.200")
        to_a.configure(parse_ip("192.0.2.1"), 24)
        assert r.lookup_route(inside_24) is to_a
        to_a.configure(parse_ip("192.0.2.1"), 30)  # same address, narrower
        assert r.lookup_route(inside_24) is None
        assert r.lookup_route(parse_ip("192.0.2.2")) is to_a
        to_a.configure(parse_ip("192.0.3.1"), 16)  # new address, wider
        assert r.lookup_route(inside_24) is to_a
        assert r.is_local_address(parse_ip("192.0.3.1"))
        assert not r.is_local_address(parse_ip("192.0.2.1"))

    def test_route_edits_are_seen_by_the_next_lookup(self):
        _net, r, to_a, to_b, to_c = self.triangle()
        far = parse_ip("198.51.100.7")
        assert r.lookup_route(far) is None
        r.set_default_route(to_a)
        assert r.lookup_route(far) is to_a
        r.add_route(parse_ip("198.51.100.0"), 24, to_b)
        assert r.lookup_route(far) is to_b
        r.add_route(far, 32, to_c)
        assert r.lookup_route(far) is to_c
        # The topology builders edit both tables in place.
        del r.route_table[far]
        assert r.lookup_route(far) is to_b
        r.routes.clear()
        assert r.lookup_route(far) is None

    def test_second_compute_routes_after_a_topology_edit(self):
        net = Network()
        a, r1, r2, b = (net.add_host("a"), net.add_router("r1"),
                        net.add_router("r2"), net.add_host("b"))
        net.link(a, r1)
        net.link(r1, r2, delay=0.010)
        net.link(r2, b)
        net.compute_routes()
        assert net.path_to(a, b) == ["a", "r1", "r2", "b"]
        slow = r1.lookup_route(b.primary_address())
        r3 = net.add_router("r3")  # a faster detour r1 -> r3 -> r2
        net.link(r1, r3, delay=0.001)
        net.link(r3, r2, delay=0.001)
        assert r1.lookup_route(b.primary_address()) is slow  # not until asked
        net.compute_routes()
        assert net.path_to(a, b) == ["a", "r1", "r3", "r2", "b"]
        assert r1.lookup_route(b.primary_address()) is not slow


def test_decremented_changes_only_the_ttl():
    packet = IPv4Packet(src=1, dst=2, proto=PROTO_RAW_TEST, payload=b"xyz",
                        ttl=9, ident=0xBEEF, dscp=46, dont_fragment=False)
    copy = packet.decremented()
    assert copy is not packet
    assert copy == IPv4Packet(src=1, dst=2, proto=PROTO_RAW_TEST, payload=b"xyz",
                              ttl=8, ident=0xBEEF, dscp=46, dont_fragment=False)
    assert packet.ttl == 9
    assert copy.payload is packet.payload
    for ttl in (0, -1):
        with pytest.raises(ValueError):
            IPv4Packet(src=1, dst=2, proto=1, payload=b"", ttl=ttl).decremented()
