"""Tests for the NAT middlebox (endpoint-behind-NAT scenarios)."""

from repro.netsim.nat import natted_topology
from repro.packet.icmp import ICMP_ECHO_REPLY, ICMP_TIME_EXCEEDED
from repro.packet.ipv4 import PROTO_UDP, IPv4Packet
from repro.packet.udp import UdpDatagram


def test_udp_through_nat_round_trip():
    net, endpoint, nat, controller, target = natted_topology()
    observed_src = []

    def server():
        sock = target.udp.bind(9000)
        payload, src_ip, src_port, _ = yield sock.recvfrom()
        observed_src.append((src_ip, src_port))
        sock.sendto(b"pong:" + payload, src_ip, src_port)

    def client():
        sock = endpoint.udp.bind(1234)
        sock.sendto(b"ping", target.primary_address(), 9000)
        payload, _, _, dst_ip = yield sock.recvfrom()
        return payload, dst_ip

    net.sim.spawn(server())
    payload, dst_ip = net.sim.run_process(client(), timeout=10.0)
    assert payload == b"pong:ping"
    # The server saw the NAT's external address, not the endpoint's.
    assert observed_src[0][0] == nat.external_address()
    assert observed_src[0][0] != endpoint.primary_address()
    # The reply was translated back to the endpoint's internal address.
    assert dst_ip == endpoint.primary_address()


def test_tcp_through_nat():
    net, endpoint, nat, controller, target = natted_topology()

    def server():
        listener = target.tcp.listen(80)
        conn = yield listener.accept()
        data = yield from conn.recv_exactly(3)
        conn.write(data + b"!")
        conn.close()
        return conn.remote_ip

    def client():
        conn = yield from endpoint.tcp.open_connection(target.primary_address(), 80)
        conn.write(b"GET")
        return (yield from conn.recv_exactly(4))

    server_proc = net.sim.spawn(server())
    result = net.sim.run_process(client(), timeout=30.0)
    assert result == b"GET!"
    assert server_proc.result == nat.external_address()


def test_icmp_echo_through_nat():
    net, endpoint, nat, controller, target = natted_topology()
    replies = []
    endpoint.icmp.add_listener(lambda packet, m: replies.append((packet, m)))
    endpoint.icmp.send_echo_request(target.primary_address(), ident=77, seq=3)
    net.run()
    echo_replies = [m for _, m in replies if m.icmp_type == ICMP_ECHO_REPLY]
    assert len(echo_replies) == 1
    # Ident restored to the endpoint's original value on the way back in.
    assert echo_replies[0].echo_ident == 77
    assert echo_replies[0].echo_seq == 3


def test_icmp_time_exceeded_translated_back_through_nat():
    """Traceroute from behind a NAT: TTL-limited probes still produce
    time-exceeded errors that reach the inside host."""
    net, endpoint, nat, controller, target = natted_topology()
    messages = []
    endpoint.icmp.add_listener(lambda packet, m: messages.append(m))
    # TTL=2 expires at gw (endpoint -> nat -> gw): outside the NAT.
    endpoint.icmp.send_echo_request(target.primary_address(), ident=42, seq=1, ttl=2)
    net.run()
    exceeded = [m for m in messages if m.icmp_type == ICMP_TIME_EXCEEDED]
    assert len(exceeded) == 1
    # The quoted original must have been rewritten back to the inside view.
    quote = exceeded[0].original_datagram()
    quoted_src = int.from_bytes(quote[12:16], "big")
    assert quoted_src == endpoint.primary_address()
    quoted_ident = int.from_bytes(quote[24:26], "big")
    assert quoted_ident == 42


def test_unsolicited_inbound_dropped():
    net, endpoint, nat, controller, target = natted_topology()

    def prober():
        sock = target.udp.bind(0)
        # Probe the NAT's external address on an unmapped port.
        sock.sendto(b"scan", nat.external_address(), 31337, ttl=32)
        yield 1.0

    endpoint_received = []
    endpoint.udp.bind(31337).rx.put  # port exists inside, but no mapping
    net.sim.run_process(prober())
    net.run()
    assert endpoint_received == []
    assert nat.translations_in == 0


def test_nat_verifies_the_bytes_it_rewrites():
    """A datagram that entered as bytes is verified before the NAT puts a
    fresh checksum on it: a corrupt one is dropped, not laundered."""
    net, endpoint, nat, controller, target = natted_topology()
    sock = target.udp.bind(9000)
    src, dst = endpoint.primary_address(), target.primary_address()
    raw = UdpDatagram(1234, 9000, b"ping").encode(src, dst)
    for l4 in (raw[:-1] + bytes([raw[-1] ^ 0x01]), raw):
        endpoint.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_UDP, payload=l4))
    net.run()
    assert len(sock.rx) == 1
    assert target.udp.rx_rejected == 0
