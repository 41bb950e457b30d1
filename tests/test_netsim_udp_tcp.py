"""End-to-end tests for the UDP and mini-TCP stacks."""

import pytest

from repro.netsim.stack.tcp import (
    ConnectionRefused,
    ConnectionReset,
    ESTABLISHED,
    TcpError,
)
from repro.netsim.topology import Network, linear_topology
from repro.packet.icmp import ICMP_DEST_UNREACH, UNREACH_PORT, IcmpMessage
from repro.packet.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packet.tcp import FLAG_SYN, TcpSegment
from repro.packet.udp import UdpDatagram


def simple_pair(loss=0.0, seed=0, **kwargs):
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.link(a, b, loss_rate=loss, seed=seed, **kwargs)
    net.compute_routes()
    return net, a, b


class TestUdp:
    def test_datagram_delivery_and_reply(self):
        net, a, b = simple_pair()

        def server():
            sock = b.udp.bind(5000)
            payload, src_ip, src_port, dst_ip = yield sock.recvfrom()
            sock.sendto(payload.upper(), src_ip, src_port)

        def client():
            sock = a.udp.bind(0)
            sock.sendto(b"hello", b.primary_address(), 5000)
            payload, src_ip, src_port, _ = yield sock.recvfrom()
            return payload

        net.sim.spawn(server())
        result = net.sim.run_process(client(), timeout=5.0)
        assert result == b"HELLO"

    def test_closed_port_generates_port_unreachable(self):
        net, a, b = simple_pair()
        errors = []
        a.icmp.add_listener(lambda packet, m: errors.append(m))

        def client():
            sock = a.udp.bind(0)
            sock.sendto(b"nobody home", b.primary_address(), 4444)
            yield 1.0

        net.sim.run_process(client())
        net.run()
        assert any(
            m.icmp_type == ICMP_DEST_UNREACH and m.code == UNREACH_PORT
            for m in errors
        )

    def test_bind_conflict_rejected(self):
        net, a, b = simple_pair()
        a.udp.bind(7000)
        with pytest.raises(RuntimeError, match="already bound"):
            a.udp.bind(7000)

    def test_ephemeral_ports_unique(self):
        net, a, b = simple_pair()
        ports = {a.udp.bind(0).port for _ in range(50)}
        assert len(ports) == 50

    def test_close_releases_port(self):
        net, a, b = simple_pair()
        sock = a.udp.bind(8000)
        sock.close()
        a.udp.bind(8000)  # no conflict

    def test_rx_buffer_limit_drops(self):
        net, a, b = simple_pair()
        server_sock = b.udp.bind(5001)
        server_sock.rx_buffer_limit = 3

        def client():
            sock = a.udp.bind(0)
            for i in range(10):
                sock.sendto(bytes([i]), b.primary_address(), 5001)
            yield 1.0

        net.sim.run_process(client())
        net.run()
        assert len(server_sock.rx) == 3
        assert server_sock.rx_dropped == 7


class TestTcpHandshakeAndData:
    def test_connect_and_echo(self):
        net, a, b = simple_pair()

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            data = yield from conn.recv_exactly(5)
            conn.write(data[::-1])
            conn.close()

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(b"hello")
            result = yield from conn.recv_exactly(5)
            conn.close()
            yield from conn.wait_closed()
            return result

        net.sim.spawn(server())
        assert net.sim.run_process(client(), timeout=30.0) == b"olleh"

    def test_connect_to_closed_port_refused(self):
        net, a, b = simple_pair()

        def client():
            try:
                yield from a.tcp.open_connection(b.primary_address(), 81)
            except ConnectionRefused:
                return "refused"
            return "connected"

        assert net.sim.run_process(client(), timeout=30.0) == "refused"
        assert b.tcp.rsts_sent == 1

    def test_bulk_transfer_integrity(self):
        net, a, b = simple_pair(bandwidth_bps=20e6, delay=0.005)
        payload = bytes(range(256)) * 512  # 128 KiB

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            received = yield from conn.recv_exactly(len(payload))
            conn.close()
            return received

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(payload)
            conn.close()

        server_proc = net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert server_proc.result == payload

    def test_bulk_transfer_under_loss(self):
        net, a, b = simple_pair(loss=0.02, seed=7, bandwidth_bps=20e6, delay=0.005)
        payload = b"R" * 40000

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            received = yield from conn.recv_exactly(len(payload))
            return received

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(payload)
            conn.close()

        server_proc = net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert server_proc.result == payload

    def test_recv_returns_empty_at_eof(self):
        net, a, b = simple_pair()

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            conn.write(b"bye")
            conn.close()

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            data = yield from conn.recv_exactly(3)
            eof = yield from conn.recv()
            conn.close()
            return data, eof

        net.sim.spawn(server())
        data, eof = net.sim.run_process(client(), timeout=30.0)
        assert (data, eof) == (b"bye", b"")

    def test_abort_resets_peer(self):
        net, a, b = simple_pair()

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            try:
                yield from conn.recv()
            except ConnectionReset:
                return "reset"
            return "clean"

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            yield 0.1
            conn.abort()

        server_proc = net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert server_proc.result == "reset"


class TestTcpFlowControl:
    def test_write_never_waits_and_may_pass_the_buffer_capacity(self):
        """``write`` is the only send path: it appends at once, and the
        receiver's window paces what goes out, so a receiver that does
        not read stalls the sender on the wire."""
        net, a, b = simple_pair(bandwidth_bps=100e6, delay=0.001)
        listener = b.tcp.listen(80, rcv_buffer=4096)

        def server():
            conn = yield listener.accept()
            yield 5.0
            return (yield from conn.recv_exactly(40000))

        buffered = []

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(b"W" * 40000)
            buffered.append((net.sim.now, len(conn.snd_buffer)))
            yield 1.0
            assert conn.bytes_in_flight <= 4096  # the peer's window
            conn.close()
            with pytest.raises(TcpError):
                conn.write(b"late")

        server_proc = net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert server_proc.result == b"W" * 40000
        now, held = buffered[0]
        assert held == 40000 and now < 1.0

    def test_zero_window_then_reopen(self):
        net, a, b = simple_pair()
        listener = b.tcp.listen(80, rcv_buffer=2048)
        state = {}

        def server():
            conn = yield listener.accept()
            state["conn"] = conn
            yield 2.0
            # Drain everything slowly.
            total = b""
            while len(total) < 10000:
                chunk = yield from conn.recv(1000)
                if not chunk:
                    break
                total += chunk
            return total

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(b"Z" * 10000)
            conn.close()

        server_proc = net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert server_proc.result == b"Z" * 10000


class TestTcpStateMachine:
    def test_establishment_state(self):
        net, a, b = simple_pair()
        listener = b.tcp.listen(80)
        conns = {}

        def server():
            conn = yield listener.accept()
            conns["server"] = conn
            yield 1.0

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conns["client"] = conn
            yield 0.5
            assert conn.state == ESTABLISHED

        net.sim.spawn(server())
        net.sim.run_process(client(), timeout=5.0)
        assert conns["server"].state == ESTABLISHED

    def test_graceful_close_reaches_closed_on_both_sides(self):
        net, a, b = simple_pair()
        listener = b.tcp.listen(80)
        conns = {}

        def server():
            conn = yield listener.accept()
            conns["server"] = conn
            data = yield from conn.recv()
            conn.close()
            yield from conn.wait_closed()

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conns["client"] = conn
            conn.write(b"x")
            conn.close()
            yield from conn.wait_closed()

        net.sim.spawn(server())
        net.sim.spawn(client())
        net.run()
        assert conns["client"].state == "CLOSED"
        assert conns["server"].state == "CLOSED"

    def test_retransmission_recovers_lost_syn(self):
        net, a, b = simple_pair(loss=0.35, seed=99)

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            conn.write(b"ok")
            conn.close()

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            data = yield from conn.recv_exactly(2)
            return data

        net.sim.spawn(server())
        assert net.sim.run_process(client(), timeout=120.0) == b"ok"


def test_tcp_works_across_routers():
    net, src, dst = linear_topology(hop_count=3, bandwidth_bps=50e6)

    def server():
        listener = dst.tcp.listen(8080)
        conn = yield listener.accept()
        request = yield from conn.recv_exactly(4)
        conn.write(request * 2)
        conn.close()

    def client():
        conn = yield from src.tcp.open_connection(dst.primary_address(), 8080)
        conn.write(b"data")
        result = yield from conn.recv_exactly(8)
        conn.close()
        return result

    net.sim.spawn(server())
    assert net.sim.run_process(client(), timeout=30.0) == b"datadata"


class TestRejectedOnReceive:
    """A packet whose L4 checksum is bad is counted and otherwise ignored:
    no RST, no port-unreachable, no echo reply. Raw `nsend` can put any
    bytes on the wire, so receivers verify every time."""

    def inject(self, proto, good_l4, layer):
        """Send `good_l4` a -> b with its last bit flipped, then intact;
        only the first is rejected. Returns b's `layer`."""
        net, a, b = simple_pair()
        net.sim.obs.enabled = True
        src, dst = a.primary_address(), b.primary_address()
        raw = good_l4(src, dst)
        corrupted = raw[:-1] + bytes([raw[-1] ^ 0x01])
        stack = getattr(b, layer)
        seen = []
        for l4 in (corrupted, raw):
            a.send_ip(IPv4Packet(src=src, dst=dst, proto=proto, payload=l4))
            net.run()
            seen.append(stack.rx_rejected)
        assert seen == [1, 1]
        assert net.sim.obs.counter(f"{layer}.rx_rejected", node="b").value == 1
        assert getattr(a, layer).rx_rejected == 0
        return stack

    def test_tcp_bad_checksum_counted_and_elicits_no_rst(self):
        def syn_to_closed_port(src, dst):
            return TcpSegment(4000, 81, seq=7, ack=0, flags=FLAG_SYN,
                              window=1000, payload=b"x").encode(src, dst)

        tcp = self.inject(PROTO_TCP, syn_to_closed_port, "tcp")
        # Only the intact copy reached the demultiplexer and was refused.
        assert tcp.rsts_sent == 1

    def test_udp_bad_checksum_counted_and_elicits_no_port_unreachable(self):
        udp = self.inject(
            PROTO_UDP,
            lambda src, dst: UdpDatagram(4000, 4444, b"nobody").encode(src, dst),
            "udp",
        )
        assert udp.port_unreachable_sent == 1

    def test_icmp_bad_checksum_counted_and_not_answered(self):
        icmp = self.inject(
            PROTO_ICMP,
            lambda src, dst: IcmpMessage.echo_request(1, 1, b"ping").encode(),
            "icmp",
        )
        assert icmp.echo_requests_answered == 1


class TestStructuredCarriage:
    """A segment or datagram the stack builds rides the IPv4Packet parsed:
    between two sockets nothing encodes, checksums or decodes it. Its
    bytes, built only when read, are the ones it would have had on the
    wire, and they decode, checksum verified, to what was carried."""

    @staticmethod
    def count_codec_calls(monkeypatch):
        calls = []
        for codec in (TcpSegment, UdpDatagram, IPv4Packet):
            for name in ("encode", "decode"):
                original = getattr(codec, name)

                def counted(*args, _original=original,
                            _name=f"{codec.__name__}.{name}", **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                # decode is a classmethod: getattr bound it already.
                monkeypatch.setattr(codec, name, staticmethod(counted)
                                    if name == "decode" else counted)
        return calls

    @staticmethod
    def observe(net, seen):
        for link in net.links:
            link.add_observer(lambda t, d, packet, outcome: seen.append(packet))

    @staticmethod
    def tcp_exchange(net, src, dst):
        def server():
            listener = dst.tcp.listen(8080)
            conn = yield listener.accept()
            request = yield from conn.recv_exactly(3000)
            conn.write(request[::-1])
            conn.close()

        def client():
            conn = yield from src.tcp.open_connection(dst.primary_address(), 8080)
            conn.write(bytes(range(250)) * 12)
            reply = yield from conn.recv_exactly(3000)
            conn.close()
            return reply

        net.sim.spawn(server())
        return net.sim.run_process(client(), timeout=30.0)

    @staticmethod
    def udp_exchange(net, a, b):
        def server():
            sock = b.udp.bind(5000)
            payload, src_ip, src_port, _ = yield sock.recvfrom()
            sock.sendto(payload.upper(), src_ip, src_port)

        def client():
            sock = a.udp.bind(0)
            sock.sendto(b"hello", b.primary_address(), 5000)
            payload, _, _, _ = yield sock.recvfrom()
            return payload

        net.sim.spawn(server())
        return net.sim.run_process(client(), timeout=5.0)

    def test_nothing_between_two_sockets_touches_bytes(self, monkeypatch):
        calls = self.count_codec_calls(monkeypatch)
        net, src, dst = linear_topology(hop_count=3, bandwidth_bps=50e6)
        assert self.tcp_exchange(net, src, dst) == (bytes(range(250)) * 12)[::-1]
        net, a, b = simple_pair()
        assert self.udp_exchange(net, a, b) == b"HELLO"
        assert calls == []

    def test_carried_segment_is_what_its_bytes_decode_to(self):
        net, src, dst = linear_topology(hop_count=3, bandwidth_bps=50e6)
        seen = []
        self.observe(net, seen)
        self.tcp_exchange(net, src, dst)
        net, a, b = simple_pair()
        self.observe(net, seen)
        self.udp_exchange(net, a, b)
        assert {p.proto for p in seen} == {PROTO_TCP, PROTO_UDP}
        for packet in seen:
            codec = TcpSegment if packet.proto == PROTO_TCP else UdpDatagram
            assert packet.segment is not None
            raw = packet.encode()
            assert packet.total_length == len(raw)
            assert codec.decode(packet.payload, packet.src,
                                packet.dst) == packet.segment
            # The bytes form of the same packet is the same packet.
            assert IPv4Packet.decode(raw) == packet

    def test_a_packet_carries_bytes_or_a_segment(self):
        segment = UdpDatagram(1, 2, b"x")
        with pytest.raises(ValueError):
            IPv4Packet(1, 2, PROTO_UDP)
        with pytest.raises(ValueError):
            IPv4Packet(1, 2, PROTO_UDP, segment.encode(1, 2), segment=segment)

    def test_oversized_datagram_refused_at_the_socket(self):
        net, a, b = simple_pair()
        sock = a.udp.bind(0)
        with pytest.raises(ValueError):
            sock.sendto(bytes(65535 - 20 - 8 + 1), b.primary_address(), 5000)
        assert sock.sendto(bytes(65535 - 20 - 8), b.primary_address(), 5000)
