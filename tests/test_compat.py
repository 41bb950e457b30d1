"""Tests for the BSD-socket compatibility layer (§3.5 future work)."""

from repro.compat import CompatError, CompatStack
from repro.core.testbed import Testbed
from repro.experiments.servers import start_http_server, start_udp_echo
from repro.filtervm import builtins
from repro.packet.icmp import ICMP_ECHO_REPLY, IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP


class TestCompatUdp:
    def test_sendto_recvfrom(self):
        testbed = Testbed()
        start_udp_echo(testbed.target_host, 9000, prefix=b"echo:")

        def experiment(handle):
            stack = CompatStack(handle)
            sock = yield from stack.udp_socket(testbed.target_address, 9000)
            yield from sock.sendto(b"old-model code")
            reply = yield from sock.recvfrom()
            yield from sock.close()
            return reply

        assert testbed.run_experiment(experiment) == b"echo:old-model code"

    def test_recvfrom_timeout_returns_none(self):
        testbed = Testbed()

        def experiment(handle):
            stack = CompatStack(handle)
            sock = yield from stack.udp_socket(testbed.target_address, 9999)
            yield from sock.sendto(b"into the void")
            return (yield from sock.recvfrom(timeout=0.5))

        assert testbed.run_experiment(experiment) is None

    def test_two_sockets_demultiplexed(self):
        """Records from different sockets route to the right buffers."""
        testbed = Testbed()
        start_udp_echo(testbed.target_host, 9001, prefix=b"A:")
        start_udp_echo(testbed.target_host, 9002, prefix=b"B:")

        def experiment(handle):
            stack = CompatStack(handle)
            sock_a = yield from stack.udp_socket(testbed.target_address, 9001)
            sock_b = yield from stack.udp_socket(testbed.target_address, 9002)
            yield from sock_a.sendto(b"one")
            yield from sock_b.sendto(b"two")
            reply_b = yield from sock_b.recvfrom()
            reply_a = yield from sock_a.recvfrom()
            return reply_a, reply_b

        reply_a, reply_b = testbed.run_experiment(experiment)
        assert reply_a == b"A:one"
        assert reply_b == b"B:two"

    def test_scheduled_send_escape_hatch(self):
        testbed = Testbed()
        start_udp_echo(testbed.target_host, 9000)

        def experiment(handle):
            stack = CompatStack(handle)
            sock = yield from stack.udp_socket(testbed.target_address, 9000)
            t0 = yield from handle.read_clock()
            yield from sock.sendto_at(b"later", t0 + 1_000_000_000)
            reply = yield from sock.recvfrom(timeout=5.0)
            return reply

        assert testbed.run_experiment(experiment) == b"later"


class TestCompatTcp:
    def test_http_fetch_old_style(self):
        """An HTTP GET written exactly like on-endpoint socket code."""
        testbed = Testbed()
        body = b"<html>compat layer works</html>"
        start_http_server(testbed.target_host, 80, {"/": body})

        def experiment(handle):
            stack = CompatStack(handle)
            conn = yield from stack.tcp_connect(testbed.target_address, 80)
            yield from conn.send(b"GET / HTTP/1.0\r\n\r\n")
            response = b""
            while True:
                chunk = yield from conn.recv(timeout=2.0)
                if chunk is None:
                    break
                response += chunk
            yield from conn.close()
            return response

        response = testbed.run_experiment(experiment)
        assert response.startswith(b"HTTP/1.0 200 OK")
        assert response.endswith(body)

    def test_connect_failure_raises(self):
        testbed = Testbed()

        def experiment(handle):
            stack = CompatStack(handle)
            try:
                yield from stack.tcp_connect(testbed.target_address, 7777)
            except CompatError as exc:
                return str(exc)
            return "connected"

        assert "tcp connect failed" in testbed.run_experiment(experiment)

    def test_recv_exactly_with_pushback(self):
        testbed = Testbed()

        def server():
            listener = testbed.target_host.tcp.listen(80)
            conn = yield listener.accept()
            conn.write(b"0123456789")
            conn.close()

        testbed.sim.spawn(server(), name="server")

        def experiment(handle):
            stack = CompatStack(handle)
            conn = yield from stack.tcp_connect(testbed.target_address, 80)
            first = yield from conn.recv_exactly(4)
            second = yield from conn.recv_exactly(6)
            return first, second

        first, second = testbed.run_experiment(experiment)
        assert first == b"0123"
        assert second == b"456789"


class TestCompatRaw:
    def test_ping_written_old_style(self):
        testbed = Testbed()
        endpoint_ip = testbed.endpoint_host.primary_address()

        def experiment(handle):
            stack = CompatStack(handle)
            sock = yield from stack.raw_socket(
                builtins.capture_protocol(PROTO_ICMP)
            )
            probe = IPv4Packet(
                src=endpoint_ip, dst=testbed.target_address, proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(7, 1).encode(),
            ).encode()
            yield from sock.send_packet(probe)
            result = yield from sock.recv_packet(timeout=3.0)
            yield from sock.close()
            return result

        result = testbed.run_experiment(experiment)
        assert result is not None
        raw, ticks = result
        reply = IPv4Packet.decode(raw)
        assert IcmpMessage.decode(reply.payload).icmp_type == ICMP_ECHO_REPLY
        assert ticks > 0
