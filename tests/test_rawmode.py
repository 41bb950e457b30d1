"""Raw-mode OS interference (§3.1, claim C3): the endpoint kernel RSTs
TCP sessions created through the raw interface unless the ncap filter
consumes the incoming segments."""

from repro.core.testbed import Testbed
from repro.filtervm import builtins
from repro.filtervm.vm import VERDICT_CONSUME, VERDICT_MIRROR
from repro.netsim.clock import NANOSECONDS
from repro.packet.ipv4 import IPv4Packet, PROTO_TCP
from repro.packet.tcp import (
    FLAG_ACK,
    FLAG_SYN,
    TcpSegment,
)


def craft_segment(src, dst, segment):
    return IPv4Packet(
        src=src, dst=dst, proto=PROTO_TCP, payload=segment.encode(src, dst)
    ).encode()


def raw_handshake_experiment(testbed, verdict, port=80, src_port=45000):
    """Attempt a TCP 3-way handshake from the controller via raw sockets."""
    endpoint_ip = testbed.endpoint_host.primary_address()
    target_ip = testbed.target_address

    def experiment(handle):
        yield from handle.nopen_raw(0)
        now = yield from handle.read_clock()
        status = yield from handle.ncap(
            0, now + 60 * NANOSECONDS,
            builtins.capture_protocol(PROTO_TCP, verdict=verdict),
        )
        handle.expect_ok(status, "ncap")
        syn = TcpSegment(
            src_port=src_port, dst_port=port, seq=1000, ack=0,
            flags=FLAG_SYN, window=65535, mss=1460,
        )
        yield from handle.nsend(0, 0, craft_segment(endpoint_ip, target_ip, syn))
        # Wait for the SYN-ACK to be captured (or not).
        poll = yield from handle.npoll(now + 5 * NANOSECONDS)
        synack = None
        for record in poll.records:
            packet = IPv4Packet.decode(record.data, verify_checksum=False)
            segment = TcpSegment.decode(packet.payload, verify_checksum=False)
            if segment.has(FLAG_SYN) and segment.has(FLAG_ACK):
                synack = segment
        if synack is None:
            return None
        ack = TcpSegment(
            src_port=src_port, dst_port=port, seq=1001,
            ack=(synack.seq + 1) & 0xFFFFFFFF, flags=FLAG_ACK, window=65535,
        )
        yield from handle.nsend(0, 0, craft_segment(endpoint_ip, target_ip, ack))
        yield 1.0
        return synack

    return experiment


class TestOwnConnectionsExempt:
    """Raw capture never sees a connection the agent opened itself: here
    the rendezvous subscription carrying a second experiment's offer,
    and the dial to that second controller while it is still in
    Hello/Auth."""

    def _second_offer_during_capture(self, verdict):
        testbed = Testbed()
        rdz = testbed.start_rendezvous()
        rdz_addr = testbed.controller_host.primary_address()
        testbed.endpoint.start_rendezvous(rdz_addr, rdz.port)
        first, first_descriptor = testbed.make_controller("first")
        second, second_descriptor = testbed.make_controller("second")

        def publish(descriptor):
            ok, reason = yield from testbed.experimenter.publish(
                testbed.controller_host, rdz_addr, rdz.port, descriptor
            )
            assert ok, reason

        def run():
            yield from publish(first_descriptor)
            handle = yield first.wait_endpoint()
            yield from handle.nopen_raw(0)
            now = yield from handle.read_clock()
            status = yield from handle.ncap(
                0, now + 60 * NANOSECONDS, builtins.capture_all(verdict)
            )
            handle.expect_ok(status, "ncap")
            yield from publish(second_descriptor)
            yield 10.0
            poll = yield from handle.npoll(0)
            handle.bye()
            return poll.records

        records = testbed.sim.run_process(run(), timeout=120.0)
        packets = [IPv4Packet.decode(record.data, verify_checksum=False)
                   for record in records]
        from_rdz = [
            packet for packet in packets
            if packet.proto == PROTO_TCP and TcpSegment.decode(
                packet.payload, verify_checksum=False
            ).src_port == rdz.port
        ]
        return from_rdz, len(second.endpoints)

    def test_mirror_does_not_leak_the_offer_to_the_experimenter(self):
        from_rdz, _ = self._second_offer_during_capture(VERDICT_MIRROR)
        assert from_rdz == []

    def test_consume_does_not_swallow_the_offer(self):
        from_rdz, dialed = self._second_offer_during_capture(VERDICT_CONSUME)
        assert from_rdz == []
        assert dialed == 1


class TestRawModeInterference:
    def _testbed_with_listener(self):
        testbed = Testbed()
        accepted = []

        def server():
            listener = testbed.target_host.tcp.listen(80)
            while True:
                conn = yield listener.accept()
                accepted.append(conn)

        testbed.sim.spawn(server(), name="listener")
        return testbed, accepted

    def test_without_consume_kernel_rst_kills_handshake(self):
        """Capture-with-mirror leaves the SYN-ACK visible to the endpoint
        OS, which has no matching connection and answers with RST — the
        exact interference §3.1 describes."""
        testbed, accepted = self._testbed_with_listener()
        experiment = raw_handshake_experiment(testbed, VERDICT_MIRROR)
        testbed.run_experiment(experiment, timeout=120.0)
        # The endpoint's kernel sent an RST in response to the SYN-ACK.
        assert testbed.endpoint_host.tcp.rsts_sent >= 1
        # The target's half-open connection was reset, never established.
        assert accepted == []

    def test_consume_filter_suppresses_kernel_rst(self):
        """With the consume verdict, the OS never sees the SYN-ACK: no
        RST, and the controller completes the handshake itself."""
        testbed, accepted = self._testbed_with_listener()
        experiment = raw_handshake_experiment(testbed, VERDICT_CONSUME)
        synack = testbed.run_experiment(experiment, timeout=120.0)
        assert synack is not None
        assert testbed.endpoint_host.tcp.rsts_sent == 0
        assert len(accepted) == 1  # target reached ESTABLISHED

    def test_mirror_still_captures_for_controller(self):
        """Mirror mode fails the handshake but the controller still saw
        the SYN-ACK — mirror is observation, not interposition."""
        testbed, accepted = self._testbed_with_listener()
        experiment = raw_handshake_experiment(testbed, VERDICT_MIRROR)
        synack = testbed.run_experiment(experiment, timeout=120.0)
        assert synack is not None  # captured a copy before the kernel RST
