"""End-to-end tests: controller <-> endpoint over the wire protocol.

These exercise the full stack: simulated TCP control channel, certificate
verification at the endpoint, and every Table 1 operation.
"""

import pytest

from repro.core.testbed import Testbed
from repro.controller.client import CommandError
from repro.controller.clocksync import estimate_clock
from repro.endpoint.memory import (
    OFF_ADDR_IP,
    OFF_CAPS,
    OFF_CLOCK,
    SCRATCH_START,
)
from repro.filtervm import builtins
from repro.netsim.clock import NANOSECONDS
from repro.packet.icmp import ICMP_ECHO_REPLY, IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.proto.constants import (
    CAP_RAW,
    ST_BAD_ARGUMENT,
    ST_BAD_SOCKET,
    ST_CONNECT_FAILED,
    ST_OK,
    ST_UNSUPPORTED,
)


def run_simple(testbed, experiment, **kwargs):
    return testbed.run_experiment(experiment, **kwargs)


class TestSessionEstablishment:
    def test_endpoint_connects_and_authenticates(self):
        testbed = Testbed()

        def experiment(handle):
            assert handle.session_id == 1
            assert handle.caps & CAP_RAW
            assert handle.endpoint_name == "ep0"
            yield 0.0
            return "ok"

        assert run_simple(testbed, experiment) == "ok"

    def test_wrong_operator_chain_rejected(self):
        from repro.controller.session import Experimenter

        testbed = Testbed()
        imposter = Experimenter("imposter")
        from repro.crypto.keys import KeyPair

        rogue_operator = KeyPair.from_name("rogue-operator")
        imposter.granted_endpoint_access(rogue_operator)
        server, descriptor = testbed.make_controller(experimenter=imposter)
        testbed.connect_endpoint(descriptor)
        testbed.run(until=10.0)
        assert testbed.endpoint.auth_failures == 1
        assert len(server.auth_failures) == 1
        assert "not anchored" in server.auth_failures[0]

    def test_expired_certificate_rejected(self):
        from repro.crypto.certificate import Restrictions

        testbed = Testbed()
        server, descriptor = testbed.make_controller(
            experiment_restrictions=Restrictions(not_after=-1.0)
        )
        testbed.connect_endpoint(descriptor)
        testbed.run(until=10.0)
        assert testbed.endpoint.auth_failures == 1

    def test_priority_above_cap_rejected(self):
        from repro.crypto.certificate import Restrictions
        from repro.controller.session import Experimenter

        testbed = Testbed()
        limited = Experimenter("limited")
        limited.granted_endpoint_access(
            testbed.operator, Restrictions(max_priority=2)
        )
        server, descriptor = testbed.make_controller(
            experimenter=limited, priority=5
        )
        testbed.connect_endpoint(descriptor)
        testbed.run(until=10.0)
        assert testbed.endpoint.auth_failures == 1
        assert "exceeds certificate cap" in server.auth_failures[0]


class TestMemoryCommands:
    def test_mread_clock_is_endpoint_local(self):
        testbed = Testbed(endpoint_clock_offset=100.0)

        def experiment(handle):
            ticks = yield from handle.read_clock()
            return ticks, testbed.sim.now

        ticks, sim_now = run_simple(testbed, experiment)
        from repro.netsim.clock import CLOCK_EPOCH

        local = testbed.endpoint_host.clock.from_ticks(ticks)
        # The clock reading reflects the 100 s offset (modulo control RTT).
        assert local == pytest.approx(sim_now + 100.0 + CLOCK_EPOCH, abs=1.0)

    def test_mread_address_field(self):
        testbed = Testbed()

        def experiment(handle):
            data = yield from handle.mread(OFF_ADDR_IP, 4)
            return int.from_bytes(data, "big")

        assert run_simple(testbed, experiment) == (
            testbed.endpoint_host.primary_address()
        )

    def test_mread_caps(self):
        testbed = Testbed(allow_raw=False)

        def experiment(handle):
            data = yield from handle.mread(OFF_CAPS, 2)
            return int.from_bytes(data, "big")

        caps = run_simple(testbed, experiment)
        assert not caps & CAP_RAW

    def test_mwrite_scratch_round_trip(self):
        testbed = Testbed()

        def experiment(handle):
            status = yield from handle.mwrite(SCRATCH_START + 10, b"notes")
            handle.expect_ok(status, "mwrite")
            data = yield from handle.mread(SCRATCH_START + 10, 5)
            return data

        assert run_simple(testbed, experiment) == b"notes"

    def test_mwrite_info_block_rejected(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from handle.mwrite(OFF_CLOCK, b"\x00" * 8))

        from repro.proto.constants import ST_MEM_FAULT

        assert run_simple(testbed, experiment) == ST_MEM_FAULT

    def test_mread_out_of_range_faults(self):
        testbed = Testbed()

        def experiment(handle):
            try:
                yield from handle.mread(100_000, 4)
            except CommandError as exc:
                return exc.status
            return ST_OK

        from repro.proto.constants import ST_MEM_FAULT

        assert run_simple(testbed, experiment) == ST_MEM_FAULT


class TestUdpSockets:
    def _udp_echo_server(self, testbed, port=9000):
        target = testbed.target_host

        def server():
            sock = target.udp.bind(port)
            while True:
                payload, src_ip, src_port, _ = yield sock.recvfrom()
                sock.sendto(b"echo:" + payload, src_ip, src_port)

        testbed.sim.spawn(server(), name="udp-echo")

    def test_udp_send_and_poll(self):
        testbed = Testbed()
        self._udp_echo_server(testbed)

        def experiment(handle):
            status = yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            handle.expect_ok(status, "nopen")
            now = yield from handle.read_clock()
            status = yield from handle.nsend(0, now, b"hello")
            handle.expect_ok(status, "nsend")
            poll = yield from handle.npoll(now + 5 * NANOSECONDS)
            return poll

        poll = run_simple(testbed, experiment)
        assert len(poll.records) == 1
        assert poll.records[0].data == b"echo:hello"
        assert poll.records[0].sktid == 0
        assert poll.dropped_packets == 0

    def test_scheduled_send_fires_at_requested_time(self):
        testbed = Testbed()
        self._udp_echo_server(testbed)
        send_times = []
        # Observe actual UDP departure at the endpoint's access link.
        from repro.netsim.trace import PacketTrace
        from repro.packet.ipv4 import PROTO_UDP

        trace = PacketTrace()
        for link in testbed.net.links:
            trace.attach(link)

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            t0 = yield from handle.read_clock()
            # Schedule 2 seconds into the future, endpoint-local.
            due = t0 + 2 * NANOSECONDS
            yield from handle.nsend(0, due, b"later")
            poll = yield from handle.npoll(t0 + 10 * NANOSECONDS)
            return t0, due, poll

        t0, due, poll = run_simple(testbed, experiment)
        udp_sends = trace.select(outcome="sent", proto=PROTO_UDP,
                                 src=testbed.endpoint_host.primary_address())
        assert udp_sends
        sent_sim_time = udp_sends[0].time
        expected_sim = testbed.endpoint_host.clock.to_true_time(due / NANOSECONDS)
        assert sent_sim_time == pytest.approx(expected_sim, abs=0.001)

    def test_past_time_sends_immediately(self):
        testbed = Testbed()
        self._udp_echo_server(testbed)

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            start = testbed.sim.now
            yield from handle.nsend(0, 0, b"now")  # time 0 is long past
            poll = yield from handle.npoll(
                (yield from handle.read_clock()) + 5 * NANOSECONDS
            )
            return testbed.sim.now - start, poll

        elapsed, poll = run_simple(testbed, experiment)
        assert poll.records
        assert elapsed < 1.0

    def test_nclose_frees_socket_id(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_udp(3, locport=1111)
            dup = yield from handle.nopen_udp(3, locport=2222)
            status = yield from handle.nclose(3)
            handle.expect_ok(status, "nclose")
            reopened = yield from handle.nopen_udp(3, locport=3333)
            return dup, reopened

        dup, reopened = run_simple(testbed, experiment)
        assert dup == ST_BAD_SOCKET
        assert reopened == ST_OK

    def test_nsend_on_unknown_socket(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from handle.nsend(9, 0, b"x"))

        assert run_simple(testbed, experiment) == ST_BAD_SOCKET


class TestTcpSockets:
    def test_tcp_connect_send_receive(self):
        testbed = Testbed()
        target = testbed.target_host

        def server():
            listener = target.tcp.listen(80)
            conn = yield listener.accept()
            request = yield from conn.recv_exactly(4)
            conn.write(b"RESP:" + request)
            conn.close()

        testbed.sim.spawn(server(), name="tcp-server")

        def experiment(handle):
            status = yield from handle.nopen_tcp(
                0, remaddr=testbed.target_address, remport=80
            )
            handle.expect_ok(status, "nopen")
            yield from handle.nsend(0, 0, b"GET/")
            now = yield from handle.read_clock()
            poll = yield from handle.npoll(now + 10 * NANOSECONDS)
            return b"".join(record.data for record in poll.records)

        assert run_simple(testbed, experiment) == b"RESP:GET/"

    def test_tcp_connect_refused_status(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from handle.nopen_tcp(
                0, remaddr=testbed.target_address, remport=4242
            ))

        assert run_simple(testbed, experiment) == ST_CONNECT_FAILED


class TestRawSockets:
    def test_raw_ping_via_packetlab(self):
        """Craft an ICMP echo on the controller, send raw, capture reply."""
        testbed = Testbed()
        endpoint_ip = testbed.endpoint_host.primary_address()
        target_ip = testbed.target_address

        def experiment(handle):
            status = yield from handle.nopen_raw(0)
            handle.expect_ok(status, "nopen")
            now = yield from handle.read_clock()
            status = yield from handle.ncap(
                0, now + 60 * NANOSECONDS, builtins.capture_protocol(PROTO_ICMP)
            )
            handle.expect_ok(status, "ncap")
            probe = IPv4Packet(
                src=endpoint_ip, dst=target_ip, proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(0x42, 1, b"pingdata").encode(),
            ).encode()
            yield from handle.nsend(0, 0, probe)
            poll = yield from handle.npoll(now + 10 * NANOSECONDS)
            return poll

        poll = run_simple(testbed, experiment)
        assert len(poll.records) == 1
        reply = IPv4Packet.decode(poll.records[0].data)
        assert reply.src == target_ip
        message = IcmpMessage.decode(reply.payload)
        assert message.icmp_type == ICMP_ECHO_REPLY
        assert message.echo_ident == 0x42
        assert message.body == b"pingdata"

    def test_raw_requires_capability(self):
        testbed = Testbed(allow_raw=False)

        def experiment(handle):
            return (yield from handle.nopen_raw(0))

        assert run_simple(testbed, experiment) == ST_UNSUPPORTED

    def test_no_capture_without_ncap(self):
        """§3.1: default is to drop all packets until a filter is set."""
        testbed = Testbed()
        endpoint_ip = testbed.endpoint_host.primary_address()
        target_ip = testbed.target_address

        def experiment(handle):
            yield from handle.nopen_raw(0)
            probe = IPv4Packet(
                src=endpoint_ip, dst=target_ip, proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(1, 1).encode(),
            ).encode()
            yield from handle.nsend(0, 0, probe)
            now = yield from handle.read_clock()
            poll = yield from handle.npoll(now + 2 * NANOSECONDS)
            return poll

        poll = run_simple(testbed, experiment)
        assert poll.records == ()

    def test_ncap_deadline_expires(self):
        testbed = Testbed()
        endpoint_ip = testbed.endpoint_host.primary_address()
        target_ip = testbed.target_address

        def experiment(handle):
            yield from handle.nopen_raw(0)
            now = yield from handle.read_clock()
            # Filter valid for only 1 second of endpoint time.
            yield from handle.ncap(
                0, now + 1 * NANOSECONDS, builtins.capture_protocol(PROTO_ICMP)
            )
            probe = IPv4Packet(
                src=endpoint_ip, dst=target_ip, proto=PROTO_ICMP,
                payload=IcmpMessage.echo_request(1, 1).encode(),
            ).encode()
            # Schedule the probe *after* the filter deadline.
            yield from handle.nsend(0, now + 3 * NANOSECONDS, probe)
            poll = yield from handle.npoll(now + 6 * NANOSECONDS)
            return poll

        poll = run_simple(testbed, experiment)
        assert poll.records == ()

    def test_ncap_on_udp_socket_rejected(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_udp(0, locport=1234)
            return (yield from handle.ncap(0, 10**18, builtins.capture_all()))

        assert run_simple(testbed, experiment) == ST_BAD_ARGUMENT

    def test_garbage_filter_rejected(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_raw(0)
            return (yield from handle.ncap(0, 10**18, b"not a program"))

        assert run_simple(testbed, experiment) == ST_BAD_ARGUMENT


class TestNpollSemantics:
    def test_npoll_waits_until_deadline_when_no_data(self):
        testbed = Testbed()

        def experiment(handle):
            now_ticks = yield from handle.read_clock()
            start = testbed.sim.now
            poll = yield from handle.npoll(now_ticks + 2 * NANOSECONDS)
            waited = testbed.sim.now - start
            return waited, poll

        waited, poll = run_simple(testbed, experiment)
        assert poll.records == ()
        assert waited == pytest.approx(2.0, abs=0.3)

    def test_npoll_returns_early_when_data_arrives(self):
        testbed = Testbed()
        target = testbed.target_host

        def server():
            sock = target.udp.bind(9000)
            payload, src_ip, src_port, _ = yield sock.recvfrom()
            yield 1.0  # reply after 1 s
            sock.sendto(b"late-reply", src_ip, src_port)

        testbed.sim.spawn(server(), name="late-server")

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            yield from handle.nsend(0, 0, b"query")
            now_ticks = yield from handle.read_clock()
            start = testbed.sim.now
            poll = yield from handle.npoll(now_ticks + 30 * NANOSECONDS)
            waited = testbed.sim.now - start
            return waited, poll

        waited, poll = run_simple(testbed, experiment)
        assert poll.records
        assert waited < 5.0  # returned on data, far before the deadline


class TestClockSync:
    def test_offset_estimation_accuracy(self):
        testbed = Testbed(endpoint_clock_offset=37.5)

        def experiment(handle):
            estimate = yield from estimate_clock(
                handle, testbed.controller_host.clock, probes=8
            )
            return estimate

        estimate = run_simple(testbed, experiment)
        # True offset is 37.5 s; the estimator should be within the
        # one-way-delay asymmetry error (well under 50 ms here).
        assert estimate.offset == pytest.approx(37.5, abs=0.05)

    def test_skew_estimation_sign(self):
        testbed = Testbed(endpoint_clock_skew=200e-6)

        def experiment(handle):
            estimate = yield from estimate_clock(
                handle, testbed.controller_host.clock, probes=10, spacing=2.0
            )
            return estimate

        estimate = run_simple(testbed, experiment)
        assert estimate.skew == pytest.approx(200e-6, abs=100e-6)

    def test_scheduling_with_estimate(self):
        """Use the clock estimate to schedule a send at a precise
        endpoint-local instant, despite a large clock offset."""
        testbed = Testbed(endpoint_clock_offset=500.0)
        from repro.netsim.trace import PacketTrace
        from repro.packet.ipv4 import PROTO_UDP

        trace = PacketTrace()
        for link in testbed.net.links:
            trace.attach(link)

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9999
            )
            estimate = yield from estimate_clock(
                handle, testbed.controller_host.clock, probes=6
            )
            target_controller_time = testbed.controller_host.clock.now() + 3.0
            due_ticks = estimate.endpoint_ticks_at(target_controller_time)
            yield from handle.nsend(0, due_ticks, b"timed")
            yield 5.0
            return target_controller_time

        target_time = run_simple(testbed, experiment)
        sends = trace.select(outcome="sent", proto=PROTO_UDP,
                             src=testbed.endpoint_host.primary_address())
        assert sends
        expected_sim = testbed.controller_host.clock.to_true_time(target_time)
        assert sends[0].time == pytest.approx(expected_sim, abs=0.05)
