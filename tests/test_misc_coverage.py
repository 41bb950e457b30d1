"""Edge-case coverage for corners the main suites don't reach."""

import pytest

from repro.controller.clocksync import estimate_clock
from repro.core.testbed import Testbed
from repro.experiments.servers import start_http_server
from repro.filtervm import assemble, builtins, disassemble
from repro.netsim.kernel import SimError, Simulator
from repro.netsim.topology import Network, describe


class TestKernelEdges:
    def test_kill_process_waiting_on_queue(self):
        sim = Simulator()
        queue = sim.queue()

        def waiter():
            yield queue.get()
            return "got it"

        proc = sim.spawn(waiter())
        sim.run(until=1.0)
        proc.kill()
        queue.put("late item")
        sim.run()
        assert not proc.alive
        assert proc.result is None
        # The dead waiter consumed its pre-registered getter; the item
        # stays for the next consumer.
        follow_up = sim.spawn(self._drain(queue))
        sim.run()
        assert follow_up.result in ("late item", None)

    @staticmethod
    def _drain(queue):
        item = yield queue.get()
        return item

    def test_cancelled_timer_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        sim.run()
        timer.cancel()  # already fired; must not raise
        assert fired == ["x"]

    def test_event_budget_guard(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 0.0

        sim.spawn(spinner())
        with pytest.raises(SimError, match="budget"):
            sim.run(until=1.0, max_events=1000)


class TestClockSyncEdges:
    def test_too_few_probes_rejected(self):
        testbed = Testbed()

        def experiment(handle):
            with pytest.raises(ValueError, match="at least 2"):
                yield from estimate_clock(
                    handle, testbed.controller_host.clock, probes=1
                )
            return True

        assert testbed.run_experiment(experiment)


class TestHttpServerRobustness:
    def _fetch_raw(self, testbed, request: bytes) -> bytes:
        def client():
            conn = yield from testbed.endpoint_host.tcp.open_connection(
                testbed.target_address, 80
            )
            conn.write(request)
            response = b""
            while True:
                chunk = yield from conn.recv(4096)
                if not chunk:
                    break
                response += chunk
            return response

        return testbed.sim.run_process(client(), timeout=60.0)

    def test_malformed_request_line(self):
        testbed = Testbed()
        start_http_server(testbed.target_host, 80, {"/": b"ok"})
        response = self._fetch_raw(testbed, b"GARBAGE\r\n\r\n")
        # One-word request line: the server treats it as "/" by default.
        assert response.startswith((b"HTTP/1.0 200", b"HTTP/1.0 404"))

    def test_unknown_path_404(self):
        testbed = Testbed()
        start_http_server(testbed.target_host, 80, {"/": b"ok"})
        response = self._fetch_raw(testbed, b"GET /missing HTTP/1.0\r\n\r\n")
        assert response.startswith(b"HTTP/1.0 404")


class TestFilterVmTooling:
    def test_disassemble_handles_branchy_program(self):
        program = builtins.capture_udp_port(53)
        listing = disassemble(program)
        reassembled = assemble(listing)
        assert reassembled.code == program.code

    def test_program_entry_points_listing(self):
        program = builtins.icmp_echo_monitor()
        assert set(program.entry_points) == {"send", "recv"}


class TestTopologyDescribe:
    def test_describe_lists_all_nodes(self):
        net = Network()
        net.add_host("alpha")
        net.add_router("beta")
        net.link("alpha", "beta")
        net.compute_routes()
        text = describe(net)
        assert "alpha (host)" in text
        assert "beta (router)" in text
        assert "10.0.0." in text


class TestEndpointProtocolEdges:
    def test_udp_locport_conflict_reports_bad_argument(self):
        from repro.proto.constants import ST_BAD_ARGUMENT

        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_udp(0, locport=6000)
            return (yield from handle.nopen_udp(1, locport=6000))

        assert testbed.run_experiment(experiment) == ST_BAD_ARGUMENT

    def test_npoll_zero_deadline_returns_immediately(self):
        testbed = Testbed()

        def experiment(handle):
            start = testbed.sim.now
            poll = yield from handle.npoll(0)
            return testbed.sim.now - start, poll

        elapsed, poll = testbed.run_experiment(experiment)
        assert poll.records == ()
        assert elapsed < 0.5  # just one control RTT, no waiting

    def test_nsend_empty_payload_udp(self):
        """Zero-length UDP datagrams are legal and delivered."""
        from repro.experiments.servers import UdpSink

        testbed = Testbed()
        sink = UdpSink(testbed.controller_host, 9333).start()

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=0,
                remaddr=testbed.controller_host.primary_address(),
                remport=9333,
            )
            yield from handle.nsend(0, 0, b"")
            yield 1.0
            return None

        testbed.run_experiment(experiment)
        assert sink.count == 1
        assert sink.arrivals[0][1] == 0
