"""Robustness and failure-injection tests across the stack."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.testbed import Testbed
from repro.endpoint.endpoint import AUTH_TIMEOUT
from repro.netsim.stack.tcp import (
    CLOSE_WAIT,
    CLOSED,
    ESTABLISHED,
    FIN_WAIT_2,
    ConnectionTimeout,
)
from repro.netsim.topology import Network
from repro.proto.framing import MAX_FRAME
from repro.rendezvous.server import RendezvousServer

# A length prefix no receiver accepts, and more bytes than any receive
# window holds behind it.
BROKEN_FRAME = (MAX_FRAME + 1).to_bytes(4, "big") + bytes(200_000)


class TestTcpUnderLoss:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        loss=st.floats(min_value=0.0, max_value=0.25),
    )
    # At this loss the sender's retransmissions run out: it ends CLOSED
    # with ConnectionTimeout, while the receiver, which nothing tells,
    # stays ESTABLISHED holding the first 7 300 bytes.
    @example(seed=642, loss=0.25)
    def test_bulk_transfer_integrity_any_loss(self, seed, loss):
        """Whatever the loss pattern, TCP never delivers a wrong byte:
        either the bytes arrive intact, or the sender's connection failed
        with ConnectionTimeout and the receiver holds a prefix of them.

        This property caught a real protocol bug during development: after
        a go-back-N rewind, ACKs above snd_nxt were discarded and the
        connection starved (see DESIGN.md, finding 5)."""
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, loss_rate=loss, seed=seed, bandwidth_bps=20e6,
                 delay=0.005)
        net.compute_routes()
        payload = bytes(range(256)) * 100  # 25.6 kB
        received = bytearray()
        client_conns = []

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            while len(received) < len(payload):
                chunk = yield from conn.recv(len(payload) - len(received))
                if not chunk:
                    return
                received.extend(chunk)

        def client():
            conn = a.tcp.connect(b.primary_address(), 80)
            client_conns.append(conn)
            try:
                yield from conn.wait_established()
            except ConnectionTimeout:
                return
            conn.write(payload)
            conn.close()

        net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run(until=1200.0)
        if bytes(received) != payload:
            assert isinstance(client_conns[0].error, ConnectionTimeout)
            assert payload.startswith(bytes(received))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bidirectional_transfer_under_loss(self, seed):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, loss_rate=0.05, seed=seed, bandwidth_bps=20e6,
                 delay=0.005)
        net.compute_routes()
        up = b"U" * 9000
        down = b"D" * 9000

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            received = yield from conn.recv_exactly(len(up))
            conn.write(down)
            conn.close()
            return received

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(up)
            received = yield from conn.recv_exactly(len(down))
            return received

        server_proc = net.sim.spawn(server(), name="server")
        client_proc = net.sim.spawn(client(), name="client")
        net.run(until=600.0)
        assert server_proc.result == up
        assert client_proc.result == down


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        """The whole stack is deterministic: two runs, same numbers."""

        def one_run():
            from repro.experiments.ping import ping

            testbed = Testbed(endpoint_clock_offset=3.3)

            def experiment(handle):
                return (yield from ping(handle, testbed.target_address,
                                        count=3))

            result = testbed.run_experiment(experiment)
            return [probe.rtt for probe in result.probes]

        assert one_run() == one_run()


class TestSessionFailures:
    def test_controller_disconnect_mid_session_cleans_up(self):
        """If the controller vanishes, the endpoint tears the session
        down and releases control."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller()
        testbed.connect_endpoint(descriptor)

        def controller_side():
            handle = yield server.wait_endpoint()
            yield from handle.nopen_udp(0, locport=1234)
            # Vanish without Bye: abort the transport.
            handle.stream.conn.abort()
            yield 5.0
            return None

        testbed.sim.run_process(controller_side(), timeout=120.0)
        testbed.run(until=60.0)
        assert testbed.endpoint.sessions == {}
        assert testbed.endpoint.contention.active is None

    def test_endpoint_sockets_closed_after_bye(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_udp(0, locport=7777)
            yield from handle.nopen_raw(1)
            return None

        testbed.run_experiment(experiment)
        testbed.run(until=60.0)
        # Ports released: rebinding works, and no raw taps remain.
        testbed.endpoint_host.udp.bind(7777)
        assert testbed.endpoint_host.ip._taps == []

    def test_garbage_on_controller_port_ignored(self):
        """A non-PacketLab client connecting to the controller port does
        not break experiment acceptance."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller()

        def scanner():
            conn = yield from testbed.target_host.tcp.open_connection(
                descriptor.controller_addr, descriptor.controller_port
            )
            conn.write(b"\x00\x00\x00\x04GET ")
            yield 1.0
            conn.close()

        testbed.sim.spawn(scanner(), name="scanner")
        testbed.connect_endpoint(descriptor)

        def experiment_driver():
            handle = yield server.wait_endpoint()
            ticks = yield from handle.read_clock()
            handle.bye()
            return ticks

        ticks = testbed.sim.run_process(experiment_driver(), timeout=120.0)
        assert ticks > 0

    def test_unauthenticated_client_times_out_at_endpoint(self):
        """An endpoint that connects to a silent controller gives up after
        AUTH_TIMEOUT instead of hanging forever: it closes its end and
        no longer owns the connection."""
        testbed = Testbed()
        # A listener that accepts but never sends Auth.
        silent_port = 7999
        conns = []

        def silent_controller():
            listener = testbed.controller_host.tcp.listen(silent_port)
            conn = yield listener.accept()
            conns.append(conn)
            conns.extend(_peer_of(testbed.endpoint_host, conn))
            yield 60.0
            conn.close()

        testbed.sim.spawn(silent_controller(), name="silent")
        testbed.endpoint.connect_to_controller(
            testbed.controller_host.primary_address(), silent_port
        )
        testbed.run(until=AUTH_TIMEOUT)
        assert [conn.state for conn in conns] == [ESTABLISHED, ESTABLISHED]
        testbed.run(until=AUTH_TIMEOUT + 10.0)
        assert testbed.endpoint.sessions == {}
        assert testbed.endpoint._own_conns == {}
        assert [conn.state for conn in conns] == [CLOSE_WAIT, FIN_WAIT_2]
        testbed.run(until=600.0)
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]


class TestEndpointEndedSession:
    def test_both_ends_close_once_the_simulator_drains(self):
        """The endpoint ends the session (here on the controller's Bye)
        and closes its end; the controller's handle closes its own end
        on that FIN, so neither is left half-open."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller()
        conns = []

        def driver():
            handle = yield server.wait_endpoint()
            conns.append(handle.stream.conn)
            conns.extend(_peer_of(testbed.endpoint_host, handle.stream.conn))
            yield from handle.read_clock()
            handle.bye()
            return handle

        testbed.connect_endpoint(descriptor)
        handle = testbed.sim.run_process(driver(), timeout=60.0)
        testbed.sim.run()  # drain
        assert handle.closed and handle.end_reason == "bye"
        assert testbed.endpoint.sessions == {}
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]


class TestSupervisedGiveUp:
    """A supervised dial to a port nobody listens on backs off with
    seeded jitter, then gives up; a controller dial and a rendezvous
    subscription share the schedule and differ only in their names."""

    # (time of the retry, its backoff delay), to the microsecond.
    RETRIES = [
        (0.06009, 0.213777),
        (0.333958, 0.420636),
        (0.814685, 0.787291),
        (1.662067, 1.522853),
        (3.245011, 3.207216),
    ]
    GIVE_UP_AT = 6.512317

    @pytest.mark.parametrize("dial, counter, retry, give_up", [
        ("controller", "endpoint.reconnect_attempts", "reconnect",
         "reconnect-giveup"),
        ("rendezvous", "endpoint.rdz_resubscribes", "rdz-resubscribe",
         "rdz-giveup"),
    ])
    def test_closed_port(self, dial, counter, retry, give_up):
        testbed = Testbed(endpoint_reconnect=True)
        ring = testbed.enable_telemetry()
        addr = testbed.controller_host.primary_address()
        if dial == "controller":
            testbed.endpoint.connect_to_controller(addr, 7999)
        else:
            testbed.endpoint.start_rendezvous(addr, 7999)
        testbed.run(until=120.0)
        events = [event for event in ring.events()
                  if event.layer == "endpoint"]
        assert [event.name for event in events] == [retry] * 5 + [give_up]
        assert [
            (round(event.time, 6), round(event.fields["delay"], 6))
            for event in events[:-1]
        ] == self.RETRIES
        assert [event.fields["attempt"] for event in events[:-1]] == [
            1, 2, 3, 4, 5]
        assert round(events[-1].time, 6) == self.GIVE_UP_AT
        assert events[-1].fields == {"endpoint": testbed.endpoint.config.name,
                                     "attempts": 5}
        assert testbed.sim.obs.metrics.total(counter) == 5


class TestBrokenFrame:
    """A push consumer whose stream stops on a broken frame aborts the
    connection, so a peer that keeps sending is reset instead of probing
    a full receive window for ever: the endpoint's session, Auth wait and
    rendezvous subscription, the controller's handle and handshake, and
    the rendezvous server.
    The runs have no sim-time bound; the event budget only stops one
    that would not end."""

    @pytest.mark.parametrize("receiver", ["session", "handle"])
    def test_session_ends_abort(self, receiver):
        testbed = Testbed()
        server, descriptor = testbed.make_controller()
        testbed.connect_endpoint(descriptor)
        conns = []

        def controller_side():
            handle = yield server.wait_endpoint()
            session, = testbed.endpoint.sessions.values()
            conns.extend((handle.stream.conn, session.stream.conn))
            sender = conns[0] if receiver == "session" else conns[1]
            sender.write(BROKEN_FRAME)

        testbed.sim.spawn(controller_side(), name="controller-side")
        testbed.sim.run(max_events=200_000)
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]
        assert testbed.endpoint.sessions == {}

    @pytest.mark.parametrize("service", ["rendezvous", "controller"])
    def test_a_dialer_sending_a_broken_frame_is_reset(self, service):
        testbed = Testbed()
        if service == "rendezvous":
            port = testbed.start_rendezvous().port
        else:
            port = testbed.make_controller()[1].controller_port
        conns = []

        def dialer():
            conn = yield from testbed.target_host.tcp.open_connection(
                testbed.controller_host.primary_address(), port
            )
            conns.append(conn)
            conns.extend(_peer_of(testbed.controller_host, conn))
            conn.write(BROKEN_FRAME)

        testbed.sim.spawn(dialer(), name="dialer")
        testbed.sim.run(max_events=200_000)
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]

    def test_the_endpoints_auth_wait_aborts(self):
        testbed = Testbed()
        conns = []

        def controller():  # answers the endpoint's Hello with a broken frame
            listener = testbed.controller_host.tcp.listen(7999)
            conn = yield listener.accept()
            conns.append(conn)
            conns.extend(_peer_of(testbed.endpoint_host, conn))
            conn.write(BROKEN_FRAME)

        testbed.sim.spawn(controller(), name="broken-controller")
        testbed.endpoint.connect_to_controller(
            testbed.controller_host.primary_address(), 7999
        )
        testbed.sim.run(max_events=200_000)
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]
        assert testbed.endpoint.sessions == {}
        assert testbed.endpoint._own_conns == {}


    def test_the_endpoints_subscription_aborts(self):
        testbed = Testbed()
        conns = []

        def rendezvous():  # answers the endpoint's subscription with a broken frame
            listener = testbed.controller_host.tcp.listen(7999)
            conn = yield listener.accept()
            conns.append(conn)
            conns.extend(_peer_of(testbed.endpoint_host, conn))
            conn.write(BROKEN_FRAME)

        testbed.sim.spawn(rendezvous(), name="broken-rendezvous")
        testbed.endpoint.start_rendezvous(
            testbed.controller_host.primary_address(), 7999
        )
        testbed.sim.run(max_events=200_000)
        assert [conn.state for conn in conns] == [CLOSED, CLOSED]
        assert testbed.endpoint._own_conns == {}


def _peer_of(host, conn):
    """``host``'s end of ``conn``."""
    return [theirs for theirs in host.tcp._connections.values()
            if theirs.remote_port == conn.local_port]


class TestMultiRendezvous:
    def test_endpoint_subscribes_to_multiple_servers(self):
        """§3.2: 'two or three rendezvous servers can be maintained by
        the measurement community' — an endpoint subscribes to all and
        deduplicates experiments seen on several."""
        testbed = Testbed()
        rdz_a = testbed.start_rendezvous(port=7100)
        rdz_b = RendezvousServer(
            testbed.target_host, 7101,
            trusted_publisher_key_ids=[testbed.rendezvous_operator.key_id],
        ).start()
        controller_addr = testbed.controller_host.primary_address()
        testbed.endpoint.start_rendezvous(controller_addr, 7100)
        testbed.endpoint.start_rendezvous(
            testbed.target_host.primary_address(), 7101
        )
        server, descriptor = testbed.make_controller("multi-rdz")

        def run():
            # Publish the same experiment to both servers.
            for addr, port in ((controller_addr, 7100),
                               (testbed.target_host.primary_address(), 7101)):
                ok, reason = yield from testbed.experimenter.publish(
                    testbed.controller_host, addr, port, descriptor
                )
                assert ok, reason
            handle = yield server.wait_endpoint()
            ticks = yield from handle.read_clock()
            handle.bye()
            yield 5.0
            return ticks

        ticks = testbed.sim.run_process(run(), timeout=120.0)
        assert ticks > 0
        # Seen via both servers, contacted once.
        assert len(testbed.endpoint._seen_descriptors) == 1
        assert len(testbed.endpoint.sessions) == 0
        assert rdz_a.experiments_delivered + rdz_b.experiments_delivered == 2
