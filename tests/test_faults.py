"""Deterministic fault injection and controller recovery.

Everything here is driven by a seeded :class:`FaultPlan` plus the
controller-side recovery machinery (:class:`RetryPolicy`,
``rpc_timeout``/:class:`RpcTimeout`, :class:`ResilientHandle`) and the
endpoint's supervised reconnect. The seed comes from ``PL_FAULT_SEED``
so the CI soak job can sweep several seeds over the same scenarios;
determinism is itself under test (same seed ⇒ byte-identical obs event
trace).
"""

import json
import os
import random

import pytest

from repro.controller.client import RpcTimeout
from repro.controller.recovery import ResilientHandle
from repro.core.testbed import Testbed
from repro.endpoint.sendqueue import SendQueue
from repro.experiments.bandwidth import measure_uplink_bandwidth
from repro.experiments.ping import ping
from repro.experiments.traceroute import traceroute
from repro.netsim.clock import HostClock
from repro.netsim.faults import FaultPlan
from repro.netsim.kernel import Simulator
from repro.netsim.topology import linear_topology
from repro.obs.sinks import event_to_json_dict
from repro.packet.ipv4 import IPv4Packet, PROTO_RAW_TEST
from repro.proto.framing import FramingError, MAX_FRAME, MessageStream
from repro.proto.messages import Bye
from repro.util.retry import RetryPolicy

SEED = int(os.environ.get("PL_FAULT_SEED", "0"))


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_schedule_is_deterministic(self):
        policy = RetryPolicy()
        a = [policy.delay_for(i, random.Random(SEED)) for i in range(6)]
        b = [policy.delay_for(i, random.Random(SEED)) for i in range(6)]
        assert a == b

    def test_exponential_growth_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0,
                             jitter=0.0)
        rng = random.Random(SEED)
        delays = [policy.delay_for(i, rng) for i in range(8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert all(d == 1.0 for d in delays[4:])

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.1)
        rng = random.Random(SEED)
        for attempt in range(50):
            assert 0.9 <= policy.delay_for(attempt, rng) <= 1.1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


# -- link-level faults --------------------------------------------------------


def _blast(net, src, dst, times):
    """Schedule one raw IP packet from src to dst at each sim time."""
    addr_src, addr_dst = src.primary_address(), dst.primary_address()

    def fire():
        src.send_ip(IPv4Packet(src=addr_src, dst=addr_dst,
                               proto=PROTO_RAW_TEST, payload=b"x" * 100))

    for t in times:
        net.sim.schedule_at(t, fire)


class TestLinkFaults:
    def test_outage_window_drops_packets(self):
        net, src, dst = linear_topology(hop_count=0)
        link = net.links[0]
        plan = FaultPlan(seed=SEED)
        plan.link_outage(link, start=1.0, duration=2.0)
        plan.install(net.sim)
        before = dst.ip.packets_delivered
        # 3 packets inside the window, 3 outside.
        _blast(net, src, dst, [1.1, 1.5, 2.9, 0.5, 3.5, 4.0])
        net.sim.run()
        stats = link.forward.stats
        assert stats.packets_dropped_fault == 3
        assert dst.ip.packets_delivered - before == 3
        assert plan.faults_injected >= 4  # the window itself + 3 drops

    def test_corruption_consumes_link_time_then_discards(self):
        net, src, dst = linear_topology(hop_count=0)
        link = net.links[0]
        FaultPlan(seed=SEED).link_impairment(
            link, corrupt=1.0, direction="forward"
        ).install(net.sim)
        _blast(net, src, dst, [0.1, 0.2, 0.3])
        net.sim.run()
        stats = link.forward.stats
        # Same accounting as in-flight loss: the frame consumed link time
        # but never counts as sent or delivered.
        assert stats.packets_dropped_fault == 3
        assert stats.packets_sent == 0
        assert dst.ip.packets_delivered == 0

    def test_duplication_delivers_extra_copies(self):
        net, src, dst = linear_topology(hop_count=0)
        FaultPlan(seed=SEED).link_impairment(
            net.links[0], duplicate=1.0, direction="forward"
        ).install(net.sim)
        _blast(net, src, dst, [0.1, 0.2, 0.3])
        net.sim.run()
        assert dst.ip.packets_delivered == 6

    def test_fault_events_and_counters_emitted(self):
        net, src, dst = linear_topology(hop_count=0)
        net.sim.obs.enabled = True
        ring = net.sim.obs.ensure_ring_sink()
        plan = FaultPlan(seed=SEED)
        plan.link_outage(net.links[0], start=0.5, duration=1.0)
        plan.install(net.sim)
        _blast(net, src, dst, [0.7])
        net.sim.run()
        names = {e.name for e in ring.events() if e.layer == "fault"}
        assert {"link-down", "packet-outage-drop", "link-up"} <= names
        metrics = net.sim.obs.telemetry_snapshot()
        assert metrics.counter_total("fault.link_down") == 1
        assert metrics.counter_total("fault.packet_outage_drop") == 1

    def test_plan_install_is_exclusive(self):
        net, _src, _dst = linear_topology(hop_count=0)
        plan = FaultPlan(seed=SEED).install(net.sim)
        plan.install(net.sim)  # idempotent for the same simulator
        with pytest.raises(RuntimeError):
            plan.install(Simulator())
        # A link already driven by one plan rejects a second plan.
        plan.link_outage(net.links[0], start=0.0, duration=1.0)
        other = FaultPlan(seed=SEED + 1)
        with pytest.raises(RuntimeError):
            other.link_outage(net.links[0], start=2.0, duration=1.0)

    def test_bad_parameters_rejected(self):
        net, _src, _dst = linear_topology(hop_count=0)
        plan = FaultPlan(seed=SEED)
        with pytest.raises(ValueError):
            plan.link_outage(net.links[0], start=0.0, duration=0.0)
        with pytest.raises(ValueError):
            plan.link_impairment(net.links[0], corrupt=1.5)
        with pytest.raises(ValueError):
            plan.link_outage(net.links[0], start=0.0, duration=1.0,
                             direction="sideways")


# -- satellite bugfixes -------------------------------------------------------


class _HugeMessage:
    """Stand-in message whose encoding exceeds the frame limit."""

    def encode(self) -> bytes:
        return b"x" * (MAX_FRAME + 1)


class TestFramingSymmetry:
    def test_send_rejects_oversized_frame(self):
        stream = MessageStream(conn=None)  # send() raises before touching conn
        with pytest.raises(FramingError, match="exceeds limit"):
            stream.send(_HugeMessage())
        assert stream.messages_sent == 0
        assert stream.bytes_sent == 0

    def test_bytes_received_mirrors_bytes_sent(self):
        net, a, b = linear_topology(hop_count=0)
        listener = b.tcp.listen(7)
        streams = {}

        def server():
            conn = yield listener.accept()
            streams["rx"] = stream = MessageStream(conn)
            message = yield from stream.recv()
            return message

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7)
            streams["tx"] = stream = MessageStream(conn)
            stream.send(Bye())
            conn.close()

        proc = net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.sim.run()
        assert isinstance(proc.result, Bye)
        assert streams["rx"].bytes_received == streams["tx"].bytes_sent
        assert streams["rx"].bytes_received > 4


class _SocketStub:
    def __init__(self):
        self.noted = []

    def note_send(self, ticks):
        self.noted.append(ticks)


class TestSendQueueSentinel:
    def test_actual_ticks_none_until_successful_fire(self):
        sim = Simulator()
        queue = SendQueue(sim, HostClock(sim))
        sock = _SocketStub()
        ok = queue.schedule(sock, b"x", due_ticks=0, on_fire=lambda e: True)
        failed = queue.schedule(sock, b"y", due_ticks=0, on_fire=lambda e: False)
        assert ok.actual_ticks is None and failed.actual_ticks is None
        sim.run()
        # Tick 0 is a legitimate clock reading; success records an int,
        # failure keeps the None sentinel.
        assert isinstance(ok.actual_ticks, int)
        assert failed.actual_ticks is None
        assert sock.noted == [ok.actual_ticks]
        assert queue.sends_completed == 1 and queue.sends_failed == 1

    def test_cancelled_send_keeps_none(self):
        sim = Simulator()
        clock = HostClock(sim)
        queue = SendQueue(sim, clock)
        sock = _SocketStub()
        entry = queue.schedule(sock, b"x", due_ticks=clock.ticks() + 10**12,
                               on_fire=lambda e: True)
        assert queue.cancel(sock) == 1
        sim.run()
        assert entry.actual_ticks is None
        assert sock.noted == []


# -- RPC timeout / mid-RPC session death --------------------------------------


class TestRpcRecovery:
    def test_rpc_timeout_on_silent_link(self):
        """An outage that swallows a command surfaces as RpcTimeout, not a
        hang: the silent ``except (TcpError, FramingError)`` paths in the
        controller never answer the request."""
        testbed = Testbed()
        plan = FaultPlan(seed=SEED)
        plan.link_outage(testbed.access_link, start=1.0, duration=30.0)

        def experiment(handle):
            yield 1.5  # let the outage begin
            try:
                yield from handle.read_clock()
            except RpcTimeout as exc:
                return "timeout", str(exc)
            return "answered", None

        outcome, detail = testbed.run_experiment(
            experiment, fault_plan=plan, rpc_timeout=0.5, timeout=120.0
        )
        assert outcome == "timeout"
        assert "unanswered after 0.5s" in detail  # read_clock rides on mread

    def test_crash_without_recovery_yields_partial_result(self):
        """Killing the connection mid-RPC (documented silent-cleanup path):
        the experiment degrades to a partial result instead of raising."""
        testbed = Testbed()
        plan = FaultPlan(seed=SEED)
        plan.endpoint_crash(testbed.endpoint, at=1.5)  # no restart

        def experiment(handle):
            return (yield from ping(handle, testbed.target_address,
                                    count=8, interval=0.2, timeout=1.0))

        result, snapshot = testbed.run_experiment(
            experiment, fault_plan=plan, rpc_timeout=2.0,
            collect_telemetry=True, timeout=120.0,
        )
        assert result.partial
        assert result.error is not None
        assert snapshot.counter_total("fault.endpoint_crash") == 1
        assert snapshot.counter_total("rpc.sessions_lost") >= 1
        names = {e.name for e in snapshot.events if e.layer == "rpc"}
        assert "session-lost" in names

    def test_resilient_handle_recovers_from_mid_rpc_crash(self):
        """Crash-and-restart mid-experiment: the ResilientHandle retries
        with backoff, adopts the re-dialed session, and replays socket +
        capture state so the experiment completes."""
        testbed = Testbed(endpoint_reconnect=True)
        plan = FaultPlan(seed=SEED)
        plan.endpoint_crash(testbed.endpoint, at=1.5, downtime=0.5)

        def experiment(handle):
            return (yield from ping(handle, testbed.target_address,
                                    count=8, interval=0.2, timeout=2.0))

        result, snapshot = testbed.run_experiment(
            experiment, fault_plan=plan, resilient=True, rpc_timeout=2.0,
            recovery_seed=SEED, collect_telemetry=True, timeout=300.0,
        )
        assert not result.partial
        assert len(result.probes) == 8
        # Probes issued after the reconnect round-trip normally.
        assert result.received >= 1
        assert snapshot.counter_total("rpc.reconnects") >= 1
        assert snapshot.counter_total("rpc.retries") >= 1
        assert snapshot.counter_total("endpoint.sessions_accepted") >= 2
        names = {e.name for e in snapshot.events if e.layer == "rpc"}
        assert {"retry", "reconnect", "resume"} <= names
        # Backoff evidence: every retry event carries its computed delay.
        delays = [e.fields["delay"] for e in snapshot.events
                  if e.layer == "rpc" and e.name == "retry"]
        assert delays and all(d > 0 for d in delays)


# -- determinism --------------------------------------------------------------


def _faulted_trace(seed: int) -> bytes:
    """Run a fixed faulted scenario; return the serialized obs trace."""
    testbed = Testbed(endpoint_reconnect=True)
    ring = testbed.enable_telemetry()
    plan = FaultPlan(seed=seed)
    plan.link_impairment(testbed.access_link, corrupt=0.05, duplicate=0.05)
    plan.endpoint_crash(testbed.endpoint, at=1.5, downtime=0.5)

    def experiment(handle):
        return (yield from ping(handle, testbed.target_address,
                                count=6, interval=0.2, timeout=1.0))

    testbed.run_experiment(
        experiment, fault_plan=plan, resilient=True, rpc_timeout=2.0,
        recovery_seed=seed, timeout=300.0,
    )
    return "\n".join(
        json.dumps(event_to_json_dict(event), sort_keys=True)
        for event in ring.events()
    ).encode()


class TestDeterminism:
    def test_same_seed_gives_byte_identical_trace(self):
        assert _faulted_trace(SEED) == _faulted_trace(SEED)

    def test_different_seed_perturbs_the_trace(self):
        assert _faulted_trace(SEED) != _faulted_trace(SEED + 1)


# -- rendezvous restart + acceptance scenario ---------------------------------


class TestRendezvousRestart:
    def test_stored_experiments_survive_restart(self):
        """stop() severs subscribers; restart() comes back on the same
        port with the stored experiments intact and replays them."""
        testbed = Testbed()
        rdz = testbed.start_rendezvous()
        server, descriptor = testbed.make_controller("survivor")

        def run():
            ok, reason = yield from testbed.experimenter.publish(
                testbed.controller_host,
                testbed.controller_host.primary_address(),
                rdz.port,
                descriptor,
            )
            assert ok, reason
            yield 0.5
            rdz.stop()
            assert not rdz.running and not rdz.subscribers
            yield 0.5
            rdz.restart()
            # A late subscriber still receives the stored experiment.
            testbed.endpoint.start_rendezvous(
                testbed.controller_host.primary_address(), rdz.port
            )
            handle = yield server.wait_endpoint()
            ticks = yield from handle.read_clock()
            handle.bye()
            return ticks

        ticks = testbed.sim.run_process(run(), timeout=120.0)
        assert ticks > 0
        assert rdz.restarts == 1
        assert len(rdz.experiments) == 1

    def test_acceptance_faulted_experiment_sweep(self):
        """ISSUE acceptance scenario: rendezvous restart, endpoint
        crash-and-restart, and a 2 s access-link outage all land while a
        bandwidth + traceroute sweep runs. Both experiments complete
        (partial where data was lost) and the controller reconnects with
        backoff, all asserted from the fault.*/rpc.* event stream."""
        testbed = Testbed(endpoint_reconnect=True)
        ring = testbed.enable_telemetry()
        rdz = testbed.start_rendezvous()
        testbed.endpoint.start_rendezvous(
            testbed.controller_host.primary_address(), rdz.port
        )
        server, descriptor = testbed.make_controller(
            "fault-sweep", rpc_timeout=2.0
        )
        plan = FaultPlan(seed=SEED).install(testbed.sim)
        plan.rendezvous_restart(rdz, at=0.5, downtime=0.5)
        plan.endpoint_crash(testbed.endpoint, at=1.5, downtime=0.75)
        plan.link_outage(testbed.access_link, start=4.5, duration=2.0)
        handles = {}

        def run():
            ok, reason = yield from testbed.experimenter.publish(
                testbed.controller_host,
                testbed.controller_host.primary_address(),
                rdz.port,
                descriptor,
            )
            assert ok, reason
            raw = yield server.wait_endpoint()
            handles["h"] = handle = ResilientHandle(server, raw, seed=SEED)
            bandwidth = yield from measure_uplink_bandwidth(
                handle, testbed.controller_host, packet_count=20,
                lead_time=1.0, settle_time=5.0,
            )
            route = yield from traceroute(
                handle, testbed.target_address, per_hop_timeout=0.5
            )
            handle.bye()
            return bandwidth, route

        bandwidth, route = testbed.sim.run_process(run(), timeout=600.0)
        server.stop()
        handle = handles["h"]

        # Both experiments produced results despite the fault storm.
        assert bandwidth.packets_sent > 0
        assert bandwidth.packets_received <= bandwidth.packets_sent
        assert route.hops  # at least partial path data
        # The controller rode out the crash: reconnect + state replay.
        assert handle.reconnects >= 1
        assert handle.retries >= 1
        # Rendezvous went down and came back with the experiment stored.
        assert rdz.restarts == 1
        assert len(rdz.experiments) == 1
        fault_names = {e.name for e in ring.events() if e.layer == "fault"}
        assert {"rendezvous-down", "rendezvous-up", "endpoint-crash",
                "endpoint-restart", "link-down", "link-up"} <= fault_names
        rpc_names = {e.name for e in ring.events() if e.layer == "rpc"}
        assert {"retry", "reconnect", "session-lost"} <= rpc_names
        snapshot = testbed.telemetry_snapshot()
        assert snapshot.counter_total("endpoint.sessions_accepted") >= 2
