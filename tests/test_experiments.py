"""Tests for the experiment library (the paper's §4 experiments and the
Atlas-style measurement set) against simulator ground truth."""

import pytest

from repro.core.testbed import Testbed
from repro.cpf import figure2_monitor
from repro.crypto.certificate import Restrictions
from repro.experiments.bandwidth import measure_uplink_bandwidth
from repro.experiments.dnsquery import dns_query
from repro.experiments.httpget import http_get
from repro.experiments.ping import ping
from repro.experiments.servers import (
    start_dns_server,
    start_http_server,
    start_udp_echo,
)
from repro.experiments.telescope import passive_capture
from repro.experiments.traceroute import _match_response, traceroute
from repro.netsim.clock import NANOSECONDS
from repro.netsim.topology import Network
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import PROTO_ICMP, IPv4Packet
from repro.packet.dns import RCODE_NXDOMAIN
from repro.proto.messages import CaptureRecord
from repro.util.inet import parse_ip


def multi_hop_testbed(hop_count=3, access_delay=0.01, **kwargs):
    """endpoint -- gw -- r1 .. rN -- target, controller off gw."""
    net = Network()
    endpoint = net.add_host("endpoint")
    gateway = net.add_router("gw")
    controller = net.add_host("controller")
    net.link(gateway, endpoint, bandwidth_bps=10e6, delay=access_delay)
    net.link(gateway, controller, bandwidth_bps=1e9, delay=0.02)
    previous = gateway
    for index in range(hop_count):
        router = net.add_router(f"r{index + 1}")
        net.link(previous, router, bandwidth_bps=1e9, delay=0.005)
        previous = router
    target = net.add_host("target")
    net.link(previous, target, bandwidth_bps=1e9, delay=0.005)
    net.compute_routes()
    return Testbed(network=net, endpoint_host=endpoint,
                   controller_host=controller, target_host=target, **kwargs)


class TestPing:
    def test_ping_target_rtts_match_topology(self):
        testbed = Testbed(access_delay=0.010, core_delay=0.020)

        def experiment(handle):
            return (yield from ping(handle, testbed.target_address, count=4))

        result = testbed.run_experiment(experiment)
        assert result.received == 4
        assert result.loss_fraction == 0.0
        # Path endpoint->gw->target: one-way ~= 10ms + 20ms (+serialization).
        assert result.rtt_min == pytest.approx(0.060, rel=0.2)

    def test_ping_unreachable_host_loses_everything(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from ping(
                handle, parse_ip("203.0.113.200"), count=2, timeout=0.5
            ))

        result = testbed.run_experiment(experiment)
        assert result.received == 0
        assert result.loss_fraction == 1.0

    def test_ping_rtts_use_endpoint_clock(self):
        """A skewed endpoint clock changes measured RTTs accordingly."""
        skew = 0.5  # absurd 50% skew makes the effect unmistakable
        testbed = Testbed(endpoint_clock_skew=skew)

        def experiment(handle):
            return (yield from ping(handle, testbed.target_address, count=2))

        result = testbed.run_experiment(experiment)
        true_rtt = 0.060
        assert result.rtt_min == pytest.approx(true_rtt * (1 + skew), rel=0.25)


class TestTraceroute:
    def test_discovers_ground_truth_path(self):
        testbed = multi_hop_testbed(hop_count=3)

        def experiment(handle):
            return (yield from traceroute(handle, testbed.target_address))

        result = testbed.run_experiment(experiment)
        assert result.reached
        # Path: gw, r1, r2, r3, then the target itself.
        assert len(result.hops) == 5
        names = []
        for hop in result.hops:
            assert hop.responder is not None
            owner = next(
                node.name
                for node in testbed.net.nodes.values()
                if node.is_local_address(hop.responder)
            )
            names.append(owner)
        assert names == ["gw", "r1", "r2", "r3", "target"]
        assert result.hops[-1].reached_destination

    def test_rtts_monotonically_increase(self):
        testbed = multi_hop_testbed(hop_count=4)

        def experiment(handle):
            return (yield from traceroute(handle, testbed.target_address))

        result = testbed.run_experiment(experiment)
        rtts = [hop.rtt for hop in result.hops]
        assert all(rtt is not None for rtt in rtts)
        assert rtts == sorted(rtts)

    def test_stops_at_max_ttl_for_unreachable(self):
        testbed = multi_hop_testbed(hop_count=2)
        # Address routed at gw but beyond the last router: unreachable net.
        unreachable = parse_ip("203.0.113.200")

        def experiment(handle):
            return (yield from traceroute(
                handle, unreachable, per_hop_timeout=0.3, max_ttl=4
            ))

        result = testbed.run_experiment(experiment)
        assert not result.reached
        assert len(result.hops) == 4

    def test_runs_under_figure2_monitor(self):
        """The paper's own Figure 2 monitor admits the traceroute it was
        written for."""
        testbed = multi_hop_testbed(hop_count=2)
        restrictions = Restrictions(monitor=figure2_monitor(corrected=True).encode())

        def experiment(handle):
            return (yield from traceroute(handle, testbed.target_address))

        result = testbed.run_experiment(
            experiment, experiment_restrictions=restrictions
        )
        assert result.reached
        assert all(hop.responder is not None for hop in result.hops)

    def test_reply_captured_before_the_probe_left_is_not_its_answer(self):
        """A reused session's buffer can still hold an earlier job's
        reply to the same ttl: it must not yield a negative RTT."""
        ident, ttl, target = 0x7472, 3, parse_ip("10.0.0.10")
        reply = IPv4Packet(
            src=target, dst=parse_ip("10.0.0.2"), proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(ident, ttl).encode(),
        ).encode()
        t_snd = 5 * NANOSECONDS
        stale = CaptureRecord(sktid=0, timestamp=t_snd - 1, data=reply)
        assert _match_response([stale], ttl, ident, target, t_snd) is None
        fresh = CaptureRecord(sktid=0, timestamp=t_snd + NANOSECONDS // 50,
                              data=reply)
        hop = _match_response([stale, fresh], ttl, ident, target, t_snd)
        assert hop.rtt == pytest.approx(0.02) and hop.reached_destination

    def test_figure2_monitor_blocks_udp_experiment(self):
        """The same monitor denies an experiment it was not written for."""
        testbed = multi_hop_testbed(hop_count=1)
        start_udp_echo(testbed.target_host, 9000)
        restrictions = Restrictions(monitor=figure2_monitor(corrected=True).encode())

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            yield from handle.nsend(0, 0, b"should be blocked")
            now = yield from handle.read_clock()
            poll = yield from handle.npoll(now + 1_000_000_000)
            return poll

        poll = testbed.run_experiment(
            experiment, experiment_restrictions=restrictions
        )
        assert poll.records == ()  # send was denied by the monitor


class TestBandwidth:
    @pytest.mark.parametrize("uplink_mbps", [2.0, 10.0, 50.0])
    def test_scheduled_measurement_matches_configured_uplink(self, uplink_mbps):
        testbed = Testbed(
            access_bandwidth_bps=100e6,  # fast downlink
            uplink_bandwidth_bps=uplink_mbps * 1e6,
        )

        def experiment(handle):
            return (yield from measure_uplink_bandwidth(
                handle, testbed.controller_host, packet_count=40,
                payload_size=1000,
            ))

        result = testbed.run_experiment(experiment)
        assert result.packets_received == 40
        assert result.measured_bps == pytest.approx(uplink_mbps * 1e6, rel=0.05)

    def test_immediate_mode_undermeasures_when_control_shares_link(self):
        """The §3.1 claim: without future scheduling, control traffic on
        the shared access link corrupts the measurement."""
        testbed = Testbed(
            access_bandwidth_bps=10e6,  # symmetric 10 Mbps access link
        )

        def scheduled(handle):
            return (yield from measure_uplink_bandwidth(
                handle, testbed.controller_host, packet_count=30,
            ))

        result_scheduled = testbed.run_experiment(scheduled, "bw-sched")

        testbed2 = Testbed(access_bandwidth_bps=10e6)

        def immediate(handle):
            return (yield from measure_uplink_bandwidth(
                handle, testbed2.controller_host, packet_count=30,
                immediate=True,
            ))

        result_immediate = testbed2.run_experiment(immediate, "bw-imm")
        assert result_scheduled.measured_bps == pytest.approx(10e6, rel=0.05)
        # Immediate mode is throttled by control-channel delivery.
        assert result_immediate.measured_bps < result_scheduled.measured_bps * 0.8


    def test_sink_gives_its_port_back_on_every_exit(self):
        """The controller-side sink lives as long as its measurement: it
        is closed after a finished run and when the worker running the
        measurement is killed mid-burst."""
        testbed = Testbed()
        controller = testbed.controller_host

        def measure(handle):
            return measure_uplink_bandwidth(
                handle, controller, packet_count=5, lead_time=1.0,
                settle_time=1.0, sink_port=0,
            )

        def experiment(handle):
            result = yield from measure(handle)
            after_run = sorted(controller.udp._sockets)
            worker = testbed.sim.spawn(measure(handle), name="bw-worker")
            yield 0.5  # inside the lead time: the burst is not sent yet
            during = sorted(controller.udp._sockets)
            worker.kill()
            return result, after_run, during, sorted(controller.udp._sockets)

        result, after_run, during, after_kill = testbed.run_experiment(
            experiment
        )
        assert result.packets_received == 5
        assert after_run == [] and after_kill == []
        assert len(during) == 1


class TestDns:
    def test_resolves_a_record(self):
        testbed = Testbed()
        zone = {"probe.example.net": parse_ip("192.0.2.55")}
        start_dns_server(testbed.target_host, 53, zone)

        def experiment(handle):
            return (yield from dns_query(
                handle, testbed.target_address, "probe.example.net"
            ))

        result = testbed.run_experiment(experiment)
        assert result.answered
        assert result.address == parse_ip("192.0.2.55")
        assert result.response_time == pytest.approx(0.060, rel=0.3)

    def test_nxdomain(self):
        testbed = Testbed()
        start_dns_server(testbed.target_host, 53, {})

        def experiment(handle):
            return (yield from dns_query(
                handle, testbed.target_address, "missing.example.net"
            ))

        result = testbed.run_experiment(experiment)
        assert result.answered
        assert result.address is None
        assert result.rcode == RCODE_NXDOMAIN

    def test_timeout_when_no_server(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from dns_query(
                handle, testbed.target_address, "x.example", timeout=0.5
            ))

        result = testbed.run_experiment(experiment)
        assert not result.answered


class TestHttp:
    def test_fetches_page(self):
        testbed = Testbed()
        body = b"<html>censorship-free content</html>"
        start_http_server(testbed.target_host, 80, {"/": body})

        def experiment(handle):
            return (yield from http_get(handle, testbed.target_address))

        result = testbed.run_experiment(experiment)
        assert result.connected
        assert result.status_line == "HTTP/1.0 200 OK"
        assert result.body == body
        assert result.fetch_time is not None

    def test_404(self):
        testbed = Testbed()
        start_http_server(testbed.target_host, 80, {"/": b"x"})

        def experiment(handle):
            return (yield from http_get(handle, testbed.target_address,
                                        path="/blocked"))

        result = testbed.run_experiment(experiment)
        assert result.status_line == "HTTP/1.0 404 Not Found"

    def test_connection_refused(self):
        testbed = Testbed()

        def experiment(handle):
            return (yield from http_get(handle, testbed.target_address, port=8080))

        result = testbed.run_experiment(experiment)
        assert not result.connected


class TestTelescope:
    def test_mirror_capture_sees_background_traffic(self):
        """Passive capture observes scans hitting the endpoint without
        disturbing them (the OS still answers)."""
        testbed = Testbed()
        endpoint_ip = testbed.endpoint_host.primary_address()
        scanner = testbed.target_host

        def scan():
            sock = scanner.udp.bind(0)
            yield 1.0
            for port in (1001, 1002, 1003):
                sock.sendto(b"scan", endpoint_ip, port)
                yield 0.2

        testbed.sim.spawn(scan(), name="scanner")

        def experiment(handle):
            return (yield from passive_capture(handle, duration=4.0))

        result = testbed.run_experiment(experiment)
        from repro.packet.ipv4 import PROTO_UDP

        udp_captures = [c for c in result.packets if c.packet.proto == PROTO_UDP]
        assert len(udp_captures) == 3
        assert result.sources() >= {scanner.primary_address()}
        # Mirror verdict: the endpoint OS still processed the scans and
        # generated ICMP port-unreachable answers.
        assert testbed.endpoint_host.udp.port_unreachable_sent == 3
