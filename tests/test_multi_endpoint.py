"""Multi-endpoint coordination (§3.1 Timekeeping).

"By determining the clock offset of each endpoint, an experiment
controller can then coordinate a multi-endpoint experiment that requires
exact timing."

Two endpoints with wildly different clocks fire probes at the same
controller-chosen wall instant; the arrivals at a common sink must align.
"""

import pytest

from repro.controller.client import ControllerServer
from repro.controller.clocksync import estimate_clock
from repro.controller.session import Experimenter
from repro.endpoint.config import EndpointConfig
from repro.endpoint.endpoint import Endpoint
from repro.netsim.topology import Network
from repro.netsim.trace import PacketTrace
from repro.packet.ipv4 import PROTO_UDP


def build_two_endpoint_world():
    net = Network()
    gw = net.add_router("gw")
    controller = net.add_host("controller")
    target = net.add_host("target")
    # Deliberately terrible clocks: +800 s and -12 s, both skewed.
    ep1 = net.add_host("ep1", clock_offset=800.0, clock_skew=120e-6)
    ep2 = net.add_host("ep2", clock_offset=-12.0, clock_skew=-80e-6)
    net.link(gw, controller, bandwidth_bps=1e9, delay=0.02)
    net.link(gw, target, bandwidth_bps=1e9, delay=0.015)
    net.link(gw, ep1, bandwidth_bps=100e6, delay=0.008)
    net.link(gw, ep2, bandwidth_bps=100e6, delay=0.031)  # farther away
    net.compute_routes()
    from repro.crypto.keys import KeyPair

    operator = KeyPair.from_name("two-ep-operator")
    experimenter = Experimenter("coordinator")
    experimenter.granted_endpoint_access(operator)
    endpoint1 = Endpoint(ep1, EndpointConfig(
        name="ep1", trusted_key_ids=[operator.key_id]))
    endpoint2 = Endpoint(ep2, EndpointConfig(
        name="ep2", trusted_key_ids=[operator.key_id]))
    return net, controller, target, endpoint1, endpoint2, experimenter


def test_synchronized_fire_across_endpoints():
    (net, controller, target, endpoint1, endpoint2,
     experimenter) = build_two_endpoint_world()
    descriptor = experimenter.make_descriptor(controller, 7000, "sync-fire")
    server = ControllerServer(
        controller, 7000, experimenter.identity(descriptor)
    ).start()
    endpoint1.connect_to_controller(
        controller.primary_address(), 7000, descriptor.hash())
    endpoint2.connect_to_controller(
        controller.primary_address(), 7000, descriptor.hash())
    # Observe departures on each endpoint's access link.
    trace = PacketTrace()
    for link in net.links[2:4]:
        trace.attach(link)
    target_addr = target.primary_address()
    endpoint_hosts = {"ep1": None, "ep2": None}

    def coordinate():
        handles = []
        for _ in range(2):
            handle = yield server.wait_endpoint()
            handles.append(handle)
        # Per-endpoint clock estimation (§3.1's prescription).
        estimates = {}
        for handle in handles:
            yield from handle.nopen_udp(0, locport=0, remaddr=target_addr,
                                        remport=9)
            estimates[handle.endpoint_name] = yield from estimate_clock(
                handle, controller.clock, probes=6
            )
        # Fire both endpoints at the same controller wall instant.
        fire_at = controller.clock.now() + 2.0
        for handle in handles:
            due = estimates[handle.endpoint_name].endpoint_ticks_at(fire_at)
            yield from handle.nsend(0, due, b"synchronized-probe")
        yield 4.0
        for handle in handles:
            handle.bye()
        return fire_at

    fire_at = net.sim.run_process(coordinate(), name="coordinator",
                                  timeout=300.0)
    departures = [
        record.time
        for record in trace.select(outcome="sent", proto=PROTO_UDP)
        if record.packet.dst == target_addr
    ]
    assert len(departures) == 2
    # Both endpoints fired within 5 ms of each other and of the chosen
    # instant, despite clocks that disagree by 812 seconds.
    expected_sim = controller.clock.to_true_time(fire_at)
    assert abs(departures[0] - departures[1]) < 0.005
    for departure in departures:
        assert departure == pytest.approx(expected_sim, abs=0.005)


def test_both_endpoints_run_same_experiment_logic():
    """One controller serves N endpoints with identical logic (the
    N-interfaces-to-N-platforms fix from §1)."""
    from repro.experiments.ping import ping

    (net, controller, target, endpoint1, endpoint2,
     experimenter) = build_two_endpoint_world()
    descriptor = experimenter.make_descriptor(controller, 7000, "multi-ping")
    server = ControllerServer(
        controller, 7000, experimenter.identity(descriptor)
    ).start()
    endpoint1.connect_to_controller(
        controller.primary_address(), 7000, descriptor.hash())
    endpoint2.connect_to_controller(
        controller.primary_address(), 7000, descriptor.hash())
    results = {}

    def coordinate():
        for _ in range(2):
            handle = yield server.wait_endpoint()
            outcome = yield from ping(handle, target.primary_address(),
                                      count=2)
            results[handle.endpoint_name] = outcome
            handle.bye()
        return None

    net.sim.run_process(coordinate(), name="coordinator", timeout=300.0)
    assert set(results) == {"ep1", "ep2"}
    assert all(r.received == 2 for r in results.values())
    # ep2 sits on a longer access link: its RTTs must be larger, and both
    # must reflect their true paths despite the broken clocks.
    assert results["ep2"].rtt_min > results["ep1"].rtt_min
    assert results["ep1"].rtt_min == pytest.approx(2 * (0.008 + 0.015),
                                                   rel=0.15)
    assert results["ep2"].rtt_min == pytest.approx(2 * (0.031 + 0.015),
                                                   rel=0.15)
