"""Tests for link modelling: serialization, queueing, loss, asymmetry."""

import pytest

from repro.netsim.links import LINK_OVERHEAD_BYTES
from repro.netsim.topology import Network
from repro.netsim.trace import PacketTrace
from repro.packet.ipv4 import PROTO_RAW_TEST, IPv4Packet


def make_pair(**link_kwargs):
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.link(a, b, **link_kwargs)
    net.compute_routes()
    return net, a, b, link


def collect_received(node):
    received = []
    original = node.local_deliver
    node.local_deliver = lambda packet: (received.append((node.sim.now, packet)),
                                         original(packet))[1]
    return received


def test_propagation_and_serialization_delay():
    bandwidth = 8e6  # 1 MB/s
    net, a, b, link = make_pair(bandwidth_bps=bandwidth, delay=0.05)
    received = collect_received(b)
    payload = b"x" * (1000 - 20 - LINK_OVERHEAD_BYTES)  # 1000 bytes on the wire
    packet = IPv4Packet(src=a.primary_address(), dst=b.primary_address(),
                        proto=PROTO_RAW_TEST, payload=payload)
    net.sim.schedule(0.0, a.send_ip, packet)
    net.run()
    assert len(received) == 1
    arrival = received[0][0]
    expected = 1000 * 8 / bandwidth + 0.05
    assert arrival == pytest.approx(expected, rel=1e-9)


def test_back_to_back_packets_queue_behind_each_other():
    bandwidth = 8e6
    net, a, b, link = make_pair(bandwidth_bps=bandwidth, delay=0.0)
    received = collect_received(b)
    size_on_wire = 500
    payload = b"y" * (size_on_wire - 20 - LINK_OVERHEAD_BYTES)
    dst = b.primary_address()
    src = a.primary_address()

    def burst():
        for _ in range(3):
            a.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_RAW_TEST,
                                 payload=payload))
        yield 0.0

    net.sim.run_process(burst())
    net.run()
    tx_time = size_on_wire * 8 / bandwidth
    times = [when for when, _ in received]
    assert times == pytest.approx([tx_time, 2 * tx_time, 3 * tx_time])


def test_queue_overflow_drops_tail():
    # Queue sized for ~2 packets on the wire.
    net, a, b, link = make_pair(
        bandwidth_bps=1e6, delay=0.0, queue_bytes=2 * 1014 + 10
    )
    payload = b"z" * (1014 - 20 - LINK_OVERHEAD_BYTES)
    src, dst = a.primary_address(), b.primary_address()

    def burst():
        for _ in range(10):
            a.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_RAW_TEST,
                                 payload=payload))
        yield 0.0

    net.sim.run_process(burst())
    net.run()
    direction = link.forward
    assert direction.stats.packets_dropped_queue > 0
    assert direction.stats.packets_sent + direction.stats.packets_dropped_queue == 10


def test_random_loss_is_seeded_and_reproducible():
    results = []
    for _ in range(2):
        net, a, b, link = make_pair(loss_rate=0.5, seed=1234)
        src, dst = a.primary_address(), b.primary_address()

        def burst():
            for _ in range(100):
                a.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_RAW_TEST,
                                     payload=b"q"))
            yield 0.0

        net.sim.run_process(burst())
        net.run()
        results.append(link.forward.stats.packets_dropped_loss)
    assert results[0] == results[1]
    assert 20 < results[0] < 80  # plausible for p=0.5, n=100


def test_asymmetric_link_directions():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.link(a, b, bandwidth_bps=100e6, delay=0.001,
                    bandwidth_up_bps=5e6, delay_up=0.002)
    net.compute_routes()
    assert link.forward.bandwidth_bps == 100e6
    assert link.reverse.bandwidth_bps == 5e6
    assert link.reverse.delay == 0.002


def test_trace_observer_records_outcomes():
    net, a, b, link = make_pair()
    trace = PacketTrace().attach(link)
    src, dst = a.primary_address(), b.primary_address()
    net.sim.schedule(
        0.0, a.send_ip,
        IPv4Packet(src=src, dst=dst, proto=PROTO_RAW_TEST, payload=b"t"),
    )
    net.run()
    outcomes = [record.outcome for record in trace.records]
    assert outcomes == ["sent", "delivered"]
    assert trace.delivered_bytes() == 20 + 1


def test_jitter_spreads_arrivals():
    """Per-packet jitter varies delivery delay within [delay, delay+jitter]
    and is seeded/reproducible."""
    arrival_sets = []
    for _ in range(2):
        net, a, b, link = make_pair(bandwidth_bps=1e9, delay=0.010,
                                    jitter=0.005, seed=7)
        received = collect_received(b)
        src, dst = a.primary_address(), b.primary_address()

        def burst():
            for index in range(20):
                a.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_RAW_TEST,
                                     payload=bytes([index])))
            yield 0.0

        net.sim.run_process(burst())
        net.run()
        arrivals = [when for when, _ in received]
        assert len(arrivals) == 20
        for when in arrivals:
            assert 0.010 <= when <= 0.016  # delay .. delay+jitter+tx
        arrival_sets.append(arrivals)
    assert arrival_sets[0] == arrival_sets[1]  # seeded determinism
    # Jitter actually varies the delays.
    assert len(set(round(t, 6) for t in arrival_sets[0])) > 5


def test_bad_bandwidth_rejected():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    with pytest.raises(ValueError):
        net.link(a, b, bandwidth_bps=0)
