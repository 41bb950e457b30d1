"""M3 — simulator micro-benchmarks: the fidelity and speed of the
substrate every other result stands on.

- event-loop and packet-forwarding rates (real time),
- mini-TCP bulk throughput against configured link bandwidth (fidelity),
- ICMP echo RTT against configured propagation delay (fidelity).
"""

import pytest
from conftest import print_table

from repro.netsim.kernel import Simulator
from repro.netsim.topology import Network, linear_topology
from repro.packet.ipv4 import IPv4Packet, PROTO_RAW_TEST


def test_m3_event_loop_rate(benchmark):
    def run_events():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 5000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run_events) == 5000


def test_m3_forwarding_rate(benchmark):
    """Packets through a 3-router chain per real second."""
    net, src, dst = linear_topology(hop_count=3, bandwidth_bps=1e9)
    received = []
    original = dst.local_deliver
    dst.local_deliver = lambda packet: (received.append(packet), original(packet))[1]
    payload = b"x" * 500
    addr_src, addr_dst = src.primary_address(), dst.primary_address()

    def run():
        received.clear()
        for _ in range(200):
            src.send_ip(IPv4Packet(src=addr_src, dst=addr_dst,
                                   proto=PROTO_RAW_TEST, payload=payload))
        net.sim.run()
        return len(received)

    assert benchmark(run) == 200


def test_m3_tcp_throughput_fidelity(benchmark):
    """Mini-TCP bulk transfer must achieve ~the configured bandwidth."""
    rows = []
    for bandwidth_mbps in [5.0, 20.0, 80.0]:
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, bandwidth_bps=bandwidth_mbps * 1e6, delay=0.005)
        net.compute_routes()
        total = 1_000_000
        done = {}

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            start = net.sim.now
            data = yield from conn.recv_exactly(total)
            done["elapsed"] = net.sim.now - start
            done["bytes"] = len(data)

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(b"Z" * total)
            conn.close()

        net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run()
        goodput = done["bytes"] * 8 / done["elapsed"] / 1e6
        # Without window scaling (like classic TCP), throughput is capped
        # by rwnd/RTT: 64 KiB over a ~10.5 ms RTT is ~50 Mbps.
        rtt = 2 * (0.005 + 1514 * 8 / (bandwidth_mbps * 1e6))
        window_cap_mbps = 65535 * 8 / rtt / 1e6
        achievable = min(bandwidth_mbps, window_cap_mbps)
        efficiency = goodput / achievable
        rows.append([bandwidth_mbps, achievable, goodput, efficiency * 100])
        # Shape: TCP reaches 75%+ of the achievable rate (headers, slow
        # start, and ACK-clocking overhead account for the rest).
        assert efficiency > 0.75, (bandwidth_mbps, goodput, achievable)
    print_table(
        "M3: mini-TCP goodput vs achievable rate (min of link, rwnd/RTT)",
        ["link (Mbps)", "achievable (Mbps)", "goodput (Mbps)", "efficiency %"],
        rows,
    )

    def one_transfer():
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b, bandwidth_bps=50e6, delay=0.005)
        net.compute_routes()

        def server():
            listener = b.tcp.listen(80)
            conn = yield listener.accept()
            return (yield from conn.recv_exactly(100_000))

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 80)
            conn.write(b"Z" * 100_000)
            conn.close()

        proc = net.sim.spawn(server(), name="s")
        net.sim.spawn(client(), name="c")
        net.run()
        return len(proc.result)

    assert benchmark.pedantic(one_transfer, rounds=2, iterations=1) == 100_000


def test_m3_rtt_fidelity(benchmark):
    """Echo RTT equals 2 x (propagation + serialization) per hop."""
    rows = []
    for hop_count in [1, 3, 6]:
        net, src, dst = linear_topology(
            hop_count=hop_count, link_delay=0.01, bandwidth_bps=1e9
        )
        replies = []
        src.icmp.add_listener(
            lambda packet, message: replies.append(net.sim.now)
        )
        start = net.sim.now
        src.icmp.send_echo_request(dst.primary_address(), 1, 1)
        net.run()
        rtt = replies[-1] - start
        expected = 2 * 0.01 * (hop_count + 1)
        rows.append([hop_count, rtt * 1000, expected * 1000])
        assert rtt == pytest.approx(expected, rel=0.05)
    print_table(
        "M3: ICMP RTT vs configured propagation delay",
        ["routers", "measured RTT (ms)", "expected (ms)"],
        rows,
    )

    def one_ping():
        net, src, dst = linear_topology(hop_count=2)
        src.icmp.send_echo_request(dst.primary_address(), 1, 1)
        net.run()
        return True

    assert benchmark.pedantic(one_ping, rounds=3, iterations=1)
