"""White-box tests for specific TCP mechanisms: fast retransmit,
zero-window probing, TIME_WAIT, and RTT estimation."""

import pytest

from repro.core.testbed import Testbed
from repro.netsim.node import Node
from repro.netsim.topology import Network
from repro.packet.ipv4 import IPv4Packet, PROTO_TCP
from repro.packet.tcp import TcpSegment


def lossy_pair(**kwargs):
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.link(a, b, **kwargs)
    net.compute_routes()
    return net, a, b, link


class DropNth:
    """A surgical packet dropper: drops the Nth TCP data segment a->b."""

    def __init__(self, node: Node, drop_indices: set[int]):
        self.count = 0
        self.drop_indices = drop_indices
        self.dropped = []
        original = node.send_ip

        def intercept(packet: IPv4Packet) -> bool:
            if packet.proto == PROTO_TCP and len(packet.payload) > 20:
                payload_len = packet.total_length - 20 - 20
                if payload_len > 0:
                    self.count += 1
                    if self.count in self.drop_indices:
                        self.dropped.append(self.count)
                        return True  # swallowed: simulated loss
            return original(packet)

        node.send_ip = intercept


def test_fast_retransmit_recovers_single_loss_quickly():
    """Drop exactly one mid-stream segment: dup-ACKs trigger a fast
    retransmit of the hole, and the (out-of-order-discarding) receiver's
    remaining gap heals within a single RTO — bounded recovery, no
    exponential-backoff stall."""
    net, a, b, link = lossy_pair(bandwidth_bps=50e6, delay=0.005)
    dropper = DropNth(a, {5})
    total = 40_000
    finish = {}

    def server():
        listener = b.tcp.listen(80)
        conn = yield listener.accept()
        data = yield from conn.recv_exactly(total)
        finish["time"] = net.sim.now
        finish["data_ok"] = data == b"F" * total

    def client():
        conn = yield from a.tcp.open_connection(b.primary_address(), 80)
        finish["conn"] = conn
        conn.write(b"F" * total)
        conn.close()

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=120.0)
    assert finish["data_ok"]
    assert dropper.dropped == [5]
    conn = finish["conn"]
    assert conn.retransmissions >= 1
    # Ideal transfer ~36 ms; one loss costs at most the 200 ms minimum RTO
    # plus the redelivery. Anything near a second would indicate the
    # one-segment-per-backed-off-RTO stall this suite guards against.
    ideal = total * 8 / 50e6 + 0.030
    assert finish["time"] < ideal + 0.300


def test_zero_window_probe_keeps_connection_alive():
    """A receiver that stays at window 0 for a long time: the sender's
    probe timer must keep testing so the transfer resumes promptly."""
    net, a, b, link = lossy_pair(bandwidth_bps=50e6, delay=0.002)
    listener = b.tcp.listen(80, rcv_buffer=2048)
    resumed = {}

    def server():
        conn = yield listener.accept()
        yield 3.0  # window stays closed for 3 s
        data = yield from conn.recv_exactly(6000)
        resumed["done"] = net.sim.now
        resumed["ok"] = data == b"Z" * 6000

    def client():
        conn = yield from a.tcp.open_connection(b.primary_address(), 80)
        conn.write(b"Z" * 6000)
        conn.close()

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=60.0)
    assert resumed["ok"]
    # Shortly after the reader drains, the transfer completes (window
    # updates plus probes prevent deadlock).
    assert resumed["done"] < 4.5


def test_time_wait_then_port_reuse():
    """After a graceful close, the connection leaves the demux table once
    TIME_WAIT expires, and the same 4-tuple can be used again."""
    net, a, b, link = lossy_pair()
    done = {}

    def server():
        listener = b.tcp.listen(80)
        while True:
            conn = yield listener.accept()
            request = yield from conn.recv_exactly(4)
            conn.write(request[::-1])
            conn.close()

    def client():
        for round_index in range(2):
            conn = a.tcp.connect(b.primary_address(), 80, src_port=51000)
            yield from conn.wait_established()
            conn.write(b"ping")
            reply = yield from conn.recv_exactly(4)
            assert reply == b"gnip"
            conn.close()
            yield from conn.wait_closed()
            # Wait out TIME_WAIT before reusing the exact 4-tuple.
            yield 1.5
        done["rounds"] = 2

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=60.0)
    assert done["rounds"] == 2
    assert a.tcp._connections == {}


def test_rtt_estimator_converges():
    """SRTT approaches the true path RTT on a clean link."""
    net, a, b, link = lossy_pair(bandwidth_bps=100e6, delay=0.025)
    state = {}

    def server():
        listener = b.tcp.listen(80)
        conn = yield listener.accept()
        yield from conn.recv_exactly(60_000)
        conn.close()

    def client():
        conn = yield from a.tcp.open_connection(b.primary_address(), 80)
        conn.write(b"R" * 60_000)
        conn.close()
        yield from conn.wait_closed()
        state["srtt"] = conn.srtt

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=60.0)
    # True RTT ~= 2 * 25 ms + serialization.
    assert state["srtt"] == pytest.approx(0.050, rel=0.35)


def test_double_loss_still_delivers():
    """Two separate losses in one transfer: correctness holds."""
    net, a, b, link = lossy_pair(bandwidth_bps=50e6, delay=0.005)
    DropNth(a, {4, 12})
    total = 50_000
    result = {}

    def server():
        listener = b.tcp.listen(80)
        conn = yield listener.accept()
        data = yield from conn.recv_exactly(total)
        result["ok"] = data == b"D" * total

    def client():
        conn = yield from a.tcp.open_connection(b.primary_address(), 80)
        conn.write(b"D" * total)
        conn.close()

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=120.0)
    assert result["ok"]


def test_rpc_round_trips_carry_their_acks():
    """Back-to-back RPCs over the Testbed access link: each command and
    each reply is one data segment that acknowledges the last one the
    other way, and no bare ACK crosses the link."""
    testbed = Testbed()
    segments = {"fwd": [], "rev": []}
    recording = []

    def observe(now, direction, packet, outcome):
        if recording and outcome == "sent" and packet.proto == PROTO_TCP:
            segment = TcpSegment.decode(packet.payload, packet.src,
                                        packet.dst)
            segments[direction.name[-3:]].append(
                "data" if segment.payload else f"flags={segment.flags:#x}")

    testbed.access_link.add_observer(observe)

    def experiment(handle):
        yield from handle.read_clock()  # the session is fully up
        yield 1.0
        recording.append(True)
        for _ in range(3):
            yield from handle.read_clock()
        recording.clear()

    testbed.run_experiment(experiment)
    assert segments == {"fwd": ["data"] * 3, "rev": ["data"] * 3}


def test_bulk_sender_sends_no_window_limited_runts():
    """The receiver acknowledges after its application read, so it
    advertises its whole buffer. A sender that filled each sliver of
    window as it opened would fall into silly-window syndrome: one-byte
    segments and an ACK for each."""
    net, a, b, link = lossy_pair(bandwidth_bps=5e6, delay=0.005)
    sizes = []  # TCP payload bytes of each segment a -> b

    def observe(now, direction, packet, outcome):
        if outcome == "sent":
            sizes.append(packet.total_length - 40)

    link.forward.add_observer(observe)
    total = 300_000
    done = {}

    def server():
        conn = yield b.tcp.listen(80).accept()
        data = yield from conn.recv_exactly(total)
        done["ok"] = data == b"S" * total

    def client():
        conn = yield from a.tcp.open_connection(b.primary_address(), 80)
        conn.write(b"S" * total)
        conn.close()

    net.sim.spawn(server(), name="server")
    net.sim.spawn(client(), name="client")
    net.run(until=60.0)
    assert done["ok"]
    # A runt that carries all the data queued at the time is allowed: the
    # application refills its buffer just after the ACK that freed it.
    runts = [size for size in sizes if 0 < size < 1460]
    assert len(runts) * 20 <= len(sizes), runts[:10]
