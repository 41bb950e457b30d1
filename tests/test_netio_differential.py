"""Endpoint data sockets: continuations against the reading processes.

``UdpEndpointSocket`` and ``TcpEndpointSocket`` read through ``Event.then``
continuations; ``tests/netio_oracle.py`` keeps the process loops they
replace. Driven alike, both must capture the same records at the same
instants, report the same drops and take the same heap entries but the
loops' spawns. A socket runs no process, and once closed it is freed by
reference count.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from netio_oracle import PullTcpSocket, PullUdpSocket
from repro.endpoint.capture import CaptureBuffer
from repro.endpoint.netio import (
    EndpointSocket,
    TcpEndpointSocket,
    UdpEndpointSocket,
)
from repro.netsim.kernel import Simulator
from repro.netsim.topology import Network
from repro.packet.ipv4 import PROTO_UDP, IPv4Packet
from repro.packet.udp import UdpDatagram

UDP_PORT, PEER_UDP_PORT, TCP_PORT = 5000, 6000, 80
START = 1.0  # both sockets are open by then
STEP = 0.25  # instants fall on a grid, so several share one
END = START + 40 * STEP

INSTANT = st.integers(0, 30).map(lambda k: START + k * STEP)


def _pair():
    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    net.link(a, b)
    net.compute_routes()
    return net, a, b


def allow(build):
    """A certificate monitor check that allows everything."""
    return True


def _datagram(a, b, payload):
    return IPv4Packet(b.primary_address(), a.primary_address(), PROTO_UDP,
                      segment=UdpDatagram(src_port=PEER_UDP_PORT,
                                          dst_port=UDP_PORT, payload=payload))


def _run(udp_cls, tcp_cls, scenario):
    """Drive one UDP and one TCP socket sharing a capture buffer; return
    every drain (instant, records, drop counters), the last one at the
    end, and the number of timers the run scheduled."""
    net, a, b = _pair()
    sim = net.sim
    buffer = CaptureBuffer(sim, scenario["capacity"])
    deny = scenario["deny"]

    def check_recv(build):
        # A monitor that refuses some chunks: the last byte picks which.
        return not deny or build()[-1] % 3 != 0

    shared = (a, buffer, a.clock.ticks, check_recv)
    sockets = [udp_cls(0, *shared, UDP_PORT, b.primary_address(),
                       PEER_UDP_PORT)]

    def endpoint():
        conn = a.tcp.connect(b.primary_address(), TCP_PORT)
        yield from conn.wait_established()
        sockets.append(tcp_cls(1, *shared, conn))

    def peer():
        listener = b.tcp.listen(TCP_PORT)
        conn = yield listener.accept()
        for when, size in sorted(scenario["tcp_writes"]):
            yield when - sim.now
            conn.write(bytes([size % 256]) * size)
        yield max(0.0, scenario["tcp_end"] - sim.now)
        if scenario["reset"]:
            conn.abort()
        else:
            conn.close()

    drains = []

    def drain():
        records, packets, nbytes = buffer.drain()
        drains.append((sim.now, [(r.sktid, r.timestamp, r.data)
                                 for r in records], packets, nbytes))

    sim.spawn(peer(), name="peer")
    sim.spawn(endpoint(), name="endpoint")
    for when, size in scenario["datagrams"]:
        sim.schedule_at(when, a.udp.receive,
                        _datagram(a, b, bytes([size % 256]) * size))
    for when in scenario["drains"]:
        sim.schedule_at(when, drain)
    for index, when in enumerate(scenario["closes"]):
        if when is not None:
            sim.schedule_at(when, lambda i=index: sockets[i].close())
    # Bounded: a sender facing a shut window probes it for ever.
    net.run(until=END)
    drain()
    return drains, sim._seq


SCENARIO = st.fixed_dictionaries({
    "capacity": st.integers(256, 8192),
    "deny": st.booleans(),
    "datagrams": st.lists(st.tuples(INSTANT, st.integers(0, 1400)),
                          max_size=20),
    "tcp_writes": st.lists(st.tuples(INSTANT, st.integers(1, 4000)),
                           max_size=8),
    "tcp_end": INSTANT,
    "reset": st.booleans(),
    "drains": st.lists(INSTANT, max_size=8),
    "closes": st.tuples(st.none() | INSTANT, st.none() | INSTANT),
})


class TestPushReadersMatchPullLoops:
    @settings(max_examples=80, deadline=None)
    @given(scenario=SCENARIO)
    def test_push_and_pull_sockets_capture_alike(self, scenario):
        """Random arrivals (several in one instant), capture buffer sizes,
        ``npoll`` drains, monitor refusals, closes and TCP ends: the same
        ``(sktid, timestamp, data)`` records and drop counters in every
        drain, and the continuations take every heap entry the loops took
        except their two spawns."""
        pushed, pushed_timers = _run(UdpEndpointSocket, TcpEndpointSocket,
                                     scenario)
        pulled, pulled_timers = _run(PullUdpSocket, PullTcpSocket, scenario)
        assert pushed == pulled
        assert pushed_timers == pulled_timers - 2


class TestSocketCensus:
    def test_data_sockets_run_no_process_and_go_with_their_last_reference(
            self):
        """Opening, using and closing a UDP and a TCP socket spawns no
        process; a closed socket is freed by reference count, so the
        collector then finds none."""
        spawned = []
        spawn = Simulator.spawn

        def counted(sim, gen, name=""):
            spawned.append(name)
            return spawn(sim, gen, name)

        net, a, b = _pair()
        sim = net.sim
        buffer = CaptureBuffer(sim, 8192)
        listener = b.tcp.listen(TCP_PORT)
        conn = a.tcp.connect(b.primary_address(), TCP_PORT)
        net.run(until=START)
        peer = listener.backlog.try_get()
        gc.disable()
        Simulator.spawn = counted
        try:
            shared = (a, buffer, a.clock.ticks, allow)
            udp = UdpEndpointSocket(0, *shared, UDP_PORT, b.primary_address(),
                                    PEER_UDP_PORT)
            tcp = TcpEndpointSocket(1, *shared, conn)
            assert udp.send_scheduled(b"out", allow)
            assert tcp.send_scheduled(b"out", allow)
            a.udp.receive(_datagram(a, b, b"in"))
            peer.write(b"in")
            net.run(until=START + 1.0)
            records = buffer.drain()[0]
            assert sorted(r.sktid for r in records) == [0, 1]
            udp.close()
            tcp.close()
            net.run(until=START + 5.0)
            refs = [weakref.ref(udp), weakref.ref(tcp)]
            del udp, tcp
            assert [ref() for ref in refs] == [None, None]
        finally:
            Simulator.spawn = spawn
            gc.enable()
        assert spawned == []
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, EndpointSocket)]


class TestTcpSend:
    def test_a_send_on_a_reset_connection_fails(self):
        """``nsend`` writes into TCP at once; a connection the peer reset
        makes the scheduled send fail instead of counting it done."""
        net, a, b = _pair()
        listener = b.tcp.listen(TCP_PORT)
        conn = a.tcp.connect(b.primary_address(), TCP_PORT)
        net.run(until=START)
        tcp = TcpEndpointSocket(0, a, CaptureBuffer(net.sim, 8192),
                                a.clock.ticks, allow, conn)
        assert tcp.send_scheduled(b"before", allow)
        listener.backlog.try_get().abort()
        net.run(until=START + 1.0)
        assert conn.error is not None
        assert not tcp.send_scheduled(b"after", allow)
