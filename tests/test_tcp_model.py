"""Model-based test of the mini-TCP over a scripted link.

Two ``TcpConnection``s run an echo workload over a link whose
per-packet fate is a drawn script: deliver, drop, duplicate, or delay by
``k`` link delays. The script comes in one of wf-eval's three drop
modes: ``off`` (every packet delivered), ``fixed`` (each fate drawn on
its own) and ``dynamic`` (fates drawn in bursts). Once the script runs
out, every packet is delivered. The server's receive buffer and its
pause before each read are drawn too, so zero windows, window updates
and probes are exercised.

The oracle, checked after every run:

- each side received a prefix of what its peer's application sent,
  delivered once and in order, and all of it unless a side timed out;
- every connection ends ``CLOSED``: gracefully, with
  ``ConnectionTimeout`` after ``MAX_RETRIES`` back-offs (never on a
  script with ``MAX_RETRIES`` drops or fewer), or reset after its peer
  gave up; the application's deadline is needed only after a timeout;
- no TCP timer fires after its connection tore down, and none is left
  armed;
- on every data segment (new data, a go-back-N resend or a fast
  retransmit) ``bytes_in_flight <= min(cwnd, peer window)`` as the
  sender sees them, counting any bytes the segment carries past
  ``snd_nxt``. Only window probes, which go one byte past a zero window
  by design, are left out. Between segments the bound may lapse: an
  RTO collapses ``cwnd`` to one segment before the go-back-N rewind;
- every arrival that moves ``rcv_nxt`` is acknowledged by a segment
  the receiver emits at the same sim time, and apart from the ACKs that
  stay immediate (duplicate, out-of-order, FIN, nothing accepted,
  TIME_WAIT, handshake, window update) a connection sends at most one
  bare ACK per instant;
- the same script replays the same timer firings, time for time.
"""

from collections import Counter
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.kernel import Simulator
from repro.netsim.stack.tcp import (
    CLOSED,
    DEFAULT_RCV_BUFFER,
    MAX_RETRIES,
    SYN_SENT,
    ConnectionReset,
    ConnectionTimeout,
    TcpConnection,
    TcpError,
    TcpLayer,
    seq_add,
    seq_lt,
    seq_sub,
)
from repro.packet.tcp import FLAG_ACK, TcpSegment

LINK_DELAY = 0.01
DEADLINE = 10_000.0  # far beyond any script's worth of back-offs
CLIENT_IP, SERVER_IP, PORT = 0x0A000001, 0x0A000002, 80

DELIVER, DROP, DUPLICATE = "deliver", "drop", "duplicate"
# An int k is "delay by k link delays", so later packets overtake it.
_FATE = st.one_of(st.sampled_from([DELIVER, DROP, DUPLICATE]),
                  st.integers(1, 4))


@st.composite
def fate_scripts(draw):
    mode = draw(st.sampled_from(["off", "fixed", "dynamic"]))
    if mode == "off":
        return []
    if mode == "fixed":
        return draw(st.lists(_FATE, max_size=60))
    bursts = draw(st.lists(st.tuples(st.integers(1, 12), _FATE), max_size=8))
    return [fate for length, fate in bursts for _ in range(length)]


class RecordingSimulator(Simulator):
    """Logs every timer firing, and any TCP timer that fires after its
    connection tore down."""

    def __init__(self) -> None:
        super().__init__()
        self.fired: list[tuple[float, str]] = []
        self.late: list[tuple[float, str]] = []

    def schedule_at(self, time, callback, *args):
        return super().schedule_at(time, self._fire, callback, args)

    def _fire(self, callback, args) -> None:
        self.fired.append((self.now, callback.__qualname__))
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, TcpConnection) and owner._closed_event.fired:
            self.late.append((self.now, callback.__qualname__))
        callback(*args)


class Host:
    """Just enough of a ``Node`` for a ``TcpLayer``."""

    def __init__(self, sim, name: str, address: int, wire: "ScriptedWire"):
        self.sim = sim
        self.name = name
        self.address = address
        self.wire = wire
        self.tcp = TcpLayer(self)

    def primary_address(self) -> int:
        return self.address

    def send_ip(self, packet) -> bool:
        self.wire.carry(self, packet)
        return True


class ScriptedWire:
    """The link: each packet, in either direction, takes the next fate.

    It also keeps the ACK ledger: what each connection emitted, which
    arrivals moved ``rcv_nxt``, and what may send a bare ACK at once.
    """

    def __init__(self, sim, fates) -> None:
        self.sim = sim
        self.fates = iter(fates)
        self.hosts: dict[int, Host] = {}
        self.conns: list[TcpConnection] = []  # every one that ever sent
        self.window_breaches: list[tuple[float, int, int]] = []
        self.emitted: list[tuple[float, TcpConnection, TcpSegment]] = []
        # (index into emitted, time, conn, rcv_nxt) per arrival that
        # moved rcv_nxt.
        self.advances: list[tuple[int, float, TcpConnection, int]] = []
        # (time, conn) -> events there that may send a bare ACK at once:
        # window updates, and arrivals with sequence space other than
        # in-order data that neither ends the stream nor the handshake.
        self.at_once: Counter = Counter()
        self.closed_at: dict[TcpConnection, float] = {}

    def carry(self, host: Host, packet) -> None:
        segment = TcpSegment.decode(packet.payload, packet.src, packet.dst)
        conn = host.tcp._connections.get(
            (packet.src, segment.src_port, packet.dst, segment.dst_port))
        if conn is not None:
            if conn not in self.conns:
                self._watch(conn)
            self.emitted.append((self.sim.now, conn, segment))
            self._check_window(conn, segment)
        fate = next(self.fates, DELIVER)
        if fate == DROP:
            return
        if fate == DELIVER:
            delays = [1]
        elif fate == DUPLICATE:
            delays = [1, 1]  # both copies land in the same instant
        else:
            delays = [1 + fate]
        peer = self.hosts[packet.dst]
        for units in delays:
            self.sim.schedule(units * LINK_DELAY, self._arrive, peer, packet)

    def _watch(self, conn: TcpConnection) -> None:
        self.conns.append(conn)

        def closed():
            yield conn._closed_event
            self.closed_at[conn] = self.sim.now

        self.sim.spawn(closed(), name="closed-at")

    def counted_window_updates(self, update):
        """``TcpConnection._maybe_send_window_update`` wrapped to count a
        watched connection's window update as sent at once. It is patched
        on the class: a slotted connection takes no instance attribute."""

        def counted_update(conn):
            if conn not in self.conns:
                return update(conn)
            sent = len(self.emitted)
            update(conn)
            if len(self.emitted) > sent:
                self.at_once[self.sim.now, conn] += 1

        return counted_update

    def _arrive(self, host: Host, packet) -> None:
        segment = TcpSegment.decode(packet.payload, packet.src, packet.dst)
        conn = host.tcp._connections.get(
            (packet.dst, segment.dst_port, packet.src, segment.src_port))
        if conn is None:
            host.tcp.receive(packet)
            return
        state, rcv_nxt, eof = conn.state, conn.rcv_nxt, conn.rcv_eof
        index = len(self.emitted)
        host.tcp.receive(packet)
        advanced = conn.rcv_nxt != rcv_nxt
        if advanced:
            self.advances.append((index, self.sim.now, conn, conn.rcv_nxt))
        data_only = advanced and state != SYN_SENT and conn.rcv_eof == eof
        if segment.seg_len and not data_only:
            self.at_once[self.sim.now, conn] += 1

    def _check_window(self, conn: TcpConnection, segment) -> None:
        # Every data segment but a window probe, which goes one byte past
        # a zero window at snd_nxt; _try_transmit has already moved
        # snd_nxt past its own segments. A segment reaching past snd_nxt
        # carries never-sent bytes, which count as in flight too.
        if not segment.payload or segment.seq == conn.snd_nxt:
            return
        end = seq_add(segment.seq, len(segment.payload))
        in_flight = max(conn.bytes_in_flight, seq_sub(end, conn.snd_una))
        bound = min(conn.cwnd, conn.snd_wnd)
        if in_flight > bound:
            self.window_breaches.append((self.sim.now, in_flight, bound))


def _client(conn, messages, log):
    try:
        yield from conn.wait_established()
        for message in messages:
            log["sent"] += message
            conn.write(message)
            while len(log["received"]) < len(log["sent"]):
                chunk = yield from conn.recv()
                if not chunk:
                    raise TcpError("echo cut short")
                log["received"] += chunk
        conn.close()
        yield from conn.wait_closed()
    except TcpError as error:
        log["error"] = error


def _server(listener, pause, log):
    conn = yield listener.accept()
    try:
        while True:
            if pause:
                yield pause
            chunk = yield from conn.recv()
            if not chunk:
                break
            log["received"] += chunk
            log["sent"] += chunk
            conn.write(chunk)
        conn.close()
        yield from conn.wait_closed()
    except TcpError as error:
        log["error"] = error


class ModelRun:
    """One run of the echo workload over one fate script."""

    def __init__(self, fates, messages, rcv_buffer, pause) -> None:
        self.fates = fates
        self.sim = sim = RecordingSimulator()
        self.wire = wire = ScriptedWire(sim, fates)
        client = Host(sim, "client", CLIENT_IP, wire)
        server = Host(sim, "server", SERVER_IP, wire)
        wire.hosts = {CLIENT_IP: client, SERVER_IP: server}
        listener = server.tcp.listen(PORT, rcv_buffer=rcv_buffer)
        self.logs = {side: {"sent": bytearray(), "received": bytearray(),
                            "error": None} for side in ("client", "server")}
        self.aborted: list[TcpConnection] = []
        conn = client.tcp.connect(SERVER_IP, PORT)
        sim.spawn(_client(conn, messages, self.logs["client"]), name="client")
        sim.spawn(_server(listener, pause, self.logs["server"]), name="server")
        sim.schedule_at(DEADLINE, self._deadline)
        update = TcpConnection._maybe_send_window_update
        TcpConnection._maybe_send_window_update = wire.counted_window_updates(
            update)
        try:
            sim.run(max_events=500_000)
        finally:
            TcpConnection._maybe_send_window_update = update

    def _deadline(self) -> None:
        # The application's own deadline. A side whose peer gave up in
        # silence idles with nothing outstanding, so no TCP timer runs.
        for conn in self.wire.conns:
            if conn.state != CLOSED:
                self.aborted.append(conn)
                conn.abort()

    def check(self) -> None:
        client, server = self.logs["client"], self.logs["server"]
        # Prefix, once, in order.
        assert server["received"] == client["sent"][:len(server["received"])]
        assert client["received"] == server["sent"][:len(client["received"])]
        conns = self.wire.conns
        for conn in conns:
            assert conn.state == CLOSED and conn._closed_event.fired, conn
            assert conn.error is None or isinstance(
                conn.error, (ConnectionTimeout, ConnectionReset)), conn.error
            assert (conn._rtx_timer, conn._probe_timer,
                    conn._time_wait_timer) == (None, None, None)
        timed_out = any(isinstance(c.error, ConnectionTimeout) for c in conns)
        # Giving up takes MAX_RETRIES + 1 expiries in a row, and each needs
        # a drop: delays stay far below the minimum RTO.
        if self.fates.count(DROP) <= MAX_RETRIES:
            assert not timed_out
        if not timed_out:
            # Everything arrived and nobody needed the deadline. A reset
            # is still possible for the side whose last FIN retransmission
            # outlived the peer's TIME_WAIT.
            assert client["received"] == client["sent"] == server["sent"]
            assert client["error"] is None
            assert self.aborted == []
        assert self.sim.late == []
        assert self.wire.window_breaches == []
        assert self.sim._heap == []
        self.check_acks()

    def check_acks(self) -> None:
        wire = self.wire
        # Whatever moved rcv_nxt is acknowledged in the instant it
        # arrived, unless the connection closed in that instant.
        for index, time, conn, rcv_nxt in wire.advances:
            if wire.closed_at.get(conn) == time:
                continue
            assert any(
                sent is conn and at == time and segment.has(FLAG_ACK)
                and not seq_lt(segment.ack, rcv_nxt)
                for at, sent, segment in wire.emitted[index:]
            ), (time, conn)
        # Apart from the ACKs that stay immediate, a connection sends at
        # most one bare ACK per instant.
        bare = Counter((at, sent) for at, sent, segment in wire.emitted
                       if segment.flags == FLAG_ACK and not segment.payload)
        for key, count in bare.items():
            assert count <= 1 + wire.at_once[key], key


# Seeded random bytes: a byte out of place changes the stream.
_MESSAGES = st.lists(st.integers(1, 4000), min_size=1, max_size=5).map(
    lambda sizes: [Random(index).randbytes(size)
                   for index, size in enumerate(sizes)])


@settings(max_examples=150, deadline=None)
# Window-bound counterexamples, pinned. A fast retransmit used to resend
# snd_buffer[:mss], past snd_nxt into never-sent bytes.
@example(fates=[DUPLICATE] * 8, messages=[Random(0).randbytes(1401)],
         rcv_buffer=700, pause=0.0)
# A delayed ACK tied on seq and ack with a later window update, but
# narrower, used to shrink the window under the byte in flight.
@example(fates=[1] + [DUPLICATE] * 8 + [1] * 3,
         messages=[Random(0).randbytes(1401)], rcv_buffer=700, pause=0.0)
# Newer by seq than a data retransmission carrying a later ack: RFC 793's
# seq-first order takes its window, though it is stale.
@example(fates=[4] * 9 + [DUPLICATE] * 4,
         messages=[Random(0).randbytes(1), Random(1).randbytes(1401)],
         rcv_buffer=700, pause=0.7)
@given(
    fates=fate_scripts(),
    messages=_MESSAGES,
    rcv_buffer=st.sampled_from([700, 4096, DEFAULT_RCV_BUFFER]),
    pause=st.sampled_from([0.0, 0.03, 0.7]),
)
def test_tcp_over_a_scripted_link(fates, messages, rcv_buffer, pause):
    run = ModelRun(fates, messages, rcv_buffer, pause)
    run.check()
    replay = ModelRun(fates, messages, rcv_buffer, pause)
    assert replay.sim.fired == run.sim.fired


def test_clean_link_completes():
    """Mode ``off``: the echo completes and both sides close cleanly."""
    run = ModelRun([], [b"x" * 3000, b"y"], 4096, 0.0)
    run.check()
    assert bytes(run.logs["client"]["received"]) == b"x" * 3000 + b"y"
    assert [conn.error for conn in run.wire.conns] == [None, None]
