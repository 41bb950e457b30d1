"""Tests for the wire protocol: message codecs and framing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.stack.tcp import TcpError
from repro.netsim.topology import Network
from repro.proto import messages
from repro.proto.framing import (
    MAX_FRAME,
    FramingError,
    MessageStream,
    UndecodableFrame,
)
from repro.proto.messages import (
    Auth,
    AuthFail,
    AuthOk,
    Bye,
    CaptureRecord,
    Hello,
    Interrupted,
    MRead,
    MWrite,
    NCap,
    NClose,
    NOpen,
    NPoll,
    NSend,
    PollData,
    RdzExperiment,
    RdzHeartbeat,
    RdzPublish,
    RdzPublishResult,
    RdzSubscribe,
    Result,
    Resumed,
    SessionEnd,
    Yield,
    decode_message,
)
from repro.util.byteio import DecodeError

ALL_MESSAGES = [
    Hello(version=1, caps=7, endpoint_name="ep-九", descriptor_hash=b"\x01" * 32),
    Auth(descriptor=b"DESC", chains=(b"CHAIN1", b"CHAIN2"), priority=3),
    AuthOk(session_id=42, buffer_limit=65536),
    AuthFail(reason="chain rejected: expired", code=2, report="recv: oob at pc 3"),
    NOpen(reqid=1, sktid=2, proto=1, locport=80, remaddr=0x0A000001, remport=443),
    NClose(reqid=2, sktid=2),
    NSend(reqid=3, sktid=0, time=2**63, data=b"\x00\xffdata"),
    NCap(reqid=4, sktid=0, time=10**18, filt=b"PROGRAM"),
    NPoll(reqid=5, time=123456789),
    MRead(reqid=6, memaddr=24, bytecnt=8),
    MWrite(reqid=7, memaddr=2048, data=b"scratch"),
    Result(reqid=8, status=3, payload=b"\x01\x02"),
    PollData(
        reqid=9,
        dropped_packets=4,
        dropped_bytes=2000,
        records=(
            CaptureRecord(sktid=0, timestamp=999, data=b"pkt1"),
            CaptureRecord(sktid=1, timestamp=1000, data=b""),
        ),
    ),
    Interrupted(by_priority=9),
    Resumed(),
    SessionEnd(reason="bye"),
    Yield(),
    Bye(),
    RdzPublish(descriptor=b"D", chain=b"C", delivery_chains=(b"E1", b"E2")),
    RdzPublishResult(ok=True, reason=""),
    RdzSubscribe(channels=(b"\x01" * 32, b"\x02" * 32)),
    RdzExperiment(descriptor=b"D", chain=b"C"),
    RdzHeartbeat(endpoint_name="ep-九", seq=2**32 - 1),
]


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


# What a peer can put on a control connection: a valid message, a
# well-framed body that does not decode (0xee is no message type), or a
# length prefix past MAX_FRAME.
FRAMES = st.one_of(
    st.sampled_from(ALL_MESSAGES).map(lambda message: _frame(message.encode())),
    st.binary(max_size=12).map(lambda tail: _frame(b"\xee" + tail)),
    st.just(_frame(b"")),
    st.just((MAX_FRAME + 1).to_bytes(4, "big")),
)


class TestMessageCodecs:
    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=[type(m).__name__ for m in ALL_MESSAGES]
    )
    def test_round_trip(self, message):
        assert decode_message(message.encode()) == message

    def test_every_decodable_type_is_round_tripped(self):
        def accepted(tag):
            try:
                decode_message(bytes([tag]))
            except DecodeError as exc:
                return "unknown message type" not in str(exc)
            return True

        assert {m.TYPE for m in ALL_MESSAGES} == set(filter(accepted, range(256)))

    @pytest.mark.parametrize(
        "tag, field, error",
        [(250, 0, TypeError), (Bye.TYPE, messages.wire("u8", 0), ValueError)],
        ids=["field-names-no-codec", "type-reused"],
    )
    def test_bad_declaration_raises_at_class_creation(self, tag, field, error):
        with pytest.raises(error):
            @messages.message(tag)
            class Bad(messages.Message):
                value: int = field

    def test_unknown_type_rejected(self):
        with pytest.raises(DecodeError, match="unknown message type"):
            decode_message(b"\xfe")

    def test_trailing_garbage_rejected(self):
        raw = Bye().encode() + b"extra"
        with pytest.raises(DecodeError, match="trailing"):
            decode_message(raw)

    def test_truncated_rejected(self):
        raw = ALL_MESSAGES[0].encode()
        with pytest.raises(DecodeError):
            decode_message(raw[:-3])

    @given(
        reqid=st.integers(0, 0xFFFFFFFF),
        time=st.integers(0, 2**64 - 1),
        data=st.binary(max_size=2000),
    )
    def test_nsend_round_trip_property(self, reqid, time, data):
        message = NSend(reqid=reqid, sktid=1, time=time, data=data)
        assert decode_message(message.encode()) == message

    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 31), st.integers(0, 2**64 - 1),
                st.binary(max_size=100),
            ),
            max_size=10,
        )
    )
    def test_polldata_round_trip_property(self, records):
        message = PollData(
            reqid=1,
            dropped_packets=0,
            dropped_bytes=0,
            records=tuple(
                CaptureRecord(sktid=s, timestamp=t, data=d) for s, t, d in records
            ),
        )
        assert decode_message(message.encode()) == message


class TestFraming:
    def _pair(self):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.link(a, b)
        net.compute_routes()
        return net, a, b

    def test_messages_cross_a_tcp_connection(self):
        net, a, b = self._pair()
        received = []

        def server():
            listener = b.tcp.listen(7000)
            conn = yield listener.accept()
            stream = MessageStream(conn)
            while True:
                message = yield from stream.recv()
                if message is None:
                    return
                received.append(message)

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            stream = MessageStream(conn)
            for message in ALL_MESSAGES:
                stream.send(message)
            conn.close()

        net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run()
        assert received == ALL_MESSAGES

    def test_recv_returns_none_on_clean_eof(self):
        net, a, b = self._pair()

        def server():
            listener = b.tcp.listen(7000)
            conn = yield listener.accept()
            stream = MessageStream(conn)
            first = yield from stream.recv()
            second = yield from stream.recv()
            return first, second

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            stream = MessageStream(conn)
            stream.send(Bye())
            conn.close()

        server_proc = net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run()
        assert server_proc.result == (Bye(), None)

    def test_mid_frame_close_raises(self):
        net, a, b = self._pair()

        def server():
            listener = b.tcp.listen(7000)
            conn = yield listener.accept()
            stream = MessageStream(conn)
            try:
                yield from stream.recv()
            except FramingError as exc:
                return str(exc)
            return "no error"

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            # A frame header promising 100 bytes, then close early.
            conn.write((100).to_bytes(4, "big") + b"short")
            conn.close()

        server_proc = net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run()
        assert "mid-frame" in server_proc.result

    def test_oversized_frame_rejected(self):
        net, a, b = self._pair()

        def server():
            listener = b.tcp.listen(7000)
            conn = yield listener.accept()
            stream = MessageStream(conn)
            try:
                yield from stream.recv()
            except FramingError as exc:
                return str(exc)
            return "no error"

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            conn.write((2**30).to_bytes(4, "big"))
            yield 1.0
            conn.close()

        server_proc = net.sim.spawn(server(), name="server")
        net.sim.spawn(client(), name="client")
        net.run()
        assert "exceeds limit" in server_proc.result

    def test_send_on_a_dead_connection_counts_nothing(self):
        """A frame TCP refused was never sent: the counters stay put."""
        net, a, b = self._pair()

        def server():
            listener = b.tcp.listen(7000)
            yield listener.accept()

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            stream = MessageStream(conn)
            stream.send(Bye())
            counts = (stream.messages_sent, stream.bytes_sent)
            conn.abort()
            with pytest.raises(TcpError):
                stream.send(Bye())
            return counts, (stream.messages_sent, stream.bytes_sent)

        net.sim.spawn(server(), name="server")
        client_proc = net.sim.spawn(client(), name="client")
        net.run()
        before, after = client_proc.result
        assert before == (1, 4 + len(Bye().encode()))
        assert after == before

    @staticmethod
    def _receive(pieces, reset, push):
        """Deliver ``pieces`` one a second to a receiver driven by
        ``listen`` (push) or by ``recv`` in a process (pull); return what
        it saw, the buffer and byte count after each delivery, and the
        number of timers the run scheduled."""
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b)
        net.compute_routes()
        sim = net.sim
        seen, samples = [], []

        def on_message(message):
            if isinstance(message, UndecodableFrame):
                message = "undecodable"
            seen.append((sim.now, message))

        def pull(stream, on_close):
            while True:
                try:
                    message = yield from stream.recv()
                except UndecodableFrame as exc:
                    on_message(exc)
                    continue
                except (TcpError, FramingError):
                    break
                if message is None:
                    break
                on_message(message)
            on_close()

        def server():
            # A small window, so reads reopen it with window updates.
            listener = b.tcp.listen(7000, rcv_buffer=128)
            conn = yield listener.accept()
            stream = MessageStream(conn)

            def on_close():
                seen.append((sim.now, "closed", stream.bytes_received))

            if push:
                stream.listen(on_message, on_close)
            else:
                sim.spawn(pull(stream, on_close))
            yield 0.5
            for _ in range(len(pieces) + 3):
                yield 1.0
                samples.append((len(conn.rcv_buffer), stream.bytes_received))

        def client():
            conn = yield from a.tcp.open_connection(b.primary_address(), 7000)
            for piece in pieces:
                yield 1.0
                conn.write(piece)
            yield 1.0
            if reset:
                conn.abort()
            else:
                conn.close()

        sim.spawn(server(), name="server")
        sim.spawn(client(), name="client")
        # Bounded: once a receiver stops on a broken frame, the sender
        # probes its closed window for ever.
        net.run(until=len(pieces) + 30.0)
        return seen, samples, sim._seq

    @settings(max_examples=80, deadline=None)
    @given(frames=st.lists(FRAMES, max_size=8), data=st.data(),
           reset=st.booleans())
    def test_push_and_pull_parse_alike(self, frames, data, reset):
        """``listen`` and ``recv`` read the same bytes at the same
        instants: the same messages, undecodable frames and close, the
        same receive buffer after every delivery, and the drains take
        exactly the heap entries the reader process's steps took."""
        raw = b"".join(frames)
        # Most runs deliver every byte; some stop mid-frame.
        end = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))
        cuts = data.draw(st.lists(st.integers(0, end), max_size=8))
        bounds = sorted({0, end, *cuts})
        pieces = [raw[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        pulled = self._receive(pieces, reset, push=False)
        pushed = self._receive(pieces, reset, push=True)
        assert pushed == pulled
        assert pulled[0][-1][1] == "closed"
