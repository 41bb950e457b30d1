"""Tests for capture buffering, drop accounting, and TCP back pressure
(§3.1 npoll semantics — claim C2 in DESIGN.md)."""


from repro.core.testbed import Testbed
from repro.endpoint.capture import CaptureBuffer, RECORD_OVERHEAD
from repro.endpoint.memory import OFF_BUF_DROPPED_PKTS, OFF_BUF_USED
from repro.netsim.clock import NANOSECONDS
from repro.netsim.kernel import Simulator
from repro.proto.messages import CaptureRecord


class TestCaptureBufferUnit:
    def _record(self, size, sktid=0):
        return CaptureRecord(sktid=sktid, timestamp=0, data=b"x" * size)

    def test_push_and_drain(self):
        buffer = CaptureBuffer(Simulator(), capacity=10_000)
        assert buffer.push(self._record(100))
        assert buffer.push(self._record(200))
        records, dropped_packets, dropped_bytes = buffer.drain()
        assert [len(r.data) for r in records] == [100, 200]
        assert dropped_packets == 0 and dropped_bytes == 0
        assert buffer.used == 0

    def test_overflow_counts_drops(self):
        buffer = CaptureBuffer(Simulator(), capacity=3 * (100 + RECORD_OVERHEAD))
        for _ in range(5):
            buffer.push(self._record(100))
        assert len(buffer) == 3
        records, dropped_packets, dropped_bytes = buffer.drain()
        assert dropped_packets == 2
        assert dropped_bytes == 200

    def test_drop_counters_reset_per_drain(self):
        buffer = CaptureBuffer(Simulator(), capacity=100 + RECORD_OVERHEAD)
        buffer.push(self._record(100))
        buffer.push(self._record(100))  # dropped
        buffer.drain()
        _, dropped_packets, _ = buffer.drain()
        assert dropped_packets == 0

    def test_space_reopens_after_drain(self):
        buffer = CaptureBuffer(Simulator(), capacity=100 + RECORD_OVERHEAD)
        buffer.push(self._record(100))
        assert not buffer.space_for(100)
        buffer.drain()
        assert buffer.space_for(100)

    def test_wait_for_data_fires_on_push(self):
        sim = Simulator()
        buffer = CaptureBuffer(sim, capacity=10_000)
        arrived = []

        def waiter():
            yield buffer.wait_for_data()
            arrived.append(sim.now)

        sim.spawn(waiter())
        sim.schedule(2.0, buffer.push, self._record(10))
        sim.run()
        assert arrived == [2.0]


class TestUdpDropAccounting:
    def test_npoll_reports_drops_matching_ground_truth(self):
        """Flood a small capture buffer; the drop counts npoll reports
        must equal packets-sent minus packets-delivered."""
        testbed = Testbed(capture_buffer_bytes=4096)
        target = testbed.target_host
        sent_count = 40
        payload_size = 500

        def flooder():
            sock = target.udp.bind(9000)
            _, src_ip, src_port, _ = yield sock.recvfrom()
            for index in range(sent_count):
                sock.sendto(bytes([index]) * payload_size, src_ip, src_port)

        testbed.sim.spawn(flooder(), name="flooder")

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            yield from handle.nsend(0, 0, b"go")
            yield 5.0  # let the flood land while we are not polling
            now = yield from handle.read_clock()
            poll = yield from handle.npoll(now)
            return poll

        poll = testbed.run_experiment(experiment)
        received = len(poll.records)
        assert received < sent_count  # the buffer really was too small
        assert poll.dropped_packets == sent_count - received
        assert poll.dropped_bytes == (sent_count - received) * payload_size

    def test_buffer_stats_visible_via_mread(self):
        testbed = Testbed(capture_buffer_bytes=4096)
        target = testbed.target_host

        def flooder():
            sock = target.udp.bind(9000)
            _, src_ip, src_port, _ = yield sock.recvfrom()
            for _ in range(40):
                sock.sendto(b"F" * 500, src_ip, src_port)

        testbed.sim.spawn(flooder(), name="flooder")

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=5555, remaddr=testbed.target_address, remport=9000
            )
            yield from handle.nsend(0, 0, b"go")
            yield 5.0
            used = int.from_bytes((yield from handle.mread(OFF_BUF_USED, 4)), "big")
            dropped = int.from_bytes(
                (yield from handle.mread(OFF_BUF_DROPPED_PKTS, 4)), "big"
            )
            return used, dropped

        used, dropped = testbed.run_experiment(experiment)
        assert used > 0
        assert dropped > 0


class TestTcpBackPressure:
    def test_slow_polling_stalls_tcp_sender_without_loss(self):
        """§3.1: "For TCP sockets, this will create flow control back
        pressure" — a full capture buffer shuts the endpoint's receive
        window, which freezes the remote sender on the wire; no data is
        lost, and polling releases the flow."""
        testbed = Testbed(capture_buffer_bytes=8192)
        target = testbed.target_host
        # Far more than the capture buffer plus the endpoint's receive
        # window, so a stalled reader leaves most of it at the sender.
        total = 250_000
        progress = {}

        def server():
            listener = target.tcp.listen(80)
            conn = yield listener.accept()
            progress["conn"] = conn
            conn.write(b"T" * total)
            conn.close()
            yield from conn.wait_closed()
            progress["closed_at"] = testbed.sim.now

        server_proc = testbed.sim.spawn(server(), name="bulk-server")

        def experiment(handle):
            yield from handle.nopen_tcp(0, remaddr=testbed.target_address,
                                        remport=80)
            yield from handle.nsend(0, 0, b"")  # touch nothing; just wait
            yield 5.0  # no polling: buffer fills, sender must stall
            assert "closed_at" not in progress
            # The stall is on the wire: the window is shut, and what the
            # endpoint could not take still waits in the sender's buffer.
            conn = progress["conn"]
            assert conn.snd_wnd == 0
            assert len(conn.snd_buffer) >= total - conn.mss - 65535 - 8192
            received = b""
            deadline_gap = 2 * NANOSECONDS
            while len(received) < total:
                now = yield from handle.read_clock()
                poll = yield from handle.npoll(now + deadline_gap)
                assert poll.dropped_packets == 0  # TCP never drops here
                received += b"".join(record.data for record in poll.records)
                if not poll.records and len(received) < total:
                    now2 = yield from handle.read_clock()
                    if now2 > now + 30 * NANOSECONDS:
                        break
            yield from handle.nclose(0)
            yield server_proc  # the sender's close completes
            return received

        received = testbed.run_experiment(experiment, timeout=300.0)
        assert len(received) == total
        assert received == b"T" * total
        assert "closed_at" in progress
        # The sender only finished well after polling started (~5 s).
        assert progress["closed_at"] > 5.0
