"""C2 — §3.1 claim: npoll buffering with faithful drop accounting.

Sweeps the capture buffer size under a fixed UDP flood: reported drops
must equal ground truth (sent minus delivered) at every size, and the TCP
variant must lose nothing — back pressure instead of drops.
"""

from conftest import print_table

from repro.core.testbed import Testbed
from repro.netsim.clock import NANOSECONDS

FLOOD_COUNT = 60
PAYLOAD = 400


def _udp_flood(buffer_bytes: int):
    testbed = Testbed(capture_buffer_bytes=buffer_bytes)
    target = testbed.target_host

    def flooder():
        sock = target.udp.bind(9000)
        _, src_ip, src_port, _ = yield sock.recvfrom()
        for index in range(FLOOD_COUNT):
            sock.sendto(bytes([index & 0xFF]) * PAYLOAD, src_ip, src_port)

    testbed.sim.spawn(flooder(), name="flooder")

    def experiment(handle):
        yield from handle.nopen_udp(
            0, locport=5555, remaddr=testbed.target_address, remport=9000
        )
        yield from handle.nsend(0, 0, b"go")
        yield 5.0  # not polling while the flood lands
        now = yield from handle.read_clock()
        poll = yield from handle.npoll(now)
        return poll

    poll = testbed.run_experiment(experiment, timeout=600.0)
    return len(poll.records), poll.dropped_packets, poll.dropped_bytes


def test_c2_drop_accounting_sweep(benchmark):
    rows = []
    for buffer_kb in [2, 4, 8, 16, 64]:
        received, dropped, dropped_bytes = _udp_flood(buffer_kb * 1024)
        rows.append([buffer_kb, received, dropped, dropped_bytes])
        # Ground truth: everything sent is either delivered or counted.
        assert received + dropped == FLOOD_COUNT
        assert dropped_bytes == dropped * PAYLOAD
    print_table(
        f"C2: UDP flood ({FLOOD_COUNT} x {PAYLOAD} B) vs capture buffer",
        ["buffer (KiB)", "delivered", "dropped", "dropped bytes"],
        rows,
    )
    # Shape: a bigger buffer delivers strictly more.
    delivered = [row[1] for row in rows]
    assert delivered == sorted(delivered)
    assert rows[0][2] > 0  # smallest buffer really overflowed
    assert rows[-1][2] == 0  # largest buffer held the whole flood
    benchmark.pedantic(_udp_flood, args=(4 * 1024,), rounds=1, iterations=1)


def test_c2_tcp_backpressure_no_loss(benchmark):
    """Same pressure over TCP: zero drops, data intact, sender stalled."""
    # Must exceed the capture buffer plus the endpoint's 64 KiB receive
    # window, or the endpoint absorbs everything before polling begins.
    total = 300_000

    def run():
        testbed = Testbed(capture_buffer_bytes=8 * 1024)
        target = testbed.target_host

        def server():
            listener = target.tcp.listen(80)
            conn = yield listener.accept()
            conn.write(b"D" * total)
            conn.close()
            yield from conn.wait_closed()
            return testbed.sim.now

        server_proc = testbed.sim.spawn(server(), name="bulk")

        def experiment(handle):
            yield from handle.nopen_tcp(
                0, remaddr=testbed.target_address, remport=80
            )
            yield 3.0  # stall: buffer + TCP window fill
            received = b""
            drops = 0
            while len(received) < total:
                now = yield from handle.read_clock()
                poll = yield from handle.npoll(now + 2 * NANOSECONDS)
                drops += poll.dropped_packets
                received += b"".join(r.data for r in poll.records)
                if not poll.records:
                    break
            yield from handle.nclose(0)
            yield server_proc  # the sender's close completes
            return received, drops

        received, drops = testbed.run_experiment(experiment, timeout=900.0)
        return received, drops, server_proc.result

    received, drops, sender_done = benchmark.pedantic(run, rounds=1, iterations=1)
    assert drops == 0
    assert received == b"D" * total
    assert sender_done > 3.0  # sender could not finish until polling began
    benchmark.extra_info["sender_closed_at"] = f"{sender_done:.2f} s"
    print_table(
        "C2: TCP under a tiny capture buffer",
        ["metric", "value"],
        [["bytes delivered", len(received)],
         ["drops reported", drops],
         ["sender closed at (s)", round(sender_done, 2)]],
    )
