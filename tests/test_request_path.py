"""The controller's one request path: ``issue`` -> pending record -> ``wait``.

1. The frames every Table 1 command (and ``nsend_nowait``) puts on the
   wire, recorded on the commit before the commands were folded onto
   ``issue``/``wait``, through a raw and through a resilient handle.
2. The path's own contract: an already-answered record, a detached one,
   a closed session, an expired ``rpc_timeout``, the frame in TCP's send
   buffer when ``issue`` returns, and a send on a dead connection.
3. ``ResilientHandle.call``: replay bookkeeping keyed on message type,
   and session evidence summed across adopted sessions.
4. The endpoint's half: every reply frame each Table 1 command can
   produce, recorded on the commit before the endpoint built them in one
   place, and the npoll deadline that leaves a fired waiter behind.
"""

from contextlib import contextmanager

import pytest

from repro.controller.client import (
    CommandError,
    DeferredError,
    MisbehaviorError,
    RpcTimeout,
    SessionClosed,
    SessionEvidence,
)
from repro.controller.recovery import ResilientHandle
from repro.core.testbed import Testbed
from repro.endpoint.memory import (
    MEMORY_SIZE,
    OFF_ADDR_IP,
    OFF_CLOCK,
    SCRATCH_START,
)
from repro.filtervm import builtins
from repro.filtervm.assembler import assemble
from repro.netsim.clock import NANOSECONDS
from repro.netsim.faults import FaultPlan
from repro.netsim.kernel import Simulator
from repro.packet.ipv4 import PROTO_ICMP
from repro.proto.constants import (
    SOCK_RAW,
    SOCK_TCP,
    SOCK_UDP,
    ST_BAD_SOCKET,
    ST_MEM_FAULT,
    ST_OK,
)
from repro.proto.framing import MessageStream
from repro.proto.messages import (
    MRead,
    MWrite,
    NCap,
    NClose,
    NOpen,
    NPoll,
    NSend,
    Result,
)
from repro.util.retry import RetryPolicy


@contextmanager
def _tapped_sends(streams, tap):
    """Call ``tap(message)`` before each send on one of ``streams``.

    ``MessageStream`` has ``__slots__``, so the tap is patched on the
    class and every other stream sends untouched."""
    send = MessageStream.send

    def tapped(stream, message):
        if any(stream is watched for watched in streams):
            tap(message)
        return send(stream, message)

    MessageStream.send = tapped
    try:
        yield
    finally:
        MessageStream.send = send


# -- 1. wire frames, pinned on the parent commit -------------------------------

# message.encode().hex() of every frame the script below sends, in order;
# the target is 10.0.0.10. Last frame: the Bye run_experiment sends.
PINNED_FRAMES = [
    "0a0000000100000001020fa10a00000a0007",              # nopen
    "0a0000000200000002000000000000000000",              # nopen_raw
    "0a0000000300000003020fa3000000000000",              # nopen_udp
    "0a0000000400000004010fa40a00000a0009",              # nopen_tcp
    "0d0000000500000002000000000000000000000000",        # ncap
    "0c0000000600000001000000000000000000000003616263",  # nsend
    "0c0000000700000001000000000000000000000003646566",  # nsend_nowait
    "0e000000080000000000000000",                        # npoll
    "0f000000090000000800000004",                        # mread
    "100000000a00000800000000020102",                    # mwrite
    "0f0000000b0000001800000008",                        # read_clock
    "0b0000000c00000001",                                # nclose x4
    "0b0000000d00000002",
    "0b0000000e00000003",
    "0b0000000f00000004",
    "22",
]


def _every_command(handle, target):
    yield from handle.nopen(1, SOCK_UDP, 4001, target, 7)
    yield from handle.nopen_raw(2)
    yield from handle.nopen_udp(3, locport=4003)
    yield from handle.nopen_tcp(4, target, 9, locport=4004)
    yield from handle.ncap(2, 0, b"")
    yield from handle.nsend(1, 0, b"abc")
    handle.nsend_nowait(1, 0, b"def")
    yield from handle.npoll(0)
    yield from handle.mread(OFF_ADDR_IP, 4)
    yield from handle.mwrite(SCRATCH_START, b"\x01\x02")
    yield from handle.read_clock()
    for sktid in (1, 2, 3, 4):
        yield from handle.nclose(sktid)


@pytest.mark.parametrize("resilient", [False, True], ids=["raw", "resilient"])
def test_command_frames_unchanged(resilient):
    testbed = Testbed()
    frames, streams = [], []

    def experiment(handle):
        streams.append((handle.handle if resilient else handle).stream)
        yield from _every_command(handle, testbed.target_address)

    with _tapped_sends(streams,
                       lambda message: frames.append(message.encode().hex())):
        testbed.run_experiment(experiment, resilient=resilient,
                               rpc_timeout=5.0)
    assert frames == PINNED_FRAMES


# -- 2. issue / wait -------------------------------------------------------------


def test_wait_on_an_answered_record_returns_without_yielding():
    testbed = Testbed()

    def experiment(handle):
        pending = handle.issue(MRead, memaddr=OFF_CLOCK, bytecnt=8)
        yield 1.0  # the Result arrives while nobody waits
        assert pending.event.fired
        timers = handle.sim._seq
        waiting = handle.wait(pending)
        with pytest.raises(StopIteration) as done:
            next(waiting)
        assert handle.sim._seq == timers  # no timer armed, nothing resumed
        return done.value.value

    response = testbed.run_experiment(experiment, rpc_timeout=0.5)
    assert response.status == ST_OK and len(response.payload) == 8


def test_detached_failure_is_one_deferred_error_and_success_nothing():
    testbed = Testbed()

    def experiment(handle):
        status = yield from handle.nopen_udp(
            0, remaddr=testbed.target_address, remport=9
        )
        assert status == ST_OK
        for sktid in (0, 7):  # 7 was never opened
            pending = handle.issue(NSend, sktid=sktid, time=0, data=b"x")
            pending.detached = True
        yield from handle.read_clock()  # both Results are in by now
        return list(handle.deferred_errors), dict(handle._pending)

    deferred, pending = testbed.run_experiment(experiment)
    assert pending == {}
    assert [(e.op, e.status) for e in deferred] == [("nsend:7", ST_BAD_SOCKET)]
    assert isinstance(deferred[0], DeferredError)


@pytest.mark.parametrize("verdict", [False, True], ids=["closed", "misbehaved"])
def test_issue_on_a_closed_session_consumes_a_reqid_and_wait_raises(verdict):
    testbed = Testbed()

    def experiment(handle):
        yield from handle.read_clock()
        if verdict:
            handle._exhaust("test-budget")
        else:
            handle.stream.conn.abort()
            handle._close_pending()
        assert handle.closed
        before = handle._next_reqid
        sent = handle.stream.messages_sent
        pending = handle.issue(MRead, memaddr=OFF_CLOCK, bytecnt=8)
        assert handle._next_reqid == before + 1
        assert handle._pending == {}
        expected = MisbehaviorError if verdict else SessionClosed
        with pytest.raises(expected) as raised:
            next(handle.wait(pending))
        yield 1.0
        assert handle.stream.messages_sent == sent  # nothing went out
        return raised.value

    error = testbed.run_experiment(experiment)
    if verdict:
        assert error.kind == "test-budget"
    else:
        assert not isinstance(error, MisbehaviorError)


def test_issue_puts_the_frame_in_the_send_buffer_before_yielding():
    """No writer process sits between ``issue`` and TCP: the framed
    command is in the connection's send buffer when ``issue`` returns."""
    testbed = Testbed()

    def experiment(handle):
        yield from handle.read_clock()
        buffer = handle.stream.conn.snd_buffer
        held = len(buffer)
        pending = handle.issue(MRead, memaddr=OFF_CLOCK, bytecnt=8)
        body = MRead(reqid=pending.reqid, memaddr=OFF_CLOCK,
                     bytecnt=8).encode()
        assert bytes(buffer[held:]) == len(body).to_bytes(4, "big") + body
        return (yield from handle.wait(pending))

    assert testbed.run_experiment(experiment).status == ST_OK


def test_issue_on_an_aborted_connection_closes_the_session():
    """The send finds the connection dead: the request's wait raises
    SessionClosed, and a later bye sends nothing."""
    testbed = Testbed()

    def experiment(handle):
        yield from handle.read_clock()
        handle.stream.conn.abort()
        pending = handle.issue(MRead, memaddr=OFF_CLOCK, bytecnt=8)
        assert handle.closed and handle._pending == {}
        with pytest.raises(SessionClosed):
            next(handle.wait(pending))
        sent = handle.stream.messages_sent
        handle.bye()
        assert handle.stream.messages_sent == sent
        return True

    assert testbed.run_experiment(experiment)


def test_expired_timeout_leaves_nothing_behind_and_late_result_is_dropped():
    """The command is retransmitted through a 1 s outage, so its Result
    does arrive — after the 0.5 s rpc_timeout gave up on it."""
    testbed = Testbed()
    plan = FaultPlan(seed=3)
    plan.link_outage(testbed.access_link, start=1.0, duration=1.0)

    def experiment(handle):
        yield 1.2
        received = handle.stream.messages_received
        with pytest.raises(RpcTimeout) as raised:
            yield from handle.read_clock()
        assert raised.value.command == "mread"
        assert handle.rpc_timeouts == 1
        assert handle._pending == {}
        live = [timer for _, _, timer in handle.sim._heap
                if not timer.cancelled and timer._callback == handle._expire]
        assert live == []
        yield 10.0
        assert handle.stream.messages_received == received + 1  # it came
        assert handle.violations == []
        assert not handle.closed
        yield from handle.read_clock()  # and the session still works
        return handle.evidence()

    evidence = testbed.run_experiment(
        experiment, fault_plan=plan, rpc_timeout=0.5, timeout=120.0
    )
    assert evidence.rpc_timeouts == 1 and evidence.count("violations") == 0


# -- 3. ResilientHandle.call ---------------------------------------------------------


class ScriptedSession:
    """A raw handle's request path with the answers written in advance.

    Each ``wait`` takes the next scripted outcome — a response to return
    or an exception to raise (``SessionClosed`` also closes the session)
    — and answers ``ST_OK`` once the script runs out.
    """

    endpoint_name = "ep"

    def __init__(self, sim, script=(), evidence=None):
        self.sim = sim
        self.script = list(script)
        self.sent = []
        self.closed = False
        self._evidence = evidence or SessionEvidence()

    def issue(self, message_cls, **fields):
        self.sent.append((message_cls, fields))
        return None

    def wait(self, pending):
        outcome = self.script.pop(0) if self.script else Result(status=ST_OK)
        if isinstance(outcome, SessionClosed):
            self.closed = True
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
        yield  # pragma: no cover - a generator, like the real wait

    def call(self, message_cls, **fields):
        return self.wait(self.issue(message_cls, **fields))

    def evidence(self):
        return self._evidence


class _Server:
    def __init__(self, sim):
        self.endpoints = sim.queue(name="test-endpoints")


def _resilient(script=(), evidence=None):
    sim = Simulator()
    server = _Server(sim)
    session = ScriptedSession(sim, script, evidence)
    handle = ResilientHandle(
        server, session,
        policy=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
    )
    return sim, server, session, handle


def _reconnect(sim, server, session, evidence=None):
    session.closed = True
    fresh = ScriptedSession(sim, evidence=evidence)
    server.endpoints.put(fresh)
    return fresh


def _raised(sim, command):
    """Run a command generator to the exception it ends with."""

    def body():
        try:
            yield from command
        except Exception as exc:  # noqa: BLE001 - handed to the assertion
            return exc
        return None

    return sim.run_process(body())


UDP = dict(sktid=3, proto=SOCK_UDP, locport=0, remaddr=0, remport=0)


class TestResilientCall:
    def test_retried_nopen_bad_socket_reads_ok_and_is_replayed(self):
        sim, server, session, handle = _resilient(
            [RpcTimeout("nopen", 0.5), Result(status=ST_BAD_SOCKET)]
        )
        status = sim.run_process(handle.nopen_udp(3))
        assert status == ST_OK  # the timed-out attempt had opened it
        assert handle.retries == 1
        assert session.sent == [(NOpen, UDP), (NOpen, UDP)]
        assert handle.open_sktids() == [3]
        fresh = _reconnect(sim, server, session)
        sim.run_process(handle.read_clock())
        assert handle.reconnects == 1
        assert fresh.sent == [
            (NOpen, UDP), (MRead, dict(memaddr=OFF_CLOCK, bytecnt=8)),
        ]

    def test_first_try_bad_socket_stays_bad(self):
        sim, _, _, handle = _resilient([Result(status=ST_BAD_SOCKET)])
        assert sim.run_process(handle.nopen_udp(3)) == ST_BAD_SOCKET
        assert handle.open_sktids() == []

    def test_nclose_forgets_socket_and_capture(self):
        sim, server, session, handle = _resilient()
        sim.run_process(handle.nopen_udp(3))
        sim.run_process(handle.ncap(3, 0, b"\x01"))
        assert sim.run_process(handle.nclose(3)) == ST_OK
        assert handle.open_sktids() == []
        fresh = _reconnect(sim, server, session)
        sim.run_process(handle.read_clock())
        assert [cls.__name__ for cls, _ in fresh.sent] == ["MRead"]

    def test_ncap_replays_the_encoded_program(self):
        sim, server, session, handle = _resilient()
        program = builtins.capture_protocol(PROTO_ICMP)
        sim.run_process(handle.nopen_udp(3))
        sim.run_process(handle.ncap(3, 5, program))
        fresh = _reconnect(sim, server, session)
        sim.run_process(handle.read_clock())
        assert fresh.sent[:2] == [
            (NOpen, UDP),
            (NCap, dict(sktid=3, time=5, filt=program.encode())),
        ]

    def test_command_error_is_not_retried(self):
        sim, _, session, handle = _resilient([Result(status=ST_MEM_FAULT)])
        error = _raised(sim, handle.mread(1 << 20, 4))
        assert isinstance(error, CommandError) and error.status == ST_MEM_FAULT
        assert len(session.sent) == 1 and handle.retries == 0

    def test_transport_faults_are_retried_until_the_policy_gives_up(self):
        sim, _, session, handle = _resilient([RpcTimeout("mread", 0.5)] * 4)
        assert isinstance(_raised(sim, handle.read_clock()), RpcTimeout)
        assert len(session.sent) == 4 and handle.retries == 3

    @pytest.mark.parametrize("kind,first,second", [
        ("deferred_errors", [DeferredError("nsend:1", 1, 0.0)] * 2,
         [DeferredError("nsend:2", 1, 1.0)]),
        ("violations", ["v1", "v2"], ["v3"]),
        ("budget_exhaustions", 2, 1),
        ("abandons", 2, 1),
        ("rpc_timeouts", 2, 1),
    ])
    def test_evidence_sums_across_adopted_sessions(self, kind, first, second):
        sim, server, session, handle = _resilient(
            evidence=SessionEvidence(**{kind: first})
        )
        assert handle.evidence().count(kind) == 2
        _reconnect(sim, server, session, SessionEvidence(**{kind: second}))
        sim.run_process(handle.read_clock())
        total = handle.evidence()
        assert total.count(kind) == 3
        assert getattr(total, kind) == first + second
        others = {f for f in vars(total) if f != kind}
        assert all(total.count(other) == 0 for other in others)


# -- 4. the endpoint's replies, pinned on the parent commit ---------------------

# (what provoked it, Result/PollData .encode().hex()) for every frame the
# endpoint sent back during _provoke_every_reply, in order.
PINNED_REPLIES = [
    ("nopen raw ok", "14000000010000000000"),
    ("nopen udp ok", "14000000020000000000"),
    ("nopen tcp ok", "14000000030000000000"),
    ("nopen duplicate sktid", "14000000040100000000"),
    ("nopen sktid out of range", "14000000050100000000"),
    ("nopen raw disallowed", "14000000060400000000"),
    ("nopen udp port in use", "14000000070200000000"),
    ("nopen tcp connect failed", "14000000080500000000"),
    ("nopen unknown proto", "14000000090200000000"),
    ("nclose unknown socket", "140000000a0100000000"),
    ("nsend unknown socket", "140000000b0100000000"),
    ("ncap unknown socket", "140000000c0100000000"),
    ("ncap non-raw socket", "140000000d0200000000"),
    ("ncap undecodable filter", "140000000e0200000000"),
    ("ncap verifier-rejected",
     "140000000f09000000d666696c7465722070726f6772616d3a2031206675"
     "6e6374696f6e2873292c203220696e737472756374696f6e2873292c2030"
     "204220676c6f62616c730a766572646963743a2052454a45435420283120"
     "6572726f722873292c2030207761726e696e67287329290a20206572726f"
     "725b737461636b2d756e646572666c6f775d20726563762b303a20616464"
     "206e6565647320322076616c756528732920627574207468652073746163"
     "6b206d617920686f6c64206f6e6c7920300a776f7273742d636173652066"
     "75656c3a2072656376203c3d2032"),
    ("npoll past its deadline", "150000001000000000000000000000000000000000"),
    ("mread ok", "140000001100000000080de0b6b3f2ad6180"),
    ("npoll blocked, data arrives",
     "150000001200000000000000000000000000000001000000020de0b6b408"
     "240f80000000056669727374"),
    ("mread ok", "140000001300000000080de0b6b40bb9b280"),
    ("npoll blocked, times out", "150000001400000000000000000000000000000000"),
    ("npoll after a timed-out one",
     "150000001500000000000000000000000000000001000000020de0b6b41b"
     "3a8980000000057374616c65"),
    ("mread ok", "140000001600000000040a000002"),
    ("mread fault", "14000000170700000000"),
    ("mwrite ok", "14000000180000000000"),
    ("mwrite fault", "14000000190700000000"),
    ("reused reqid", "14000000000200000000"),
    ("nclose ok", "140000001a0000000000"),
    ("nclose ok", "140000001b0000000000"),
    ("nclose ok", "140000001c0000000000"),
    ("bye", "200003627965"),
]

UNDERFLOW = "func recv args=2\n    add\n    ret\n"  # verifier-rejected


def _send_later(testbed, delay, port, payload):
    """The target sends one datagram to the endpoint's ``port``."""

    def sender():
        yield delay
        sock = testbed.target_host.udp.bind(0)
        sock.sendto(payload, testbed.endpoint_host.primary_address(), port)

    testbed.sim.spawn(sender(), name="target-sender")


def _provoke_every_reply(testbed, handle, labels):
    """Every Table 1 command and each reply it can produce; ``labels``
    gets, in order, what each reply will have been provoked by."""
    target = testbed.target_address
    testbed.target_host.tcp.listen(80)

    def call(label, message_cls, **fields):
        labels.append(label)
        return (yield from handle.call(message_cls, **fields))

    def clock():
        reply = yield from call("mread ok", MRead, memaddr=OFF_CLOCK,
                                bytecnt=8)
        return int.from_bytes(reply.payload, "big")

    yield from call("nopen raw ok", NOpen, sktid=1, proto=SOCK_RAW)
    yield from call("nopen udp ok", NOpen, sktid=2, proto=SOCK_UDP,
                    locport=4002, remaddr=target, remport=7)
    yield from call("nopen tcp ok", NOpen, sktid=3, proto=SOCK_TCP,
                    remaddr=target, remport=80)
    yield from call("nopen duplicate sktid", NOpen, sktid=2, proto=SOCK_UDP)
    yield from call("nopen sktid out of range", NOpen, sktid=32,
                    proto=SOCK_UDP)
    testbed.endpoint.config.allow_raw = False
    yield from call("nopen raw disallowed", NOpen, sktid=4, proto=SOCK_RAW)
    testbed.endpoint.config.allow_raw = True
    yield from call("nopen udp port in use", NOpen, sktid=4, proto=SOCK_UDP,
                    locport=4002)
    yield from call("nopen tcp connect failed", NOpen, sktid=4,
                    proto=SOCK_TCP, remaddr=target, remport=81)
    yield from call("nopen unknown proto", NOpen, sktid=4, proto=9)
    yield from call("nclose unknown socket", NClose, sktid=20)
    yield from call("nsend unknown socket", NSend, sktid=20, time=0,
                    data=b"x")
    filt = builtins.capture_all().encode()
    yield from call("ncap unknown socket", NCap, sktid=20, time=0, filt=filt)
    yield from call("ncap non-raw socket", NCap, sktid=2, time=0, filt=filt)
    yield from call("ncap undecodable filter", NCap, sktid=1, time=0,
                    filt=b"\xff\xff")
    yield from call("ncap verifier-rejected", NCap, sktid=1, time=0,
                    filt=assemble(UNDERFLOW).encode())
    yield from call("npoll past its deadline", NPoll, time=0)
    now = yield from clock()
    _send_later(testbed, 0.3, 4002, b"first")
    yield from call("npoll blocked, data arrives", NPoll,
                    time=now + 2 * NANOSECONDS)
    now = yield from clock()
    yield from call("npoll blocked, times out", NPoll,
                    time=now + NANOSECONDS // 5)
    # The timed-out npoll's event is still registered with the capture
    # buffer, already fired: the next record must pass over it.
    _send_later(testbed, 0.0, 4002, b"stale")
    yield 0.5
    yield from call("npoll after a timed-out one", NPoll, time=0)
    yield from call("mread ok", MRead, memaddr=OFF_ADDR_IP, bytecnt=4)
    yield from call("mread fault", MRead, memaddr=MEMORY_SIZE, bytecnt=4)
    yield from call("mwrite ok", MWrite, memaddr=SCRATCH_START,
                    data=b"\x01\x02")
    yield from call("mwrite fault", MWrite, memaddr=MEMORY_SIZE, data=b"x")
    labels.append("reused reqid")
    handle.stream.send(MRead(reqid=1, memaddr=OFF_ADDR_IP, bytecnt=4))
    yield 0.5
    for sktid in (1, 2, 3):
        yield from call("nclose ok", NClose, sktid=sktid)
    labels.append("bye")  # sent by run_experiment on return


def _record_replies():
    testbed = Testbed()
    labels, replies, streams = [], [], []

    def experiment(handle):
        session, = testbed.endpoint.sessions.values()
        streams.append(session.stream)
        yield from _provoke_every_reply(testbed, handle, labels)

    with _tapped_sends(streams, lambda message: replies.append(
            (labels.pop(0), message.encode().hex()))):
        testbed.run_experiment(experiment, timeout=120.0)
    return replies


def test_endpoint_replies_unchanged():
    assert _record_replies() == PINNED_REPLIES


@pytest.mark.parametrize("command", ["npoll", "nopen_tcp"])
def test_a_waiting_command_keeps_later_frames_in_tcp(command):
    """While a command waits (an npoll for data that never comes, a TCP
    nopen for a port one round trip away), the endpoint reads no further:
    the MRead sent behind it stays in the connection's receive buffer,
    and the waiting command's reply leaves before the MRead's."""
    testbed = Testbed()
    testbed.target_host.tcp.listen(80)
    replies, streams = [], []

    def experiment(handle):
        session, = testbed.endpoint.sessions.values()
        streams.append(session.stream)
        if command == "npoll":
            now = yield from handle.read_clock()
            waiting = handle.issue(NPoll, time=now + NANOSECONDS // 5)
        else:
            waiting = handle.issue(NOpen, sktid=1, proto=SOCK_TCP,
                                   remaddr=testbed.target_address, remport=80)
        behind = handle.issue(MRead, memaddr=OFF_ADDR_IP, bytecnt=4)
        frame = 4 + len(MRead(reqid=behind.reqid, memaddr=OFF_ADDR_IP,
                              bytecnt=4).encode())
        yield from handle.wait(waiting)
        yield from handle.wait(behind)
        return waiting, behind, frame

    def tap(message):
        conn = streams[0].conn
        replies.append((getattr(message, "reqid", None), len(conn.rcv_buffer),
                        testbed.sim.now))

    with _tapped_sends(streams, tap):
        waiting, behind, frame = testbed.run_experiment(experiment)
    (first, held, answered), (second, left, _) = [
        reply for reply in replies if reply[0] in (waiting.reqid, behind.reqid)]
    assert (first, second) == (waiting.reqid, behind.reqid)
    assert held == frame and left == 0
    assert answered - waiting.started > 0.05


def test_one_definition_of_every_command():
    """The named commands live on the base class; the handles add only
    the request path underneath."""
    from repro.controller.client import EndpointHandle, Table1Commands

    commands = (
        "nopen nopen_raw nopen_udp nopen_tcp nclose nsend nsend_nowait "
        "ncap npoll mread mwrite read_clock expect_ok close_quietly"
    ).split()
    for name in commands:
        assert name in vars(Table1Commands)
        assert name not in vars(ResilientHandle)
        assert name not in vars(EndpointHandle)
