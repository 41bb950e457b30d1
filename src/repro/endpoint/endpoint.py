"""The PacketLab measurement endpoint agent.

An endpoint is "a lightweight packet source/sink" (§1): it executes the
Table 1 command set on behalf of an authenticated experiment controller
and nothing else. This module ties together the pieces:

- session establishment (Hello/Auth with certificate verification),
- the per-session capture buffer, send queue, sockets, and monitors,
- priority contention across concurrent sessions (§3.3),
- the rendezvous subscription loop (§3.2).

The endpoint never interprets experiment logic; every decision it makes is
either a certificate/monitor check or a mechanical command execution.
"""

from __future__ import annotations

from random import Random as _Random
import time as _time
from types import GeneratorType
from typing import Generator, Optional, Union

from repro.endpoint.auth import AuthError, AuthorizedExperiment, verify_auth
from repro.endpoint.capture import CaptureBuffer
from repro.endpoint.config import EndpointConfig
from repro.endpoint.contention import ContentionManager
from repro.endpoint.memory import (
    MEMORY_SIZE,
    EndpointMemory,
    MemoryError_,
    MonitorInfoView,
)
from repro.endpoint.netio import (
    EndpointSocket,
    FrameBuilder,
    RawEndpointSocket,
    TcpEndpointSocket,
    UdpEndpointSocket,
)
from repro.endpoint.sendqueue import SendQueue
from repro.filtervm.program import FilterProgram, ProgramError
from repro.filtervm.verify import VerifierReport, VerifyRejected
from repro.filtervm.vm import AdmittedProgram, FilterVM
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpConnection, TcpError
from repro.packet.ipv4 import PROTO_TCP
from repro.proto.constants import (
    ERR_MONITOR_REJECTED,
    PROTOCOL_VERSION,
    SOCK_RAW,
    SOCK_TCP,
    SOCK_UDP,
    ST_BAD_ARGUMENT,
    ST_BAD_SOCKET,
    ST_CONNECT_FAILED,
    ST_MEM_FAULT,
    ST_OK,
    ST_UNSUPPORTED,
)
from repro.proto.constants import END_PROTOCOL_ERROR
from repro.proto.framing import FramingError, MessageStream, UndecodableFrame
from repro.proto.statemachine import ROLE_ENDPOINT, SessionStateMachine
from repro.proto.messages import (
    Auth,
    AuthFail,
    AuthOk,
    Bye,
    Hello,
    Interrupted,
    Message,
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
    RdzSubscribe,
    Result,
    Resumed,
    SessionEnd,
    Yield,
)
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.util.byteio import DecodeError
from repro.util.retry import RetryPolicy

# Verifier reports travel in AuthFail.report (str_u16) and Result.payload;
# keep them bounded so a pathological program can't bloat the handshake.
MAX_REPORT_CHARS = 4096
# Socket ids a session may open: 0 .. MAX_SOCKETS - 1.
MAX_SOCKETS = 32
# Seconds a fresh dial waits for the controller's Auth.
AUTH_TIMEOUT = 10.0
# Byzantine containment: a controller past either per-session budget
# gets a SessionEnd(reason="protocol-error") farewell and the session ends.
SESSION_VIOLATION_BUDGET = 8
SESSION_DECODE_BUDGET = 4
# Backoff of a supervised (``config.reconnect``) controller or rendezvous
# dial; its jitter is seeded, so fault-injection runs are deterministic.
RECONNECT_POLICY = RetryPolicy()
RECONNECT_SEED = 0


class MonitorRejected(Exception):
    """A filter/monitor program failed static verification at install time.

    Carries the full :class:`VerifierReport` so the rejection sent back to
    the controller can explain *why* (instead of the endpoint silently
    deny-listing every packet when the broken monitor faults at runtime).
    """

    def __init__(self, index: int, report: VerifierReport) -> None:
        errors = report.errors
        summary = errors[0].render() if errors else "rejected"
        super().__init__(f"monitor {index} rejected: {summary}")
        self.index = index
        self.report = report


def admit_filter_program(
    program: FilterProgram, *, obs, fuel_limit: int, kind: str = "monitor"
) -> tuple[VerifierReport, Optional[AdmittedProgram]]:
    """Statically verify a program at its trust boundary (install time).

    This is the endpoint's single admission gate: certificate monitors and
    ``ncap`` capture filters both pass through it before any packet does.
    Returns the verifier's report and, when it accepts, the program to run.
    Emits ``filtervm.verify_ok`` / ``filtervm.verify_rejected`` counters, a
    ``filtervm.verify`` span, and a wall-clock histogram (admission runs
    synchronously, so its cost is real time, not simulated time).
    """
    span = obs.span("filtervm", "verify", kind=kind) if obs.enabled else None
    # simlint: ok[DET001] measures real verifier cost for telemetry only
    wall_start = _time.perf_counter()
    try:
        admitted = AdmittedProgram(program, info_size=MEMORY_SIZE,
                                   fuel_limit=fuel_limit)
        report = admitted.report
    except VerifyRejected as rejected:
        admitted, report = None, rejected.report
    wall = _time.perf_counter() - wall_start  # simlint: ok[DET001] same wall-cost measurement; never reaches sim state
    if obs.enabled:
        span.end(ok=report.ok, errors=len(report.errors),
                 warnings=len(report.warnings))
        obs.histogram("filtervm.verify_wall_s").observe(wall)
        name = "filtervm.verify_ok" if report.ok else "filtervm.verify_rejected"
        obs.counter(name).inc()
    return report, admitted


def _decode_failure_report(exc: Exception) -> VerifierReport:
    report = VerifierReport()
    report.error("decode", str(exc))
    return report


def _report_text(report: VerifierReport) -> str:
    return report.render()[:MAX_REPORT_CHARS]


# What a command handler answers with: a status, a status with its
# payload, or the PollData; a blocking handler returns a generator that
# finishes with one of these.
Answer = Union[int, tuple[int, bytes], PollData]


class Session:
    """One controller's interactive session with the endpoint."""

    def __init__(
        self,
        endpoint: "Endpoint",
        stream: MessageStream,
        authorized: AuthorizedExperiment,
        session_id: int,
    ) -> None:
        self.endpoint = endpoint
        self.stream = stream
        self.authorized = authorized
        self.session_id = session_id
        self.priority = authorized.priority
        self.name = f"{endpoint.config.name}-session{session_id}"
        sim = endpoint.node.sim
        self._obs = sim.obs

        limit = endpoint.config.capture_buffer_bytes
        cert_limit = authorized.chain_result.restrictions.buffer_limit
        if cert_limit is not None:
            limit = min(limit, cert_limit)
        self.buffer = CaptureBuffer(sim, limit)
        self.send_queue = SendQueue(sim, endpoint.node.clock)
        self.sockets: dict[int, EndpointSocket] = {}
        self.monitors: list[FilterVM] = []
        info_view = MonitorInfoView(endpoint.memory)
        for index, program_bytes in enumerate(
            authorized.chain_result.monitors
        ):
            try:
                program = FilterProgram.decode(program_bytes)
            except (DecodeError, ProgramError) as exc:
                raise MonitorRejected(
                    index, _decode_failure_report(exc)
                ) from exc
            report, admitted = admit_filter_program(
                program, obs=self._obs,
                fuel_limit=endpoint.config.monitor_fuel,
            )
            if admitted is None:
                raise MonitorRejected(index, report)
            vm = FilterVM(admitted, info=info_view, obs=self._obs)
            vm.run_init()
            self.monitors.append(vm)

        self.suspended = False
        # Sequencing judge for controller→endpoint traffic; the session
        # is created post-auth, so it starts established.
        self.machine = SessionStateMachine(ROLE_ENDPOINT, start_established=True)
        self.decode_errors = 0
        self._resume_event = sim.event(name=f"{self.name}-resume")
        self.outbox = sim.queue(name=f"{self.name}-outbox")
        self.ended = False
        self.commands_processed = 0
        # Fired once with the end reason ("bye" | "transport" | "eof");
        # supervisors wait on this to decide whether to re-dial.
        self.end_event = sim.event(name=f"{self.name}-end")
        self.end_reason: Optional[str] = None

    # -- contention protocol ---------------------------------------------------

    def on_suspend(self, by_priority: int) -> None:
        if not self.suspended:
            self.suspended = True
            self._resume_event = self.endpoint.node.sim.event(
                name=f"{self.name}-resume"
            )
            self.outbox.put(Interrupted(by_priority=by_priority))

    def on_resume(self) -> None:
        if self.suspended:
            self.suspended = False
            self._resume_event.fire(None)
            self.outbox.put(Resumed())

    # -- monitor checks ----------------------------------------------------------

    def check_send(self, frame: FrameBuilder) -> bool:
        """All certificate monitors must allow an outgoing packet.

        ``frame()`` builds the packet's bytes; it runs only if a monitor
        judges sends, so a session without one builds none."""
        packet_bytes = None
        for monitor in self.monitors:
            if monitor.has_entry("send"):
                if packet_bytes is None:
                    packet_bytes = frame()
                if monitor.invoke("send", packet=packet_bytes,
                                  args=(0, len(packet_bytes))) == 0:
                    obs = self._obs
                    if obs.enabled:
                        obs.counter("endpoint.monitor_send_denied").inc()
                        obs.emit("endpoint", "monitor-deny",
                                 session=self.name, direction="send")
                    return False
        return True

    def check_recv(self, frame: FrameBuilder) -> bool:
        """All certificate monitors must allow a captured packet; ``frame``
        as for :meth:`check_send`."""
        packet_bytes = None
        for monitor in self.monitors:
            if monitor.has_entry("recv"):
                if packet_bytes is None:
                    packet_bytes = frame()
                if monitor.invoke("recv", packet=packet_bytes,
                                  args=(0, len(packet_bytes))) == 0:
                    obs = self._obs
                    if obs.enabled:
                        obs.counter("endpoint.monitor_recv_denied").inc()
                    return False
        return True

    # -- processes ---------------------------------------------------------------

    def start(self) -> None:
        sim = self.endpoint.node.sim
        sim.spawn(self._write_loop(), name=f"{self.name}-writer")
        sim.spawn(self._command_loop(), name=f"{self.name}-commands")
        if self.endpoint.config.stream_captures:
            sim.spawn(self._streaming_loop(), name=f"{self.name}-streamer")
        adversary = self.endpoint.adversary
        if adversary is not None:
            adversary.on_session_start(self)

    def _streaming_loop(self) -> Generator:
        """Ablation mode: ship captures immediately (reqid 0 PollData)
        instead of waiting for npoll. Quantifies the §3.1 buffering
        decision; not part of the paper's design."""
        while not self.ended:
            yield self.buffer.wait_for_data()
            if self.ended:
                return
            poll = self._drain(0)
            if poll.records:
                self.send_message(poll)

    def _write_loop(self) -> Generator:
        """Single writer serializing all frames onto the control stream.

        Shutdown is ordered by the outbox's None sentinel, which
        ``_cleanup`` enqueues *after* any farewell message — checking
        ``self.ended`` here instead would drop the SessionEnd a Bye just
        queued, leaving the controller unable to tell a clean goodbye
        from a dead session.
        """
        while True:
            message = yield self.outbox.get()
            if message is None:
                return
            try:
                yield from self.stream.send(message)
            except TcpError:
                return

    def send_message(self, message: Message) -> None:
        adversary = self.endpoint.adversary
        if adversary is not None:
            message = adversary.outgoing(self, message)
        self.outbox.put(message)

    def _over_session_budget(self) -> bool:
        return (
            len(self.machine.violations) > SESSION_VIOLATION_BUDGET
            or self.decode_errors > SESSION_DECODE_BUDGET
        )

    def _note_violation(self, violation) -> None:
        if self._obs.enabled:
            self._obs.counter("proto.sequence_violations",
                              kind=violation.kind, side="endpoint").inc()
            self._obs.emit("proto", "sequence-violation", session=self.name,
                           kind=violation.kind, message=violation.message,
                           detail=violation.detail)

    def _command_loop(self) -> Generator:
        reason = "transport"
        adversary = self.endpoint.adversary
        try:
            while True:
                try:
                    message = yield from self.stream.recv()
                except UndecodableFrame:
                    # The frame boundary survived: charge the decode
                    # budget and keep serving until it runs out.
                    self.decode_errors += 1
                    self._note_violation(
                        self.machine.record("decode-error")
                    )
                    if self._over_session_budget():
                        self.send_message(
                            SessionEnd(reason=END_PROTOCOL_ERROR)
                        )
                        reason = END_PROTOCOL_ERROR
                        break
                    continue
                except (TcpError, FramingError):
                    reason = "transport"
                    break
                if message is None:
                    reason = "eof"
                    break
                # Suspended sessions hold commands until control returns
                # (§3.3); Bye is honoured immediately so a preempted
                # controller can still leave cleanly.
                while self.suspended and not isinstance(message, Bye):
                    yield self._resume_event
                violation = self.machine.observe(message)
                if violation is not None:
                    self._note_violation(violation)
                    if self._over_session_budget():
                        self.send_message(
                            SessionEnd(reason=END_PROTOCOL_ERROR)
                        )
                        reason = END_PROTOCOL_ERROR
                        break
                    # Out-of-place but well-formed: report and drop.
                    self._reply(0, ST_BAD_ARGUMENT)
                    continue
                self.commands_processed += 1
                if self._obs.enabled:
                    self._obs.counter(
                        "endpoint.ops", op=type(message).__name__.lower()
                    ).inc()
                if isinstance(message, Bye):
                    self.send_message(SessionEnd(reason="bye"))
                    reason = "bye"
                    break
                if isinstance(message, Yield):
                    self.endpoint.contention.yield_control(self)
                    continue
                if adversary is not None and adversary.intercept_command(
                    self, message
                ):
                    continue
                answer = self._HANDLERS[type(message)](self, message)
                if isinstance(answer, GeneratorType):  # it has to wait
                    answer = yield from answer
                self._reply(message.reqid, answer)
        finally:
            self._cleanup(reason)

    def _reply(self, reqid: int, answer: Answer) -> None:
        """The one place a command's Result is built and sent."""
        if not isinstance(answer, PollData):
            status, payload = (
                answer if isinstance(answer, tuple) else (answer, b"")
            )
            answer = Result(reqid=reqid, status=status, payload=payload)
        self.send_message(answer)

    # -- command handlers -------------------------------------------------------
    #
    # One per Table 1 command, looked up by message type in _HANDLERS (the
    # state machine has already refused every other type). Each returns
    # its Answer; only a TCP nopen and an npoll that must wait for data
    # return a generator, so the other commands run without a frame.

    def _nopen(self, message: NOpen) -> Union[Answer, Generator]:
        endpoint = self.endpoint
        config = endpoint.config
        sktid = message.sktid
        if sktid in self.sockets or not 0 <= sktid < MAX_SOCKETS:
            return ST_BAD_SOCKET
        shared = (sktid, endpoint.node, self.buffer, endpoint.clock_ticks,
                  self.check_recv)
        if message.proto == SOCK_RAW:
            if not config.allow_raw:
                return ST_UNSUPPORTED
            return self._opened(RawEndpointSocket(
                *shared, MonitorInfoView(endpoint.memory),
                endpoint.is_control_traffic,
            ))
        if message.proto == SOCK_UDP:
            try:
                return self._opened(UdpEndpointSocket(
                    *shared, message.locport, message.remaddr, message.remport,
                ))
            except RuntimeError:  # local port in use
                return ST_BAD_ARGUMENT
        if message.proto == SOCK_TCP:
            return self._nopen_tcp(message, shared)
        return ST_BAD_ARGUMENT

    def _nopen_tcp(self, message: NOpen, shared: tuple) -> Generator:
        conn = self.endpoint.node.tcp.connect(
            message.remaddr, message.remport, src_port=message.locport
        )
        try:
            yield from conn.wait_established()
        except TcpError:
            return ST_CONNECT_FAILED
        return self._opened(TcpEndpointSocket(*shared, conn))

    def _opened(self, socket: EndpointSocket) -> int:
        self.sockets[socket.sktid] = socket
        return ST_OK

    def _nclose(self, message: NClose) -> Answer:
        socket = self.sockets.pop(message.sktid, None)
        if socket is None:
            return ST_BAD_SOCKET
        self.send_queue.cancel(socket)
        socket.close()
        return ST_OK

    def _nsend(self, message: NSend) -> Answer:
        socket = self.sockets.get(message.sktid)
        if socket is None:
            return ST_BAD_SOCKET
        socket.pending_sends += 1

        def on_fire(entry) -> bool:
            socket.pending_sends -= 1
            return socket.send_scheduled(entry.data, self.check_send)

        self.send_queue.schedule(socket, message.data, message.time, on_fire)
        return ST_OK

    def _ncap(self, message: NCap) -> Answer:
        socket = self.sockets.get(message.sktid)
        if socket is None:
            return ST_BAD_SOCKET
        if not isinstance(socket, RawEndpointSocket):
            return ST_BAD_ARGUMENT
        try:
            program = FilterProgram.decode(message.filt)
        except (DecodeError, ProgramError):
            return ST_BAD_ARGUMENT
        # Same admission gate as certificate monitors: a capture filter
        # that would provably fault is rejected with its verifier report.
        report, admitted = admit_filter_program(
            program, obs=self._obs,
            fuel_limit=self.endpoint.config.monitor_fuel, kind="ncap"
        )
        if admitted is None:
            return ERR_MONITOR_REJECTED, _report_text(report).encode()
        socket.install_filter(admitted, message.time)
        return ST_OK

    def _npoll(self, message: NPoll) -> Union[Answer, Generator]:
        if self.buffer.is_empty:
            node = self.endpoint.node
            clock = node.clock
            deadline = clock.to_true_time(clock.from_ticks(message.time))
            if deadline > node.sim.now:
                return self._npoll_wait(message.reqid, deadline)
        return self._drain(message.reqid)

    def _npoll_wait(self, reqid: int, deadline: float) -> Generator:
        """Block until data arrives or the deadline: one event, which the
        deadline timer fires itself if no record does first."""
        sim = self.endpoint.node.sim
        woken = self.buffer.wait_for_data()
        timer = sim.schedule_at(deadline, woken.fire_unless_fired)
        yield woken
        timer.cancel()
        return self._drain(reqid)

    def _drain(self, reqid: int) -> PollData:
        records, dropped_packets, dropped_bytes = self.buffer.drain()
        return PollData(reqid=reqid, dropped_packets=dropped_packets,
                        dropped_bytes=dropped_bytes, records=records)

    def _mread(self, message: MRead) -> Answer:
        try:
            return ST_OK, self.endpoint.memory.read(
                message.memaddr, message.bytecnt
            )
        except MemoryError_:
            return ST_MEM_FAULT

    def _mwrite(self, message: MWrite) -> Answer:
        try:
            self.endpoint.memory.write(message.memaddr, message.data)
        except MemoryError_:
            return ST_MEM_FAULT
        return ST_OK

    _HANDLERS = {
        NOpen: _nopen, NClose: _nclose, NSend: _nsend, NCap: _ncap,
        NPoll: _npoll, MRead: _mread, MWrite: _mwrite,
    }

    # -- teardown -----------------------------------------------------------------

    def _cleanup(self, reason: str = "transport") -> None:
        if self.ended:
            return
        self.ended = True
        self.end_reason = reason
        if self._obs.enabled:
            self._obs.emit("endpoint", "session-end", session=self.name,
                           commands=self.commands_processed, reason=reason)
        for socket in self.sockets.values():
            socket.close()
        self.sockets.clear()
        self.send_queue.cancel()
        self.endpoint.contention.release(self)
        self.endpoint.sessions.pop(self.session_id, None)
        self.endpoint.forget(self.stream.conn)
        self.outbox.put(None)  # stop the writer
        self.endpoint.node.sim.schedule(0.05, self.stream.close)
        self.end_event.fire(reason)


class Endpoint:
    """A measurement endpoint agent running on a simulated host."""

    def __init__(self, node: Node, config: EndpointConfig) -> None:
        self.node = node
        self.config = config
        self.memory = EndpointMemory(self)
        self.memory.set_caps(self.config.caps())
        self.memory.set_addresses(ip=node.primary_address())
        self.contention = ContentionManager(obs=node.sim.obs)
        self.sessions: dict[int, Session] = {}
        self._next_session_id = 1
        self._seen_descriptors: set[bytes] = set()
        self.auth_failures = 0
        # Byzantine fault model: when set (FaultPlan.byzantine), every
        # session consults this adversary for stall/flood/fabricate/
        # desequence/tamper behaviors. None = honest endpoint.
        self.adversary = None
        # Crash-and-restart fault model (driven by netsim.faults).
        self.crashed = False
        self._restart_event = None
        self._rng = _Random(RECONNECT_SEED)
        # The connections the agent opened itself, keyed by the (remote
        # ip, remote port, local port) a packet from the peer carries:
        # controller dials from connect until their session ends, and
        # rendezvous subscriptions. The flag marks a subscription, which
        # crash() aborts directly (a session's connection it reaches
        # through the session; a handshake notices the crash itself).
        self._own_conns: dict[tuple[int, int, int],
                              tuple[TcpConnection, bool]] = {}
        # Monotonic across subscription lifetimes (but reset by restart,
        # since a real endpoint loses its counter with its memory).
        self._heartbeat_seq = 0

    # -- memory/data plumbing -------------------------------------------------------

    def clock_ticks(self) -> int:
        return self.node.clock.ticks()

    def is_control_traffic(self, packet) -> bool:
        """True if a packet arrives on a connection the agent opened itself.

        Those are exempt from raw capture: consuming them would sever a
        session or the rendezvous subscription, and mirroring them would
        leak other experimenters' control traffic and offers.
        """
        if packet.proto != PROTO_TCP:
            return False
        segment = packet.segment
        if segment is not None:
            ports = (segment.src_port, segment.dst_port)
        else:
            payload = packet.payload
            if len(payload) < 4:
                return False
            ports = (int.from_bytes(payload[0:2], "big"),
                     int.from_bytes(payload[2:4], "big"))
        return (packet.src, *ports) in self._own_conns

    def _own(self, conn: TcpConnection, subscription: bool = False) -> None:
        key = (conn.remote_ip, conn.remote_port, conn.local_port)
        self._own_conns[key] = (conn, subscription)

    def forget(self, conn: TcpConnection) -> None:
        """Raw capture may see ``conn`` again: its owner is done with it."""
        self._own_conns.pop((conn.remote_ip, conn.remote_port,
                             conn.local_port), None)

    def active_capture_buffer(self) -> Optional[CaptureBuffer]:
        active = self.contention.active
        if isinstance(active, Session):
            return active.buffer
        return None

    def active_sockets(self) -> dict[int, EndpointSocket]:
        active = self.contention.active
        if isinstance(active, Session):
            return active.sockets
        return {}

    # -- crash-and-restart fault model ----------------------------------------

    def crash(self) -> None:
        """Abruptly lose all state, as a real endpoint losing power would.

        Every control and rendezvous connection is aborted (the peer
        sees a reset, not a FIN) and session state dies with them. The
        endpoint stays down until :meth:`restart`.
        """
        if self.crashed:
            return
        self.crashed = True
        self._restart_event = self.node.sim.event(
            name=f"{self.config.name}-restart"
        )
        obs = self.node.sim.obs
        if obs.enabled:
            obs.counter("endpoint.crashes").inc()
            obs.emit("endpoint", "crash", endpoint=self.config.name,
                     sessions=len(self.sessions))
        for session in list(self.sessions.values()):
            session.stream.conn.abort()
        for conn, subscription in list(self._own_conns.values()):
            if subscription:
                conn.abort()
        # Liveness counter dies with the endpoint's memory; the restarted
        # process starts beaconing from zero again.
        self._heartbeat_seq = 0

    def restart(self) -> None:
        """Come back up after a crash; supervised connections re-dial."""
        if not self.crashed:
            return
        self.crashed = False
        obs = self.node.sim.obs
        if obs.enabled:
            obs.counter("endpoint.restarts").inc()
            obs.emit("endpoint", "restart", endpoint=self.config.name)
        event, self._restart_event = self._restart_event, None
        if event is not None:
            event.fire(None)

    # -- session establishment -------------------------------------------------

    def connect_to_controller(
        self, addr: int, port: int, descriptor_hash: bytes = b""
    ):
        """Contact an experiment controller and offer this endpoint.

        With ``config.reconnect`` the connection is supervised: a
        transport-level session loss (or a crash-and-restart) triggers
        re-dialing with exponential backoff until the controller says
        Bye or the retry budget is exhausted.
        """
        if self.config.reconnect:
            return self.node.spawn(
                self._supervised_connect(addr, port, descriptor_hash),
                name=f"{self.config.name}-supervise",
            )
        return self.node.spawn(
            self._session_startup(addr, port, descriptor_hash),
            name=f"{self.config.name}-connect",
        )

    def _supervised_connect(self, addr: int, port: int,
                            descriptor_hash: bytes) -> Generator:
        obs = self.node.sim.obs
        attempt = 0
        while True:
            if self.crashed:
                event = self._restart_event
                if event is not None:
                    yield event
                attempt = 0
                continue
            session = yield from self._session_startup(
                addr, port, descriptor_hash
            )
            if session is not None:
                attempt = 0
                reason = yield session.end_event
                if reason == "bye":
                    return None  # clean goodbye: the experiment is over
                continue  # re-dial immediately after an established session
            if attempt >= RECONNECT_POLICY.max_attempts:
                if obs.enabled:
                    obs.emit("endpoint", "reconnect-giveup",
                             endpoint=self.config.name, attempts=attempt)
                return None
            delay = RECONNECT_POLICY.delay_for(attempt, self._rng)
            attempt += 1
            if obs.enabled:
                obs.counter("endpoint.reconnect_attempts").inc()
                obs.emit("endpoint", "reconnect", endpoint=self.config.name,
                         attempt=attempt, delay=delay)
            yield delay

    def _session_startup(self, addr: int, port: int,
                         descriptor_hash: bytes) -> Generator:
        if self.crashed:
            return None
        conn = self.node.tcp.connect(addr, port)
        # The agent's own from its first packet on: raw capture must not
        # see, let alone swallow, the SYN-ACK or the Hello/Auth exchange.
        self._own(conn)
        session = None
        try:
            session = yield from self._admit(conn, descriptor_hash)
        finally:
            if session is None:  # refused or failed; conn is going away
                self.forget(conn)
        return session

    def _admit(self, conn: TcpConnection, descriptor_hash: bytes) -> Generator:
        """Hello/Auth on a fresh dial: the started Session, or None with
        the connection closed (aborted if the endpoint crashed)."""
        sim = self.node.sim
        try:
            yield from conn.wait_established()
        except TcpError:
            return None
        if self.crashed:
            conn.abort()
            return None
        stream = MessageStream(conn)
        try:
            yield from stream.send(
                Hello(
                    version=PROTOCOL_VERSION,
                    caps=self.config.caps(),
                    endpoint_name=self.config.name,
                    descriptor_hash=descriptor_hash,
                )
            )
        except TcpError:
            conn.close()
            return None

        def recv_safe() -> Generator:
            try:
                return (yield from stream.recv())
            except (TcpError, FramingError):
                return None

        # Wait for Auth, bounded by AUTH_TIMEOUT: the timer
        # kills the receiver, which the join then sees end with None.
        auth_proc = sim.spawn(recv_safe(), name="auth-recv")
        timer = sim.schedule(AUTH_TIMEOUT, auth_proc.kill)
        auth = yield auth_proc
        timer.cancel()
        if not isinstance(auth, Auth):
            conn.close()
            return None
        try:
            authorized = verify_auth(auth, self.config.trusted_key_ids, sim.now)
            session = None if self.crashed else Session(
                self, stream, authorized, self._next_session_id
            )
        except (AuthError, MonitorRejected) as exc:
            # Refused at admission: a bad certificate chain or a
            # certificate monitor the verifier rejected.
            self.auth_failures += 1
            fields = {}
            if isinstance(exc, MonitorRejected):
                fields = {"code": ERR_MONITOR_REJECTED}
            if sim.obs.enabled:
                sim.obs.counter("endpoint.auth_failures").inc()
                sim.obs.emit("endpoint", "auth-fail", endpoint=self.config.name,
                             reason=str(exc), **fields)
            if fields:
                fields["report"] = _report_text(exc.report)
            try:
                yield from stream.send(AuthFail(reason=str(exc), **fields))
            except TcpError:
                pass
            conn.close()
            return None
        if session is None:
            # Crashed mid-handshake: the connection dies with everything else.
            conn.abort()
            return None
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        if sim.obs.enabled:
            sim.obs.counter("endpoint.sessions_accepted").inc()
            sim.obs.emit("endpoint", "session-start", session=session.name,
                         priority=session.priority)
        try:
            yield from stream.send(
                AuthOk(session_id=session.session_id,
                       buffer_limit=session.buffer.capacity)
            )
        except TcpError:
            session._cleanup("transport")
            return None
        session.start()
        self.contention.request_control(session)
        return session

    # -- rendezvous subscription (§3.2) ---------------------------------------------------

    def start_rendezvous(self, rdz_addr: int, rdz_port: int):
        """Subscribe to rendezvous channels and chase published experiments.

        With ``config.reconnect`` the subscription is supervised: if the
        rendezvous server restarts (it is the persistent infrastructure —
        losing it should only be a blip), the endpoint resubscribes with
        backoff. Already-seen descriptors are deduplicated, so replays
        from the restarted server don't double-connect.
        """
        if self.config.reconnect:
            return self.node.spawn(
                self._rendezvous_supervisor(rdz_addr, rdz_port),
                name=f"{self.config.name}-rendezvous",
            )
        return self.node.spawn(
            self._rendezvous_once(rdz_addr, rdz_port),
            name=f"{self.config.name}-rendezvous",
        )

    def _rendezvous_once(self, rdz_addr: int, rdz_port: int) -> Generator:
        yield from self._rendezvous_loop(rdz_addr, rdz_port)
        return None

    def _rendezvous_supervisor(self, rdz_addr: int, rdz_port: int) -> Generator:
        obs = self.node.sim.obs
        attempt = 0
        while True:
            if self.crashed:
                event = self._restart_event
                if event is not None:
                    yield event
                attempt = 0
                continue
            subscribed = yield from self._rendezvous_loop(rdz_addr, rdz_port)
            if subscribed:
                attempt = 0  # connection held for a while; fresh budget
            if attempt >= RECONNECT_POLICY.max_attempts:
                if obs.enabled:
                    obs.emit("endpoint", "rdz-giveup",
                             endpoint=self.config.name, attempts=attempt)
                return None
            delay = RECONNECT_POLICY.delay_for(attempt, self._rng)
            attempt += 1
            if obs.enabled:
                obs.counter("endpoint.rdz_resubscribes").inc()
                obs.emit("endpoint", "rdz-resubscribe",
                         endpoint=self.config.name, attempt=attempt,
                         delay=delay)
            yield delay

    def _rendezvous_loop(self, rdz_addr: int, rdz_port: int) -> Generator:
        """One subscription lifetime; returns True once subscribed."""
        try:
            conn = yield from self.node.tcp.open_connection(rdz_addr, rdz_port)
        except TcpError:
            return False
        self._own(conn, subscription=True)
        heartbeat_proc = None
        try:
            stream = MessageStream(conn)
            try:
                yield from stream.send(
                    RdzSubscribe(channels=tuple(self.config.trusted_key_ids))
                )
            except TcpError:
                return False
            if self.config.heartbeat_interval > 0:
                # Liveness rides the subscription stream: the reader loop
                # below is the stream's only consumer, the publisher its
                # only producer, so they share the connection safely.
                heartbeat_proc = self.node.spawn(
                    self._heartbeat_publisher(stream),
                    name=f"{self.config.name}-heartbeat",
                )
            while True:
                try:
                    message = yield from stream.recv()
                except (TcpError, FramingError):
                    return True
                if message is None:
                    return True
                if not isinstance(message, RdzExperiment):
                    continue
                try:
                    descriptor = ExperimentDescriptor.decode(message.descriptor)
                except DecodeError:
                    continue
                digest = descriptor.hash()
                if digest in self._seen_descriptors:
                    continue
                self._seen_descriptors.add(digest)
                self.connect_to_controller(
                    descriptor.controller_addr, descriptor.controller_port,
                    digest,
                )
        finally:
            if heartbeat_proc is not None and heartbeat_proc.alive:
                heartbeat_proc.kill()
            self.forget(conn)

    def _heartbeat_publisher(self, stream: MessageStream) -> Generator:
        """Beacon liveness on the subscription stream until it dies."""
        interval = self.config.heartbeat_interval
        obs = self.node.sim.obs
        while True:
            yield interval
            if self.crashed:
                return None
            self._heartbeat_seq += 1
            try:
                yield from stream.send(
                    RdzHeartbeat(
                        endpoint_name=self.config.name,
                        seq=self._heartbeat_seq,
                    )
                )
            except TcpError:
                return None
            if obs.enabled:
                obs.counter("endpoint.heartbeats_sent").inc()
