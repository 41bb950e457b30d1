"""Experiment controller: the brain of every PacketLab experiment.

"All experiment logic is located on the experiment controller so that the
measurement endpoint interface can remain simple and universal" (§3.1).

A :class:`ControllerServer` listens for incoming endpoint connections
(endpoints contact controllers, per §3.2), authenticates each with the
experiment's descriptor and certificate chain, and hands experiment code an
:class:`EndpointHandle` — the controller-side API mirroring Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Union

from repro.filtervm.program import FilterProgram
from repro.netsim.kernel import Event, Queue, any_of
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpError
from repro.proto.constants import (
    ERR_MONITOR_REJECTED,
    SOCK_RAW,
    SOCK_TCP,
    SOCK_UDP,
    ST_OK,
    STATUS_NAMES,
)
from repro.proto.framing import FramingError, MessageStream, UndecodableFrame
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
    Result,
    Resumed,
    SessionEnd,
    Yield,
)
from repro.proto.statemachine import (
    ROLE_CONTROLLER,
    SessionStateMachine,
    V_DECODE_ERROR,
    V_STREAM_OVERFLOW,
    Violation,
)
from repro.endpoint.memory import OFF_CLOCK

# Wire overhead charged per streamed CaptureRecord (sktid + timestamp +
# length prefix) so empty-payload floods still consume the byte budget.
STREAM_RECORD_OVERHEAD = 16


class CommandError(Exception):
    """A Table 1 command returned a non-OK status."""

    def __init__(self, command: str, status: int) -> None:
        name = STATUS_NAMES.get(status, str(status))
        super().__init__(f"{command} failed: {name}")
        self.status = status


class SessionClosed(Exception):
    """The endpoint session ended while a command was outstanding."""


@dataclass
class SessionBudget:
    """Hard per-session resource caps for one endpoint session.

    The single-RPC timeout bounds how long *one* command may dangle; a
    budget bounds what the whole session may cost the controller.  Every
    ``None`` field disables that cap.  When any cap trips, the handle
    severs the session and surfaces a typed :class:`MisbehaviorError`
    to all callers instead of hanging or buffering without bound.

    ``max_streamed_bytes`` defaults to the session's negotiated
    ``AuthOk.buffer_limit`` when left ``None`` — an endpoint may never
    push more unconsumed streamed capture than its own advertised
    buffer.  ``max_pending_age`` is slowloris detection beyond the
    per-RPC timeout: the oldest unanswered reqid may not stay pending
    longer than this, no matter how many fresh RPCs keep succeeding.
    """

    max_streamed_bytes: Optional[int] = None  # None = negotiated buffer_limit
    max_streamed_records: Optional[int] = 4096
    max_pending_age: Optional[float] = None
    max_violations: Optional[int] = 8
    max_decode_errors: Optional[int] = 4


class MisbehaviorError(SessionClosed):
    """A session was severed because the endpoint exhausted a budget.

    Subclasses :class:`SessionClosed` so existing retry/rescheduling
    policy applies unchanged, while carrying the offence ``kind`` for
    misbehavior scoring (see :meth:`repro.fleet.pool.EndpointPool.
    report_misbehavior`).
    """

    def __init__(self, endpoint: str, kind: str, detail: str = "") -> None:
        text = f"endpoint {endpoint} misbehaved: {kind}"
        if detail:
            text = f"{text} ({detail})"
        super().__init__(text)
        self.endpoint = endpoint
        self.kind = kind
        self.detail = detail


class RpcTimeout(Exception):
    """A command saw no matched response within the configured timeout.

    The session itself may still be alive (e.g. the response is stuck
    behind a link outage); whether to retry, reconnect, or abandon is the
    caller's policy — see :class:`repro.controller.recovery.ResilientHandle`.
    """

    def __init__(self, command: str, timeout: float) -> None:
        super().__init__(f"{command} unanswered after {timeout:g}s")
        self.command = command
        self.timeout = timeout


# Faults a driver degrades gracefully on — an experiment returns a partial
# result, a campaign requeues the job: the session died, a command went
# unanswered, or the endpoint refused a command.
RECOVERABLE = (SessionClosed, RpcTimeout, CommandError)


@dataclass
class DeferredError:
    """A pipelined (``*_nowait``) command that later reported failure.

    Fire-and-forget commands have no caller waiting on their Result, so a
    non-OK status used to vanish in the reader loop. The handle now keeps
    these so campaign rollups can surface late send failures instead of
    silently under-counting.
    """

    op: str
    status: int
    time: float

    def __str__(self) -> str:
        name = STATUS_NAMES.get(self.status, str(self.status))
        return f"{self.op} failed late: {name} (t={self.time:g})"


@dataclass
class ExperimentIdentity:
    """What a controller presents to endpoints: descriptor + chains.

    One chain per endpoint operator who delegated access; endpoints
    accept whichever chain anchors in their own trust store.
    """

    descriptor_bytes: bytes
    chain_bytes_list: tuple[bytes, ...]
    priority: int = 0


class EndpointHandle:
    """Controller-side view of one endpoint session (Table 1 API).

    All command methods are generators: ``status = yield from
    handle.nopen_raw(0)`` inside a simulated process.
    """

    def __init__(self, node: Node, stream: MessageStream, hello: Hello,
                 session_id: int, buffer_limit: int,
                 rpc_timeout: Optional[float] = None,
                 budget: Optional[SessionBudget] = None,
                 machine: Optional[SessionStateMachine] = None) -> None:
        self.node = node
        self.sim = node.sim
        self.stream = stream
        self.hello = hello
        self.session_id = session_id
        self.buffer_limit = buffer_limit
        self.endpoint_name = hello.endpoint_name
        self.caps = hello.caps
        # None = wait forever (the original behavior); a float bounds
        # every _request and raises RpcTimeout when it elapses.
        self.rpc_timeout = rpc_timeout
        # Per-session caps; None disables budget enforcement entirely
        # (sequencing violations are still *recorded*, never enforced).
        self.budget = budget
        self.machine = machine or SessionStateMachine(
            ROLE_CONTROLLER, start_established=True
        )
        # Set when a budget trips: the typed outcome every subsequent
        # caller gets instead of a bare SessionClosed.
        self.misbehavior: Optional[MisbehaviorError] = None
        self.budget_exhaustions = 0
        # True once the session closed with RPCs in flight and no
        # farewell explaining why — the silent-abandon scoring signal.
        self.abandoned = False
        self.decode_errors = 0
        # Commands that saw no matched response within rpc_timeout.
        # Callers often absorb RpcTimeout into partial results, so the
        # handle keeps its own count as harvestable stall evidence.
        self.rpc_timeouts = 0

        self._next_reqid = 1
        self._pending: dict[int, Event] = {}
        # reqid -> sim time the command was issued (pending-age watchdog).
        self._pending_started: dict[int, float] = {}
        self._age_timer = None
        self._obs = node.sim.obs
        self._outbox: Queue = node.sim.queue(name="ctl-outbox")
        self.closed = False
        self.interrupted = False
        self.end_reason: Optional[str] = None
        self._interruption_events: list[Event] = []
        self.notifications: list[Message] = []
        # Records pushed by a streaming-mode endpoint (reqid-0 PollData).
        self.streamed_records: list = []
        self._streamed_bytes = 0
        # reqid -> op for pipelined commands whose Result nobody awaits;
        # late failures land in deferred_errors instead of being dropped.
        self._nowait_ops: dict[int, str] = {}
        self.deferred_errors: list[DeferredError] = []
        # Verifier report from the most recent ncap the endpoint rejected
        # with ERR_MONITOR_REJECTED (None until that happens).
        self.last_verifier_report: Optional[str] = None
        node.spawn(self._reader_loop(), name="ctl-reader")
        node.spawn(self._writer_loop(), name="ctl-writer")

    # -- plumbing -------------------------------------------------------------

    @property
    def violations(self) -> list:
        """All protocol violations recorded on this session."""
        return self.machine.violations

    def _reader_loop(self) -> Generator:
        while True:
            try:
                message = yield from self.stream.recv()
            except UndecodableFrame as exc:
                # Frame boundary intact: count it, keep reading until the
                # decode budget runs out.
                self.decode_errors += 1
                violation = self.machine.record(V_DECODE_ERROR, str(exc))
                self._note_violation(violation)
                budget = self.budget
                if (budget is not None
                        and budget.max_decode_errors is not None
                        and self.decode_errors > budget.max_decode_errors):
                    self._exhaust("decode-budget",
                                  f"{self.decode_errors} undecodable frames")
                if self.misbehavior is not None:
                    break
                continue
            except (TcpError, FramingError):
                break
            if message is None:
                break
            violation = self.machine.observe(message)
            if violation is not None:
                # Drop the illegal message; record (and maybe enforce).
                self._note_violation(violation)
                if self.misbehavior is not None:
                    break
                continue
            if isinstance(message, PollData) and message.reqid == 0:
                if not self._accept_streamed(message):
                    break
                continue
            if isinstance(message, (Result, PollData)):
                self._pending_started.pop(message.reqid, None)
                waiter = self._pending.pop(message.reqid, None)
                if waiter is not None:
                    waiter.fire(message)
                    continue
                op = self._nowait_ops.pop(message.reqid, None)
                status = getattr(message, "status", ST_OK)
                if op is not None and status != ST_OK:
                    self.deferred_errors.append(
                        DeferredError(op, status, self.sim.now)
                    )
                    if self._obs.enabled:
                        self._obs.counter("rpc.deferred_errors", op=op).inc()
                        self._obs.emit("rpc", "deferred-error",
                                       endpoint=self.endpoint_name, op=op,
                                       status=status)
                continue
            self.notifications.append(message)
            if isinstance(message, Interrupted):
                self.interrupted = True
            elif isinstance(message, Resumed):
                self.interrupted = False
                waiters, self._interruption_events = self._interruption_events, []
                for event in waiters:
                    event.fire(None)
            elif isinstance(message, SessionEnd):
                self.end_reason = message.reason
        self._close_pending()

    def _note_violation(self, violation: Violation) -> None:
        """Account one recorded violation against obs and the budget."""
        if self._obs.enabled:
            self._obs.counter("proto.sequence_violations",
                              kind=violation.kind, side="controller").inc()
            self._obs.emit("proto", "sequence-violation",
                           endpoint=self.endpoint_name, kind=violation.kind,
                           message=violation.message, detail=violation.detail)
        budget = self.budget
        if (budget is not None
                and budget.max_violations is not None
                and len(self.machine.violations) > budget.max_violations
                and self.misbehavior is None):
            self._exhaust(
                "violation-budget",
                f"{len(self.machine.violations)} protocol violations",
            )

    def _accept_streamed(self, message: PollData) -> bool:
        """Buffer reqid-0 streaming records, enforcing the negotiated cap.

        The cap covers *unconsumed* records: a consumer that drains
        ``streamed_records`` (bench_a1 style ``clear()``) resets the byte
        account, mirroring how the endpoint's own capture buffer frees as
        it is polled.  Overflow records are dropped, recorded as a typed
        violation, and — when a budget is armed — sever the session.
        Returns False when the reader loop should stop.
        """
        if not self.streamed_records:
            self._streamed_bytes = 0
        size = sum(
            len(record.data) + STREAM_RECORD_OVERHEAD
            for record in message.records
        )
        budget = self.budget
        limit_bytes = self.buffer_limit or None
        limit_records = None
        if budget is not None:
            if budget.max_streamed_bytes is not None:
                limit_bytes = budget.max_streamed_bytes
            limit_records = budget.max_streamed_records
        over = (
            (limit_bytes is not None
             and self._streamed_bytes + size > limit_bytes)
            or (limit_records is not None
                and len(self.streamed_records) + len(message.records)
                > limit_records)
        )
        if over:
            violation = self.machine.record(
                V_STREAM_OVERFLOW,
                f"{self._streamed_bytes + size} streamed bytes / "
                f"{len(self.streamed_records) + len(message.records)} records "
                f"over negotiated limit",
            )
            self._note_violation(violation)
            if budget is not None and self.misbehavior is None:
                self._exhaust("stream-overflow", violation.detail)
            # Without a budget the offending records are simply dropped:
            # recorded, never buffered, session stays up.
            return self.misbehavior is None
        self._streamed_bytes += size
        self.streamed_records.extend(message.records)
        return True

    def _exhaust(self, kind: str, detail: str = "") -> None:
        """A budget cap tripped: sever the session with a typed outcome."""
        if self.misbehavior is not None:
            return
        self.budget_exhaustions += 1
        self.misbehavior = MisbehaviorError(self.endpoint_name, kind, detail)
        if self._obs.enabled:
            self._obs.counter("session.budget_exhausted", kind=kind).inc()
            self._obs.emit("session", "budget-exhausted",
                           endpoint=self.endpoint_name, kind=kind,
                           detail=detail)
        # Sever the transport so the peer sees the session die too; the
        # reader/writer loops unwind on the reset.
        self.stream.conn.abort()
        self._close_pending()

    # -- pending-age watchdog -------------------------------------------------

    def _arm_age_timer(self) -> None:
        budget = self.budget
        if (budget is None or budget.max_pending_age is None
                or self._age_timer is not None or self.closed
                or not self._pending_started):
            return
        oldest = min(self._pending_started.values())
        delay = max(0.0, oldest + budget.max_pending_age - self.sim.now)
        self._age_timer = self.sim.schedule(delay, self._check_pending_age)

    def _check_pending_age(self) -> None:
        self._age_timer = None
        budget = self.budget
        if budget is None or budget.max_pending_age is None or self.closed:
            return
        if not self._pending_started:
            return  # nothing pending: stay disarmed until the next request
        oldest = min(self._pending_started.values())
        age = self.sim.now - oldest
        if age + 1e-9 >= budget.max_pending_age:
            self._exhaust("rpc-stalled",
                          f"oldest RPC pending {age:g}s")
            return
        self._arm_age_timer()

    def _writer_loop(self) -> Generator:
        while True:
            message = yield self._outbox.get()
            if message is None:
                return
            try:
                yield from self.stream.send(message)
            except TcpError:
                self._close_pending()
                return

    def _close_pending(self) -> None:
        was_closed = self.closed
        self.closed = True
        pending, self._pending = self._pending, {}
        self._pending_started.clear()
        if self._age_timer is not None:
            self._age_timer.cancel()
            self._age_timer = None
        # A peer farewell (SessionEnd, any reason) makes this a legal
        # shutdown even with RPCs still in flight — the waiters get a
        # plain SessionClosed and nobody is scored for it.  A transport
        # death with RPCs pending and *no* farewell and *no* budget
        # verdict is a silent abandon: the misbehavior-scoring signal.
        farewell = self.end_reason is not None
        if not was_closed:
            self.abandoned = (
                bool(pending) and not farewell and self.misbehavior is None
            )
        obs = self._obs
        if obs.enabled and not was_closed:
            if farewell:
                obs.emit("rpc", "session-closed",
                         endpoint=self.endpoint_name,
                         reason=self.end_reason, pending=len(pending))
            else:
                obs.counter("rpc.sessions_lost").inc()
                obs.emit("rpc", "session-lost", endpoint=self.endpoint_name,
                         pending=len(pending), abandoned=self.abandoned)
        for event in pending.values():
            event.fire(None)

    def _request(self, message: Message, reqid: int) -> Generator:
        """Send a command and wait for its matched response.

        Raises :class:`SessionClosed` when the session dies mid-command
        and :class:`RpcTimeout` when ``rpc_timeout`` is set and elapses
        first (the reqid is abandoned; a late response is discarded by
        the reader loop).
        """
        if self.closed:
            if self.misbehavior is not None:
                raise self.misbehavior
            raise SessionClosed("endpoint session is closed")
        obs = self._obs
        op = type(message).__name__.lower()
        started = self.sim.now if obs.enabled else 0.0
        waiter = self.sim.event(name=f"req-{reqid}")
        self._pending[reqid] = waiter
        self._pending_started[reqid] = self.sim.now
        self.machine.note_request(reqid)
        self._arm_age_timer()
        self._outbox.put(message)
        if self.rpc_timeout is not None:
            timeout_event = self.sim.event(name=f"req-{reqid}-timeout")
            timer = self.sim.schedule(self.rpc_timeout, timeout_event.fire)
            index, response = yield any_of(self.sim, [waiter, timeout_event])
            if index == 1:
                self._pending.pop(reqid, None)
                self._pending_started.pop(reqid, None)
                self.rpc_timeouts += 1
                if obs.enabled:
                    obs.counter("rpc.timeouts", op=op).inc()
                    obs.emit("rpc", "timeout", endpoint=self.endpoint_name,
                             op=op, reqid=reqid, timeout=self.rpc_timeout)
                raise RpcTimeout(op, self.rpc_timeout)
            timer.cancel()
        else:
            response = yield waiter
        if response is None:
            if self.misbehavior is not None:
                raise self.misbehavior
            raise SessionClosed("endpoint session ended mid-command")
        if obs.enabled:
            obs.counter("controller.rpcs", op=op).inc()
            obs.histogram("controller.rpc_rtt_s").observe(
                self.sim.now - started
            )
        return response

    def _reqid(self) -> int:
        reqid = self._next_reqid
        self._next_reqid += 1
        return reqid

    # -- Table 1 commands -------------------------------------------------------

    def nopen(self, sktid: int, proto: int, locport: int = 0,
              remaddr: int = 0, remport: int = 0) -> Generator:
        reqid = self._reqid()
        response = yield from self._request(
            NOpen(reqid=reqid, sktid=sktid, proto=proto, locport=locport,
                  remaddr=remaddr, remport=remport),
            reqid,
        )
        return response.status

    def nopen_raw(self, sktid: int) -> Generator:
        return (yield from self.nopen(sktid, SOCK_RAW))

    def nopen_udp(self, sktid: int, locport: int = 0, remaddr: int = 0,
                  remport: int = 0) -> Generator:
        return (yield from self.nopen(sktid, SOCK_UDP, locport, remaddr, remport))

    def nopen_tcp(self, sktid: int, remaddr: int, remport: int,
                  locport: int = 0) -> Generator:
        return (yield from self.nopen(sktid, SOCK_TCP, locport, remaddr, remport))

    def nclose(self, sktid: int) -> Generator:
        reqid = self._reqid()
        response = yield from self._request(NClose(reqid=reqid, sktid=sktid), reqid)
        return response.status

    def nsend(self, sktid: int, time_ticks: int, data: bytes) -> Generator:
        reqid = self._reqid()
        response = yield from self._request(
            NSend(reqid=reqid, sktid=sktid, time=time_ticks, data=data), reqid
        )
        return response.status

    def nsend_nowait(self, sktid: int, time_ticks: int, data: bytes) -> None:
        """Pipelined nsend: queue the command without awaiting its Result.

        Used when streaming many sends back-to-back (the Result for an
        unawaited reqid is discarded by the reader loop).
        """
        if self._obs.enabled:
            self._obs.counter("controller.rpcs_pipelined").inc()
        reqid = self._reqid()
        self._nowait_ops[reqid] = f"nsend:{sktid}"
        self.machine.note_request(reqid)
        self._outbox.put(
            NSend(reqid=reqid, sktid=sktid, time=time_ticks, data=data)
        )

    def ncap(self, sktid: int, time_ticks: int,
             filt: Union[FilterProgram, bytes]) -> Generator:
        program = filt.encode() if isinstance(filt, FilterProgram) else filt
        reqid = self._reqid()
        response = yield from self._request(
            NCap(reqid=reqid, sktid=sktid, time=time_ticks, filt=program), reqid
        )
        if response.status == ERR_MONITOR_REJECTED:
            # The endpoint's static verifier refused the filter; keep the
            # report so the experimenter sees *why* instead of a bare code.
            self.last_verifier_report = response.payload.decode(
                "utf-8", "replace"
            )
        return response.status

    def npoll(self, time_ticks: int) -> Generator:
        """Returns the PollData response (records + drop accounting)."""
        reqid = self._reqid()
        response = yield from self._request(NPoll(reqid=reqid, time=time_ticks), reqid)
        if not isinstance(response, PollData):
            raise CommandError("npoll", getattr(response, "status", -1))
        return response

    def mread(self, memaddr: int, bytecnt: int) -> Generator:
        reqid = self._reqid()
        response = yield from self._request(
            MRead(reqid=reqid, memaddr=memaddr, bytecnt=bytecnt), reqid
        )
        if response.status != ST_OK:
            raise CommandError("mread", response.status)
        return response.payload

    def mwrite(self, memaddr: int, data: bytes) -> Generator:
        reqid = self._reqid()
        response = yield from self._request(
            MWrite(reqid=reqid, memaddr=memaddr, data=data), reqid
        )
        return response.status

    # -- conveniences ---------------------------------------------------------------

    def read_clock(self) -> Generator:
        """Read the endpoint's 64-bit clock (ns ticks) via mread (§3.1)."""
        data = yield from self.mread(OFF_CLOCK, 8)
        return int.from_bytes(data, "big")

    def expect_ok(self, status: int, command: str) -> None:
        if status != ST_OK:
            raise CommandError(command, status)

    def wait_resumed(self) -> Generator:
        """Block until an interruption ends (§3.3)."""
        if not self.interrupted:
            return None
        event = self.sim.event(name="wait-resumed")
        self._interruption_events.append(event)
        yield event
        return None

    def yield_control(self) -> None:
        self._outbox.put(Yield())

    def bye(self) -> None:
        self._outbox.put(Bye())


class ControllerServer:
    """Accepts endpoint connections for one experiment.

    Experiment controllers are ephemeral (§1): create one, run the
    experiment over the handles it yields, tear it down.
    """

    def __init__(self, node: Node, port: int, identity: ExperimentIdentity,
                 rpc_timeout: Optional[float] = None,
                 budget: Optional[SessionBudget] = None) -> None:
        self.node = node
        self.port = port
        self.identity = identity
        self.rpc_timeout = rpc_timeout
        # Per-session budget applied to every handle this server creates.
        self.budget = budget
        # Optional hook(endpoint_name, reason) fired on each AuthFail —
        # the fleet pool uses it to score repeated auth failures.
        self.on_auth_fail = None
        self.endpoints: Queue = node.sim.queue(name="controller-endpoints")
        self.auth_failures: list[str] = []
        # Verifier reports from endpoints that rejected a certificate
        # monitor at session setup (AuthFail.code == ERR_MONITOR_REJECTED).
        self.monitor_rejections: list[str] = []
        self._listener = None
        self._accept_proc = None

    def start(self) -> "ControllerServer":
        self._listener = self.node.tcp.listen(self.port)
        self._accept_proc = self.node.spawn(self._accept_loop(), name="ctl-accept")
        return self

    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self._listener.accept()
            self.node.spawn(self._handshake(conn), name="ctl-handshake")

    def _handshake(self, conn) -> Generator:
        stream = MessageStream(conn)
        machine = SessionStateMachine(ROLE_CONTROLLER)
        try:
            hello = yield from stream.recv()
        except (TcpError, FramingError):
            conn.close()
            return
        if not isinstance(hello, Hello) or machine.observe(hello) is not None:
            conn.close()
            return
        from repro.proto.constants import PROTOCOL_VERSION

        if hello.version != PROTOCOL_VERSION:
            self.auth_failures.append(
                f"protocol version mismatch: endpoint speaks {hello.version}"
            )
            conn.close()
            return
        yield from stream.send(
            Auth(
                descriptor=self.identity.descriptor_bytes,
                chains=self.identity.chain_bytes_list,
                priority=self.identity.priority,
            )
        )
        try:
            response = yield from stream.recv()
        except (TcpError, FramingError):
            conn.close()
            return
        if machine.observe(response) is not None:
            # e.g. a Result before any auth response: reject the session
            # outright rather than adopting a peer already off-script.
            conn.close()
            return
        if isinstance(response, AuthOk):
            handle = EndpointHandle(
                self.node, stream, hello, response.session_id,
                response.buffer_limit, rpc_timeout=self.rpc_timeout,
                budget=self.budget, machine=machine,
            )
            self.endpoints.put(handle)
        elif isinstance(response, AuthFail):
            self.auth_failures.append(response.reason)
            if response.code == ERR_MONITOR_REJECTED:
                self.monitor_rejections.append(
                    response.report or response.reason
                )
            if self.on_auth_fail is not None:
                self.on_auth_fail(hello.endpoint_name, response.reason)
            conn.close()
        else:
            conn.close()

    def wait_endpoint(self) -> Event:
        """Event yielding the next authenticated EndpointHandle."""
        return self.endpoints.get()

    def stop(self) -> None:
        if self._accept_proc is not None:
            self._accept_proc.kill()
        if self._listener is not None:
            self._listener.close()
