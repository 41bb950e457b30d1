"""Experiment controller: the brain of every PacketLab experiment.

"All experiment logic is located on the experiment controller so that the
measurement endpoint interface can remain simple and universal" (§3.1).

A :class:`ControllerServer` listens for incoming endpoint connections
(endpoints contact controllers, per §3.2), authenticates each with the
experiment's descriptor and certificate chain, and hands experiment code an
:class:`EndpointHandle` — the controller-side API mirroring Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Generator, Optional, Union

from repro.filtervm.program import FilterProgram
from repro.netsim.kernel import Event, Queue
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpError
from repro.proto.constants import (
    ERR_MONITOR_REJECTED,
    PROTOCOL_VERSION,
    SOCK_RAW,
    SOCK_TCP,
    SOCK_UDP,
    ST_OK,
    STATUS_NAMES,
)
from repro.proto.framing import PAUSE, MessageStream, UndecodableFrame
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
# Under a SessionBudget, the protocol violations and undecodable frames a
# session may show before the handle severs it, and the unconsumed
# streamed records it may hold.
MAX_VIOLATIONS = 8
MAX_DECODE_ERRORS = 4
MAX_STREAMED_RECORDS = 4096


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
    budget bounds what the whole session may cost the controller.  When
    any cap trips, the handle severs the session and surfaces a typed
    :class:`MisbehaviorError` to all callers instead of hanging or
    buffering without bound.

    Armed, a budget caps the session at :data:`MAX_VIOLATIONS` protocol
    violations, :data:`MAX_DECODE_ERRORS` undecodable frames and
    :data:`MAX_STREAMED_RECORDS` unconsumed streamed records.
    Unconsumed streamed capture is always capped at the session's
    negotiated ``AuthOk.buffer_limit``: an endpoint may never push more
    than its own advertised buffer.  ``max_pending_age`` (``None``: no
    cap) is slowloris detection beyond the per-RPC timeout: the oldest
    unanswered reqid may not stay pending longer than this, no matter
    how many fresh RPCs keep succeeding.
    """

    max_pending_age: Optional[float] = None


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
    """A detached (``*_nowait``) command that later reported failure.

    Fire-and-forget commands have no caller waiting on their Result, so a
    non-OK status used to vanish in the frame handler. The handle now keeps
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
class SessionEvidence:
    """What sessions leave behind for campaign rollups and pool scoring:
    one record, so it is summed once (``+``, across the sessions a
    ResilientHandle adopts) and harvested once, not kind by kind."""

    deferred_errors: list = field(default_factory=list)  # DeferredError
    violations: list = field(default_factory=list)       # Violation
    budget_exhaustions: int = 0
    # Sessions that died with RPCs in flight and no farewell.
    abandons: int = 0
    # Commands that saw no matched response within rpc_timeout.
    rpc_timeouts: int = 0

    def __add__(self, other: "SessionEvidence") -> "SessionEvidence":
        return SessionEvidence(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))

    def count(self, kind: str) -> int:
        found = getattr(self, kind)
        return found if isinstance(found, int) else len(found)


def op_label(message_cls: type, fields: dict) -> str:
    """``nsend:3`` / ``npoll``: a command named with the socket it addresses."""
    name = message_cls.__name__.lower()
    return f"{name}:{fields['sktid']}" if "sktid" in fields else name


# What a blocked wait() is resumed with when rpc_timeout elapses first.
_TIMED_OUT = object()


@dataclass(eq=False, slots=True)
class PendingRequest:
    """One issued command: what issue(), _on_message and wait() share.

    ``event`` fires once — with the matched response (_on_message), with
    ``None`` when the session closes first, or with the timeout sentinel.
    A ``detached`` request has no waiter: its Result is consumed by
    _on_message, a non-OK one landing in ``deferred_errors``.
    """

    reqid: int
    op: str     # message name: the obs label
    label: str  # op_label(): names the socket too
    started: float
    event: Event
    detached: bool = False


@dataclass
class ExperimentIdentity:
    """What a controller presents to endpoints: descriptor + chains.

    One chain per endpoint operator who delegated access; endpoints
    accept whichever chain anchors in their own trust store.
    """

    descriptor_bytes: bytes
    chain_bytes_list: tuple[bytes, ...]
    priority: int = 0


class Table1Commands:
    """The named Table 1 commands, written once for every kind of handle.

    All command methods are generators: ``status = yield from
    handle.nopen_raw(0)`` inside a simulated process.  A handle supplies
    the request path underneath — ``call(message_cls, **fields)`` (a
    generator returning the matched response), ``issue(message_cls,
    **fields)`` (returns the :class:`PendingRequest` without waiting),
    ``closed`` and ``_obs`` — and inherits the rest.
    """

    # Verifier report from the most recent ncap the endpoint rejected
    # with ERR_MONITOR_REJECTED (None until that happens).
    last_verifier_report: Optional[str] = None

    def nopen(self, sktid: int, proto: int, locport: int = 0,
              remaddr: int = 0, remport: int = 0) -> Generator:
        response = yield from self.call(
            NOpen, sktid=sktid, proto=proto, locport=locport,
            remaddr=remaddr, remport=remport,
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
        return (yield from self.call(NClose, sktid=sktid)).status

    def close_quietly(self, sktid: int) -> Generator:
        """An experiment's epilogue: close its socket if the session is
        still up; the result already in hand outlives a failure here."""
        try:
            if not self.closed:
                yield from self.nclose(sktid)
        except RECOVERABLE:
            pass

    def nsend(self, sktid: int, time_ticks: int, data: bytes) -> Generator:
        response = yield from self.call(
            NSend, sktid=sktid, time=time_ticks, data=data
        )
        return response.status

    def nsend_nowait(self, sktid: int, time_ticks: int, data: bytes) -> None:
        """Pipelined nsend: issue the command and detach from its Result.

        Used when streaming many sends back-to-back; there is no response
        to retry on, so it is best effort on whichever session is current.
        """
        if self._obs.enabled:
            self._obs.counter("controller.rpcs_pipelined").inc()
        pending = self.issue(NSend, sktid=sktid, time=time_ticks, data=data)
        pending.detached = True

    def ncap(self, sktid: int, time_ticks: int,
             filt: Union[FilterProgram, bytes]) -> Generator:
        program = filt.encode() if isinstance(filt, FilterProgram) else filt
        response = yield from self.call(
            NCap, sktid=sktid, time=time_ticks, filt=program
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
        response = yield from self.call(NPoll, time=time_ticks)
        if not isinstance(response, PollData):
            raise CommandError("npoll", getattr(response, "status", -1))
        return response

    def mread(self, memaddr: int, bytecnt: int) -> Generator:
        response = yield from self.call(MRead, memaddr=memaddr, bytecnt=bytecnt)
        if response.status != ST_OK:
            raise CommandError("mread", response.status)
        return response.payload

    def mwrite(self, memaddr: int, data: bytes) -> Generator:
        return (yield from self.call(MWrite, memaddr=memaddr, data=data)).status

    def read_clock(self) -> Generator:
        """Read the endpoint's 64-bit clock (ns ticks) via mread (§3.1)."""
        data = yield from self.mread(OFF_CLOCK, 8)
        return int.from_bytes(data, "big")

    def expect_ok(self, status: int, command: str) -> None:
        if status != ST_OK:
            raise CommandError(command, status)


class EndpointHandle(Table1Commands):
    """Controller-side view of one endpoint session (Table 1 API).

    Every command leaves through :meth:`issue` and is collected by
    :meth:`wait`; ``call`` is the two back to back.
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
        # every wait() and raises RpcTimeout when it elapses.
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
        # reqid -> the one record of every command still owed a response.
        self._pending: dict[int, PendingRequest] = {}
        self._age_timer = None
        self._obs = node.sim.obs
        self.closed = False
        self.interrupted = False
        self.end_reason: Optional[str] = None
        self._interruption_events: list[Event] = []
        self.notifications: list[Message] = []
        # Records pushed by a streaming-mode endpoint (reqid-0 PollData).
        self.streamed_records: list = []
        self._streamed_bytes = 0
        # Late failures of detached commands land here instead of being
        # dropped with the Result nobody awaits.
        self.deferred_errors: list[DeferredError] = []
        stream.listen(self._on_message, self._close_pending)

    # -- plumbing -------------------------------------------------------------

    @property
    def violations(self) -> list:
        """All protocol violations recorded on this session."""
        return self.machine.violations

    def evidence(self) -> SessionEvidence:
        return SessionEvidence(
            self.deferred_errors, self.machine.violations,
            self.budget_exhaustions, int(self.abandoned), self.rpc_timeouts,
        )

    def _on_message(self, message) -> Optional[bool]:
        """Handle one frame the stream pushed; False ends the session."""
        if isinstance(message, UndecodableFrame):
            # Frame boundary intact: count it, keep reading until the
            # decode budget runs out.
            self.decode_errors += 1
            self._note_violation(self.machine.record(V_DECODE_ERROR, str(message)))
            if (self.budget is not None
                    and self.decode_errors > MAX_DECODE_ERRORS):
                self._exhaust("decode-budget",
                              f"{self.decode_errors} undecodable frames")
            return self.misbehavior is None
        violation = self.machine.observe(message)
        if violation is not None:
            # Drop the illegal message; record (and maybe enforce).
            self._note_violation(violation)
            return self.misbehavior is None
        if isinstance(message, PollData) and message.reqid == 0:
            return self._accept_streamed(message)
        if isinstance(message, (Result, PollData)):
            # None if answered after its rpc_timeout: discarded.
            pending = self._pending.pop(message.reqid, None)
            status = getattr(message, "status", ST_OK)
            if pending is not None and not pending.detached:
                pending.event.fire(message)
            elif pending is not None and status != ST_OK:
                op = pending.label
                self.deferred_errors.append(DeferredError(op, status, self.sim.now))
                if self._obs.enabled:
                    self._obs.counter("rpc.deferred_errors", op=op).inc()
                    self._obs.emit("rpc", "deferred-error",
                                   endpoint=self.endpoint_name, op=op,
                                   status=status)
            return None
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
        return None

    def _note_violation(self, violation: Violation) -> None:
        """Account one recorded violation against obs and the budget."""
        if self._obs.enabled:
            self._obs.counter("proto.sequence_violations",
                              kind=violation.kind, side="controller").inc()
            self._obs.emit("proto", "sequence-violation",
                           endpoint=self.endpoint_name, kind=violation.kind,
                           message=violation.message, detail=violation.detail)
        if (self.budget is not None
                and len(self.machine.violations) > MAX_VIOLATIONS
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
        Returns False when the session should stop reading.
        """
        if not self.streamed_records:
            self._streamed_bytes = 0
        size = sum(
            len(record.data) + STREAM_RECORD_OVERHEAD
            for record in message.records
        )
        budget = self.budget
        limit_bytes = self.buffer_limit or None
        over = (
            (limit_bytes is not None
             and self._streamed_bytes + size > limit_bytes)
            or (budget is not None
                and len(self.streamed_records) + len(message.records)
                > MAX_STREAMED_RECORDS)
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
        # stream stops on the reset.
        self.stream.conn.abort()
        self._close_pending()

    # -- pending-age watchdog -------------------------------------------------

    def _oldest_awaited(self) -> Optional[float]:
        """Issue time of the oldest command somebody may be blocked on."""
        return min((pending.started for pending in self._pending.values()
                    if not pending.detached), default=None)

    def _arm_age_timer(self) -> None:
        budget = self.budget
        if (budget is None or budget.max_pending_age is None
                or self._age_timer is not None or self.closed):
            return
        oldest = self._oldest_awaited()
        if oldest is None:
            return
        delay = max(0.0, oldest + budget.max_pending_age - self.sim.now)
        self._age_timer = self.sim.schedule(delay, self._check_pending_age)

    def _check_pending_age(self) -> None:
        self._age_timer = None
        budget = self.budget
        if budget is None or budget.max_pending_age is None or self.closed:
            return
        oldest = self._oldest_awaited()
        if oldest is None:
            return  # nothing awaited: stay disarmed until the next wait
        age = self.sim.now - oldest
        if age + 1e-9 >= budget.max_pending_age:
            self._exhaust("rpc-stalled",
                          f"oldest RPC pending {age:g}s")
            return
        self._arm_age_timer()

    def _send(self, message: Message) -> None:
        """Send one frame unless closed; a dead connection closes us."""
        if self.closed:
            return
        try:
            self.stream.send(message)
        except TcpError:
            self._close_pending()

    def _close_pending(self) -> None:
        self.stream.abort_if_broken()
        was_closed = self.closed
        self.closed = True
        # Detached requests have no waiter to release and, as ever, are
        # no evidence of an abandon.
        pending = [record for record in self._pending.values()
                   if not record.detached]
        self._pending = {}
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
        for record in pending:
            record.event.fire(None)
        # The peer's FIN (or a dead transport) ends the session: close
        # our end too, or it idles in CLOSE_WAIT and the peer's in
        # FIN_WAIT_2. A no-op on a connection already closed or aborted.
        self.stream.conn.close()

    def _reqid(self) -> int:
        reqid = self._next_reqid
        self._next_reqid += 1
        return reqid

    # -- the request path -----------------------------------------------------

    def issue(self, message_cls: type, **fields) -> PendingRequest:
        """Put one command on the wire without waiting for its response.

        The only place a command frame is built: the reqid is allocated,
        noted in the state machine and registered in ``_pending`` before
        the frame is sent.  On a closed session the reqid is still
        consumed but nothing is registered or sent; :meth:`wait` raises,
        as it does when the send finds the connection dead.
        """
        reqid = self._reqid()
        pending = PendingRequest(
            reqid, message_cls.__name__.lower(), op_label(message_cls, fields),
            self.sim.now, self.sim.event(),
        )
        if not self.closed:
            self._pending[reqid] = pending
            self.machine.note_request(reqid)
            self._send(message_cls(reqid=reqid, **fields))
        return pending

    def wait(self, pending: PendingRequest) -> Generator:
        """Block until ``pending`` is answered; returns the response.

        A response that already arrived is returned without yielding.
        Raises :class:`SessionClosed` (or the stored
        :class:`MisbehaviorError`) when the session dies first and
        :class:`RpcTimeout` when ``rpc_timeout`` is set and elapses
        first, counted from issue (the reqid is abandoned; a late
        response is discarded by _on_message).
        """
        event = pending.event
        if event.fired:
            response = event.value
        elif self.closed:
            # _close_pending fired every registered record, so an unfired
            # one was issued after the session had closed.
            raise self.misbehavior or SessionClosed("endpoint session is closed")
        else:
            self._arm_age_timer()
            timer = None
            if self.rpc_timeout is not None:
                timer = self.sim.schedule_at(
                    max(self.sim.now, pending.started + self.rpc_timeout),
                    self._expire, pending,
                )
            response = yield event
            if timer is not None:
                timer.cancel()
        obs = self._obs
        if response is _TIMED_OUT:
            self.rpc_timeouts += 1
            if obs.enabled:
                obs.counter("rpc.timeouts", op=pending.op).inc()
                obs.emit("rpc", "timeout", endpoint=self.endpoint_name,
                         op=pending.op, reqid=pending.reqid,
                         timeout=self.rpc_timeout)
            raise RpcTimeout(pending.op, self.rpc_timeout)
        if response is None:
            raise self.misbehavior or SessionClosed(
                "endpoint session ended mid-command"
            )
        if obs.enabled:
            obs.counter("controller.rpcs", op=pending.op).inc()
            obs.histogram("controller.rpc_rtt_s").observe(
                self.sim.now - pending.started
            )
        return response

    def _expire(self, pending: PendingRequest) -> None:
        """rpc_timeout elapsed: abandon the reqid and wake the waiter."""
        if self._pending.pop(pending.reqid, None) is pending:
            pending.event.fire(_TIMED_OUT)

    def call(self, message_cls: type, **fields) -> Generator:
        # Not a generator itself: a blocked command is one frame deep.
        return self.wait(self.issue(message_cls, **fields))

    def wait_resumed(self) -> Generator:
        """Block until an interruption ends (§3.3)."""
        if not self.interrupted:
            return None
        event = self.sim.event(name="wait-resumed")
        self._interruption_events.append(event)
        yield event
        return None

    def yield_control(self) -> None:
        self._send(Yield())

    def bye(self) -> None:
        self._send(Bye())


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

    def start(self) -> "ControllerServer":
        self._listener = self.node.tcp.listen(self.port)
        self._listener.accept().then(self._on_accept)
        return self

    def _on_accept(self, conn) -> None:
        if self._listener is None:
            return  # handed over as stop() ran: nobody serves it
        _Handshake(self, MessageStream(conn))
        self._listener.accept().then(self._on_accept)

    def wait_endpoint(self) -> Event:
        """Event yielding the next authenticated EndpointHandle."""
        return self.endpoints.get()

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None


class _Handshake:
    """One accepted dial, pushed by its stream: Hello in, Auth out, then
    AuthOk (the stream goes on to a new :class:`EndpointHandle`) or
    AuthFail in. Anything else closes the connection."""

    __slots__ = ("server", "stream", "machine", "hello")

    def __init__(self, server: ControllerServer, stream: MessageStream) -> None:
        self.server = server
        self.stream = stream
        self.machine = SessionStateMachine(ROLE_CONTROLLER)
        self.hello: Optional[Hello] = None
        stream.listen(self.on_message, self.on_close)

    def on_message(self, message) -> object:
        server, hello = self.server, self.hello
        if hello is None:
            if (not isinstance(message, Hello)
                    or self.machine.observe(message) is not None):
                return False
            if message.version != PROTOCOL_VERSION:
                server.auth_failures.append(
                    f"protocol version mismatch: endpoint speaks {message.version}"
                )
                return False
            self.hello = message
            identity = server.identity
            self.stream.send(Auth(descriptor=identity.descriptor_bytes,
                                  chains=identity.chain_bytes_list,
                                  priority=identity.priority))
            return None
        if (isinstance(message, UndecodableFrame)
                or self.machine.observe(message) is not None):
            # e.g. a Result before any auth response: reject the session
            # outright rather than adopting a peer already off-script.
            return False
        if isinstance(message, AuthOk):
            server.endpoints.put(EndpointHandle(
                server.node, self.stream, hello, message.session_id,
                message.buffer_limit, rpc_timeout=server.rpc_timeout,
                budget=server.budget, machine=self.machine,
            ))
            return PAUSE  # the handle listens from here on
        if isinstance(message, AuthFail):
            server.auth_failures.append(message.reason)
            if message.code == ERR_MONITOR_REJECTED:
                server.monitor_rejections.append(message.report or message.reason)
            if server.on_auth_fail is not None:
                server.on_auth_fail(hello.endpoint_name, message.reason)
        return False

    def on_close(self) -> None:
        self.stream.abort_if_broken()
        self.stream.conn.close()
