"""Protocol state-machine enforcer: message legality *in sequence*.

Every PacketLab message is self-describing, so the codec layer
(``framing.py``/``messages.py``) can only reject malformed bytes.  A
byzantine peer speaks perfectly well-formed messages in an illegal
*order*: a Result for a reqid the controller never issued, a duplicate
AuthOk, traffic after SessionEnd.  :class:`SessionStateMachine` is the
shared sequencing judge — the controller instantiates one per session to
validate endpoint→controller traffic, the endpoint instantiates the
mirror role to validate controller→endpoint traffic.

The machine is pure (no sim dependencies): feed it each received message
via :meth:`observe` and it either returns ``None`` (legal) or a
:class:`Violation` describing the offence.  It never blocks and never
raises in the default lenient mode, which is what makes "any
interleaving either completes or yields a violation, never a hang" a
checkable property (see ``tests/test_proto_statemachine.py``).  Out-of-
band offences that are not a single message (decode failures, streaming
overflow, stalled RPCs) are folded into the same per-session record via
:meth:`record` so budget accounting sees one unified violation count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

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

# Roles: which direction of traffic this machine validates.
ROLE_CONTROLLER = "controller"  # validates endpoint → controller messages
ROLE_ENDPOINT = "endpoint"      # validates controller → endpoint messages

# Session phases.
PHASE_HANDSHAKE = "handshake"
PHASE_ESTABLISHED = "established"
PHASE_ENDED = "ended"

# Violation kinds (the vocabulary shared with budgets and pool scoring).
V_WRONG_DIRECTION = "wrong-direction"
V_BEFORE_AUTH = "before-auth"
V_DUPLICATE_HELLO = "duplicate-hello"
V_DUPLICATE_AUTH = "duplicate-auth"
V_UNSOLICITED_RESPONSE = "unsolicited-response"
V_DUPLICATE_RESPONSE = "duplicate-response"
V_REQID_REUSE = "reqid-reuse"
V_AFTER_END = "after-end"
V_BAD_INTERRUPT = "bad-interrupt"
V_BAD_RESUME = "bad-resume"
# Out-of-band kinds recorded by the transport/budget layers.
V_DECODE_ERROR = "decode-error"
V_STREAM_OVERFLOW = "stream-overflow"

# Commands only a controller may send (all carry a reqid).
_COMMANDS = (NOpen, NClose, NSend, NCap, NPoll, MRead, MWrite)
# Responses/notifications only an endpoint may send.
_RESPONSES = (Result, PollData, Interrupted, Resumed, SessionEnd)


@dataclass(frozen=True)
class Violation:
    """One recorded protocol offence."""

    kind: str
    message: str  # offending message type name ("" for out-of-band kinds)
    detail: str = ""

    def __str__(self) -> str:
        head = f"{self.kind}({self.message})" if self.message else self.kind
        return f"{head}: {self.detail}" if self.detail else head


class ProtocolViolation(Exception):
    """Raised by a strict-mode machine on the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class ReqidSet:
    """An exact set of reqids, stored as one run ``[lo, hi)`` plus the
    stragglers the run has not reached.

    A reqid next to the run extends it, and a straggler the run reaches
    is folded into it, so an honest session costs O(1) memory however
    many RPCs it carries. A reqid far from the run costs what it would
    in a plain set.
    """

    __slots__ = ("_lo", "_hi", "_stragglers")

    def __init__(self) -> None:
        self._lo = self._hi = 0  # empty until the first add
        self._stragglers: Optional[set] = None

    def __contains__(self, reqid: int) -> bool:
        return self._lo <= reqid < self._hi or (
            self._stragglers is not None and reqid in self._stragglers
        )

    def add(self, reqid: int) -> None:
        lo, hi = self._lo, self._hi
        if lo <= reqid < hi:
            return
        if lo == hi:  # the first reqid starts the run
            lo = hi = reqid
        if reqid == hi:
            hi += 1
        elif reqid == lo - 1:
            lo -= 1
        else:
            if self._stragglers is None:
                self._stragglers = set()
            self._stragglers.add(reqid)
            return
        stragglers = self._stragglers
        while stragglers and hi in stragglers:
            stragglers.remove(hi)
            hi += 1
        while stragglers and lo - 1 in stragglers:
            stragglers.remove(lo - 1)
            lo -= 1
        self._lo, self._hi = lo, hi


# The machine's own state: not a constructor argument, not in repr or ==.
_state = partial(field, init=False, repr=False, compare=False)


@dataclass(slots=True)
class SessionStateMachine:
    """Validates one session's inbound message sequence for one role.

    ``role`` selects which direction is legal: a ``ROLE_CONTROLLER``
    machine expects endpoint-originated traffic (Hello/AuthOk/Result/
    PollData/...), a ``ROLE_ENDPOINT`` machine expects controller-
    originated traffic (Auth/commands/Bye).  ``start_established`` skips
    the handshake phase for machines attached after authentication.
    """

    role: str
    strict: bool = False
    start_established: bool = False
    phase: str = field(init=False, default=PHASE_HANDSHAKE)
    violations: list = field(init=False, default_factory=list)
    # Controller side: reqids whose response is still legal (issued, not
    # yet answered). A reqid ever issued but no longer in it has been
    # answered, so no set of answered reqids is kept.
    _issued: set = _state(default_factory=set)
    # Controller side: every reqid issued. Endpoint side: every reqid
    # seen on an inbound command.
    _reqids: ReqidSet = _state(default_factory=ReqidSet)
    _interrupted: bool = _state(default=False)
    _saw_hello: bool = _state(default=False)
    _saw_auth: bool = _state(default=False)

    def __post_init__(self) -> None:
        if self.role not in (ROLE_CONTROLLER, ROLE_ENDPOINT):
            raise ValueError(f"unknown role: {self.role!r}")
        if self.start_established:
            self.phase = PHASE_ESTABLISHED
        self._saw_hello = self.start_established
        self._saw_auth = self.start_established

    # -- controller bookkeeping ---------------------------------------------

    def note_request(self, reqid: int) -> None:
        """Controller role: register a reqid we issued, so the matching
        Result/PollData is legal (even if it arrives after our timeout)."""
        self._issued.add(reqid)
        self._reqids.add(reqid)

    # -- validation ----------------------------------------------------------

    def observe(self, message: Message) -> Optional[Violation]:
        """Judge one received message; None if legal in sequence."""
        if self.role == ROLE_CONTROLLER:
            violation = self._observe_from_endpoint(message)
        else:
            violation = self._observe_from_controller(message)
        if violation is not None:
            self.violations.append(violation)
            if self.strict:
                raise ProtocolViolation(violation)
        return violation

    def record(self, kind: str, detail: str = "") -> Violation:
        """Record an out-of-band offence (decode error, overflow, ...)."""
        violation = Violation(kind, "", detail)
        self.violations.append(violation)
        if self.strict:
            raise ProtocolViolation(violation)
        return violation

    @property
    def ended(self) -> bool:
        return self.phase == PHASE_ENDED

    # -- controller role: endpoint → controller traffic ----------------------

    def _observe_from_endpoint(self, message: Message) -> Optional[Violation]:
        name = type(message).__name__
        if self.phase == PHASE_ENDED:
            return Violation(V_AFTER_END, name, "traffic after session end")
        if isinstance(message, (Auth, Bye, Yield) + _COMMANDS):
            return Violation(
                V_WRONG_DIRECTION, name, "controller-only message from endpoint"
            )
        if self.phase == PHASE_HANDSHAKE:
            return self._observe_handshake_from_endpoint(message, name)
        # Established.
        if isinstance(message, Hello):
            return Violation(V_DUPLICATE_HELLO, name, "Hello after handshake")
        if isinstance(message, (AuthOk, AuthFail)):
            return Violation(V_DUPLICATE_AUTH, name, "auth response repeated")
        if isinstance(message, PollData) and message.reqid == 0:
            return None  # streaming mode; volume is the budget layer's job
        if isinstance(message, (Result, PollData)):
            reqid = message.reqid
            if reqid in self._issued:
                self._issued.discard(reqid)
                return None
            if reqid in self._reqids:
                return Violation(
                    V_DUPLICATE_RESPONSE, name, f"reqid {reqid} already answered"
                )
            return Violation(
                V_UNSOLICITED_RESPONSE, name, f"reqid {reqid} never issued"
            )
        if isinstance(message, Interrupted):
            if self._interrupted:
                return Violation(V_BAD_INTERRUPT, name, "already interrupted")
            self._interrupted = True
            return None
        if isinstance(message, Resumed):
            if not self._interrupted:
                return Violation(V_BAD_RESUME, name, "Resumed while not interrupted")
            self._interrupted = False
            return None
        if isinstance(message, SessionEnd):
            self.phase = PHASE_ENDED
            return None
        return Violation(V_WRONG_DIRECTION, name, "unexpected on a session")

    def _observe_handshake_from_endpoint(
        self, message: Message, name: str
    ) -> Optional[Violation]:
        if isinstance(message, Hello):
            if self._saw_hello:
                return Violation(V_DUPLICATE_HELLO, name, "second Hello")
            self._saw_hello = True
            return None
        if isinstance(message, (AuthOk, AuthFail)):
            if not self._saw_hello:
                return Violation(V_BEFORE_AUTH, name, "auth response before Hello")
            if self._saw_auth:
                return Violation(V_DUPLICATE_AUTH, name, "auth response repeated")
            self._saw_auth = True
            if isinstance(message, AuthOk):
                self.phase = PHASE_ESTABLISHED
            else:
                self.phase = PHASE_ENDED
            return None
        return Violation(V_BEFORE_AUTH, name, "session traffic before auth")

    # -- endpoint role: controller → endpoint traffic ------------------------

    def _observe_from_controller(self, message: Message) -> Optional[Violation]:
        name = type(message).__name__
        if self.phase == PHASE_ENDED:
            return Violation(V_AFTER_END, name, "traffic after Bye")
        if isinstance(message, (Hello, AuthOk, AuthFail) + _RESPONSES):
            return Violation(
                V_WRONG_DIRECTION, name, "endpoint-only message from controller"
            )
        if self.phase == PHASE_HANDSHAKE:
            if isinstance(message, Auth):
                self._saw_auth = True
                self.phase = PHASE_ESTABLISHED
                return None
            return Violation(V_BEFORE_AUTH, name, "command before Auth")
        # Established.
        if isinstance(message, Auth):
            return Violation(V_DUPLICATE_AUTH, name, "second Auth")
        if isinstance(message, _COMMANDS):
            reqid = message.reqid
            if reqid in self._reqids:
                return Violation(V_REQID_REUSE, name, f"reqid {reqid} reused")
            self._reqids.add(reqid)
            return None
        if isinstance(message, Yield):
            return None
        if isinstance(message, Bye):
            self.phase = PHASE_ENDED
            return None
        return Violation(V_WRONG_DIRECTION, name, "unexpected on a session")
