"""Sequence-violation corpus for the shared protocol state machine.

The codec layer rejects malformed bytes; :class:`SessionStateMachine`
rejects well-formed messages in an illegal *order*.  These tests pin the
full violation vocabulary for both roles, then use hypothesis to check
the liveness property that makes the machine safe to run inline on hot
paths: ``observe`` never raises in lenient mode, never blocks, and
accumulates at most one violation per message.
"""

from hypothesis import given, settings, strategies as st

import pytest

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
    Result,
    Resumed,
    SessionEnd,
    Yield,
)
from repro.proto.statemachine import (
    PHASE_ENDED,
    PHASE_ESTABLISHED,
    PHASE_HANDSHAKE,
    ROLE_CONTROLLER,
    ROLE_ENDPOINT,
    ProtocolViolation,
    ReqidSet,
    SessionStateMachine,
    V_AFTER_END,
    V_BAD_INTERRUPT,
    V_BAD_RESUME,
    V_BEFORE_AUTH,
    V_DECODE_ERROR,
    V_DUPLICATE_AUTH,
    V_DUPLICATE_HELLO,
    V_DUPLICATE_RESPONSE,
    V_REQID_REUSE,
    V_STREAM_OVERFLOW,
    V_UNSOLICITED_RESPONSE,
    V_WRONG_DIRECTION,
    Violation,
)


def controller_machine(established: bool = True) -> SessionStateMachine:
    return SessionStateMachine(ROLE_CONTROLLER, start_established=established)


def endpoint_machine(established: bool = True) -> SessionStateMachine:
    return SessionStateMachine(ROLE_ENDPOINT, start_established=established)


# ---------------------------------------------------------------------------
# Construction and bookkeeping basics.
# ---------------------------------------------------------------------------


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        SessionStateMachine("router")


def test_start_established_skips_handshake():
    sm = controller_machine(established=True)
    assert sm.phase == PHASE_ESTABLISHED
    sm = controller_machine(established=False)
    assert sm.phase == PHASE_HANDSHAKE


def test_violation_str_forms():
    with_msg = Violation(V_AFTER_END, "Result", "traffic after session end")
    assert "after-end" in str(with_msg)
    assert "Result" in str(with_msg)
    out_of_band = Violation(V_DECODE_ERROR, "")
    assert str(out_of_band) == V_DECODE_ERROR


# ---------------------------------------------------------------------------
# Controller role: endpoint → controller traffic.
# ---------------------------------------------------------------------------


def test_happy_handshake_then_result():
    sm = controller_machine(established=False)
    assert sm.observe(Hello(endpoint_name="ep0")) is None
    assert sm.observe(AuthOk(session_id=1)) is None
    assert sm.phase == PHASE_ESTABLISHED
    sm.note_request(7)
    assert sm.observe(Result(reqid=7, status=0)) is None
    assert sm.violations == []


def test_authfail_ends_session():
    sm = controller_machine(established=False)
    assert sm.observe(Hello()) is None
    assert sm.observe(AuthFail(reason="policy")) is None
    assert sm.phase == PHASE_ENDED
    v = sm.observe(Result(reqid=1))
    assert v is not None and v.kind == V_AFTER_END


def test_result_before_auth():
    sm = controller_machine(established=False)
    v = sm.observe(Result(reqid=1))
    assert v is not None and v.kind == V_BEFORE_AUTH


def test_auth_response_before_hello():
    sm = controller_machine(established=False)
    v = sm.observe(AuthOk())
    assert v is not None and v.kind == V_BEFORE_AUTH


def test_duplicate_hello_both_phases():
    sm = controller_machine(established=False)
    assert sm.observe(Hello()) is None
    assert sm.observe(Hello()).kind == V_DUPLICATE_HELLO
    assert sm.observe(AuthOk()) is None
    assert sm.observe(Hello()).kind == V_DUPLICATE_HELLO


def test_duplicate_authok():
    sm = controller_machine(established=False)
    sm.observe(Hello())
    assert sm.observe(AuthOk()) is None
    assert sm.observe(AuthOk()).kind == V_DUPLICATE_AUTH


def test_unsolicited_result():
    sm = controller_machine()
    v = sm.observe(Result(reqid=99))
    assert v is not None and v.kind == V_UNSOLICITED_RESPONSE


def test_duplicate_result_for_one_reqid():
    sm = controller_machine()
    sm.note_request(5)
    assert sm.observe(Result(reqid=5)) is None
    v = sm.observe(Result(reqid=5))
    assert v is not None and v.kind == V_DUPLICATE_RESPONSE


def test_late_result_after_timeout_is_legal():
    # note_request registers the reqid; the matching response stays legal
    # no matter how late it arrives, so RPC timeouts don't convert a slow
    # honest endpoint into a protocol offender.
    sm = controller_machine()
    sm.note_request(11)
    assert sm.observe(Interrupted()) is None
    assert sm.observe(Resumed()) is None
    assert sm.observe(Result(reqid=11)) is None


def test_streaming_polldata_reqid0_always_legal():
    sm = controller_machine()
    record = CaptureRecord(sktid=1, timestamp=0, data=b"x")
    for _ in range(3):
        assert sm.observe(PollData(reqid=0, records=(record,))) is None
    assert sm.violations == []


def test_solicited_polldata_consumes_reqid():
    sm = controller_machine()
    sm.note_request(3)
    assert sm.observe(PollData(reqid=3)) is None
    assert sm.observe(PollData(reqid=3)).kind == V_DUPLICATE_RESPONSE


def test_interrupt_resume_pairing():
    sm = controller_machine()
    assert sm.observe(Resumed()).kind == V_BAD_RESUME
    assert sm.observe(Interrupted()) is None
    assert sm.observe(Interrupted()).kind == V_BAD_INTERRUPT
    assert sm.observe(Resumed()) is None
    assert sm.observe(Resumed()).kind == V_BAD_RESUME


def test_controller_only_messages_rejected_from_endpoint():
    sm = controller_machine()
    for msg in (
        Auth(),
        Bye(),
        Yield(),
        NOpen(reqid=1),
        NClose(reqid=2),
        NSend(reqid=3),
        NCap(reqid=4),
        NPoll(reqid=5),
        MRead(reqid=6),
        MWrite(reqid=7),
    ):
        v = sm.observe(msg)
        assert v is not None and v.kind == V_WRONG_DIRECTION, type(msg).__name__


def test_session_end_then_silence_expected():
    sm = controller_machine()
    assert sm.observe(SessionEnd(reason="done")) is None
    assert sm.ended
    v = sm.observe(PollData(reqid=0))
    assert v is not None and v.kind == V_AFTER_END


# ---------------------------------------------------------------------------
# Endpoint role: controller → endpoint traffic.
# ---------------------------------------------------------------------------


def test_command_before_auth():
    sm = endpoint_machine(established=False)
    v = sm.observe(NOpen(reqid=1))
    assert v is not None and v.kind == V_BEFORE_AUTH
    assert sm.observe(Auth()) is None
    assert sm.phase == PHASE_ESTABLISHED


def test_duplicate_auth_from_controller():
    sm = endpoint_machine(established=False)
    assert sm.observe(Auth()) is None
    assert sm.observe(Auth()).kind == V_DUPLICATE_AUTH


def test_reqid_reuse_detected():
    sm = endpoint_machine()
    assert sm.observe(NOpen(reqid=8)) is None
    v = sm.observe(NSend(reqid=8))
    assert v is not None and v.kind == V_REQID_REUSE
    # A fresh reqid is fine again afterwards.
    assert sm.observe(NSend(reqid=9)) is None


def test_endpoint_only_messages_rejected_from_controller():
    sm = endpoint_machine()
    for msg in (Hello(), AuthOk(), AuthFail(), Result(), PollData(), Interrupted(), Resumed(), SessionEnd()):
        v = sm.observe(msg)
        assert v is not None and v.kind == V_WRONG_DIRECTION, type(msg).__name__


def test_yield_legal_when_established():
    sm = endpoint_machine()
    assert sm.observe(Yield()) is None


def test_bye_ends_then_commands_rejected():
    sm = endpoint_machine()
    assert sm.observe(Bye()) is None
    assert sm.ended
    v = sm.observe(NPoll(reqid=1))
    assert v is not None and v.kind == V_AFTER_END


# ---------------------------------------------------------------------------
# Out-of-band recording and strict mode.
# ---------------------------------------------------------------------------


def test_record_out_of_band_kinds():
    sm = controller_machine()
    v1 = sm.record(V_DECODE_ERROR, "short frame")
    v2 = sm.record(V_STREAM_OVERFLOW, "buffer_limit exceeded")
    assert [v.kind for v in sm.violations] == [V_DECODE_ERROR, V_STREAM_OVERFLOW]
    assert v1.message == "" and v2.message == ""


def test_strict_mode_raises_on_observe():
    sm = SessionStateMachine(ROLE_CONTROLLER, strict=True, start_established=True)
    with pytest.raises(ProtocolViolation) as exc:
        sm.observe(Result(reqid=404))
    assert exc.value.violation.kind == V_UNSOLICITED_RESPONSE
    # The violation is still recorded before the raise.
    assert len(sm.violations) == 1


def test_strict_mode_raises_on_record():
    sm = SessionStateMachine(ROLE_ENDPOINT, strict=True, start_established=True)
    with pytest.raises(ProtocolViolation):
        sm.record(V_DECODE_ERROR, "garbage")


# ---------------------------------------------------------------------------
# Property: any interleaving either passes or yields a violation — never a
# raise (lenient mode), never a hang, never more than one violation per
# message.  This is what lets sessions run the machine inline on every
# received frame without a byzantine peer weaponising the judge itself.
# ---------------------------------------------------------------------------

_SMALL_INT = st.integers(min_value=0, max_value=5)
_ANY_MESSAGE = st.one_of(
    st.builds(Hello),
    st.builds(Auth),
    st.builds(AuthOk),
    st.builds(AuthFail),
    st.builds(NOpen, reqid=_SMALL_INT),
    st.builds(NClose, reqid=_SMALL_INT),
    st.builds(NSend, reqid=_SMALL_INT),
    st.builds(NCap, reqid=_SMALL_INT),
    st.builds(NPoll, reqid=_SMALL_INT),
    st.builds(MRead, reqid=_SMALL_INT),
    st.builds(MWrite, reqid=_SMALL_INT),
    st.builds(Result, reqid=_SMALL_INT),
    st.builds(PollData, reqid=_SMALL_INT),
    st.builds(Interrupted),
    st.builds(Resumed),
    st.builds(SessionEnd),
    st.builds(Yield),
    st.builds(Bye),
)


@settings(max_examples=200, deadline=None)
@given(
    role=st.sampled_from([ROLE_CONTROLLER, ROLE_ENDPOINT]),
    established=st.booleans(),
    issued=st.sets(_SMALL_INT, max_size=4),
    sequence=st.lists(_ANY_MESSAGE, max_size=30),
)
def test_lenient_observe_never_raises(role, established, issued, sequence):
    sm = SessionStateMachine(role, start_established=established)
    for reqid in issued:
        sm.note_request(reqid)
    for i, message in enumerate(sequence):
        before = len(sm.violations)
        verdict = sm.observe(message)  # must not raise
        after = len(sm.violations)
        # At most one violation per message, and observe's return value
        # agrees with the ledger.
        assert after - before in (0, 1)
        assert (verdict is None) == (after == before)
        if verdict is not None:
            assert sm.violations[-1] is verdict
    assert sm.phase in (PHASE_HANDSHAKE, PHASE_ESTABLISHED, PHASE_ENDED)


@settings(max_examples=100, deadline=None)
@given(sequence=st.lists(_ANY_MESSAGE, max_size=30))
def test_after_end_everything_is_a_violation(sequence):
    sm = controller_machine()
    assert sm.observe(SessionEnd()) is None
    for message in sequence:
        v = sm.observe(message)
        assert v is not None and v.kind == V_AFTER_END


# ---------------------------------------------------------------------------
# Reqids are stored as one run plus stragglers; the verdicts must be the
# ones plain sets give, for any reqid sequence.
# ---------------------------------------------------------------------------


class _PlainSetJudge:
    """The reqid rules kept in plain sets, as the machine once kept them."""

    def __init__(self) -> None:
        self.issued, self.answered, self.seen = set(), set(), set()

    def response(self, reqid):
        if reqid in self.issued:
            self.issued.discard(reqid)
            self.answered.add(reqid)
            return None
        if reqid in self.answered:
            return V_DUPLICATE_RESPONSE
        return V_UNSOLICITED_RESPONSE

    def command(self, reqid):
        if reqid in self.seen:
            return V_REQID_REUSE
        self.seen.add(reqid)
        return None


@st.composite
def _reqid_ops(draw, kinds):
    """(kind, reqid) steps an honest peer makes: reqids issued in order,
    answered in any order or never (a timeout); mixed with strays that
    reuse, repeat or invent a reqid."""
    next_reqid = draw(st.integers(0, 3))
    outstanding, ops = [], []
    for _ in range(draw(st.integers(0, 40))):
        step = draw(st.sampled_from(["issue", "issue", "answer", "answer",
                                     "stray"]))
        if step == "issue":
            ops.append(("issue", next_reqid))
            outstanding.append(next_reqid)
            next_reqid += 1
        elif step == "answer" and outstanding:
            index = draw(st.integers(0, len(outstanding) - 1))
            ops.append((draw(st.sampled_from(kinds)), outstanding.pop(index)))
        else:
            ops.append((draw(st.sampled_from(("issue",) + kinds)),
                        draw(st.integers(0, next_reqid + 2))))
    return ops


def _kind(violation):
    return None if violation is None else violation.kind


@settings(max_examples=300, deadline=None)
@given(ops=_reqid_ops(("result", "polldata")))
def test_controller_reqid_verdicts_match_plain_sets(ops):
    sm, judge = controller_machine(), _PlainSetJudge()
    for kind, reqid in ops:
        if kind == "issue":
            sm.note_request(reqid)
            judge.issued.add(reqid)
            continue
        message = (Result(reqid=reqid) if kind == "result"
                   else PollData(reqid=reqid))
        expected = (None if kind == "polldata" and reqid == 0
                    else judge.response(reqid))
        assert _kind(sm.observe(message)) == expected, (kind, reqid)


@settings(max_examples=300, deadline=None)
@given(ops=_reqid_ops(("mread", "nsend")))
def test_endpoint_reqid_verdicts_match_plain_sets(ops):
    # The endpoint sees commands only: every step is one, whatever the
    # controller meant by it.
    sm, judge = endpoint_machine(), _PlainSetJudge()
    for kind, reqid in ops:
        message = (NSend(reqid=reqid) if kind == "nsend"
                   else MRead(reqid=reqid))
        assert _kind(sm.observe(message)) == judge.command(reqid), reqid


def test_in_order_reqids_keep_no_stragglers():
    """An honest session's reqids cost the same memory after 2 000 RPCs
    as after one, whether they arrive in order or a few out of order."""
    controller, endpoint = controller_machine(), endpoint_machine()
    for low in range(1, 2001, 4):  # each four issued in order ...
        for reqid in range(low, low + 4):
            controller.note_request(reqid)
        for reqid in range(low + 3, low - 1, -1):  # ... met last first
            assert endpoint.observe(MRead(reqid=reqid)) is None
            assert controller.observe(Result(reqid=reqid)) is None
    assert controller.violations == endpoint.violations == []
    assert not controller._issued
    for machine in (controller, endpoint):
        assert not machine._reqids._stragglers
    assert controller.observe(Result(reqid=7)).kind == V_DUPLICATE_RESPONSE
    assert endpoint.observe(MRead(reqid=7)).kind == V_REQID_REUSE


@pytest.mark.parametrize("order", [
    list(range(1, 101)),
    list(range(100, 0, -1)),
    [10, 13, 12, 11],
    [10, 7, 8, 9],
], ids=["in-order", "last-first", "gap-from-below", "gap-from-above"])
def test_a_contiguous_set_of_reqids_leaves_no_stragglers(order):
    reqids = ReqidSet()
    for reqid in order:
        reqids.add(reqid)
    assert not reqids._stragglers
    span = range(min(order) - 2, max(order) + 3)
    assert [reqid for reqid in span if reqid in reqids] == sorted(order)
