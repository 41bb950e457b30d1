"""PacketLab wire messages.

Each message is one decorated field table: ``@message(TYPE)`` over fields
that each name their codec once with :func:`wire`, in wire order. Encoder,
decoder and registration are derived from that table, so there is nothing
to keep in step. The endpoint commands mirror Table 1 exactly (``nopen``,
``nclose``, ``nsend``, ``ncap``, ``npoll``, ``mread``, ``mwrite``); the
rest is session management (hello/auth), contention notifications (§3.3),
and the rendezvous protocol (§3.2).

Times on the wire are **endpoint-local 64-bit nanosecond ticks**, exactly
as the paper specifies: the endpoint never interprets controller wall time.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, ClassVar, Type, TypeVar

from repro.util.byteio import ByteReader, ByteWriter, DecodeError

_T = TypeVar("_T", bound=type)
_REGISTRY: dict[int, Type["Message"]] = {}


def wire(codec: Any, default: Any = MISSING) -> Any:
    """A dataclass field that travels as ``codec``.

    ``codec`` names a :class:`ByteWriter`/:class:`ByteReader` method pair
    (``"u32"``, ``"bytes_u16"``, ...). A pair ``(count, item)`` is a counted
    tuple: a ``count`` codec, then that many items, each a codec name or a
    :func:`record` class.
    """
    return field(default=default, metadata={"wire": codec})


def record(cls: _T) -> _T:
    """Make ``cls`` a frozen dataclass whose field table is its wire format.

    ``encode_body``/``decode_body`` are compiled here, once per class, from
    the fields' codecs in declaration order (the way ``dataclasses`` builds
    ``__init__``; interpreting the table per call measurably slowed every
    RPC). The generated code only calls ``ByteWriter``/``ByteReader``, so
    range and underrun checks stay where they are.
    """
    cls = dataclass(frozen=True)(cls)
    scope: dict[str, Any] = {}

    def io(codec: Any, value: str) -> tuple[str, str]:
        """Source text that writes ``value`` as ``codec``, and that reads it."""
        if isinstance(codec, type):  # a nested record
            scope[codec.__name__] = codec
            return f"{value}.encode_body(writer)", f"{codec.__name__}.decode_body(reader)"
        if isinstance(codec, str) and hasattr(ByteWriter, codec) and hasattr(ByteReader, codec):
            return f"writer.{codec}({value})", f"reader.{codec}()"
        raise TypeError(f"{cls.__name__}: no wire codec {codec!r} for {value}")

    writes: list[str] = []
    reads: list[str] = []
    for spec in fields(cls):
        codec = spec.metadata.get("wire")
        if isinstance(codec, tuple):
            count, item = codec
            put_count, get_count = io(count, f"len(self.{spec.name})")
            put_item, get_item = io(item, "item")
            writes += [put_count, f"for item in self.{spec.name}: {put_item}"]
            reads.append(f"tuple([{get_item} for _ in range({get_count})])")
        else:
            put, get = io(codec, f"self.{spec.name}")
            writes.append(put)
            reads.append(get)
    source = (
        "def encode_body(self, writer):\n    " + "\n    ".join(writes or ["pass"])
        + "\ndef decode_body(cls, reader):\n    return cls(" + ", ".join(reads) + ")\n"
    )
    # compiled under this file's name so profilers attribute it to proto
    exec(compile(source, __file__, "exec"), scope)
    cls.encode_body = scope["encode_body"]
    cls.decode_body = classmethod(scope["decode_body"])
    return cls


def message(type_code: int) -> Callable[[_T], _T]:
    """Class decorator: a :func:`record` that ``decode_message`` accepts
    under the one-byte tag ``type_code`` (also readable as ``cls.TYPE``)."""

    def decorate(cls: _T) -> _T:
        if type_code in _REGISTRY:
            raise ValueError(f"duplicate message type {type_code}")
        cls = record(cls)
        cls.TYPE = type_code
        _REGISTRY[type_code] = cls
        return cls

    return decorate


@dataclass(frozen=True)
class Message:
    TYPE: ClassVar[int] = 0

    def encode(self) -> bytes:
        writer = ByteWriter()
        writer.u8(self.TYPE)
        self.encode_body(writer)  # built by @message from the field table
        return writer.getvalue()


def decode_message(data: bytes) -> Message:
    reader = ByteReader(data)
    msg_type = reader.u8()
    cls = _REGISTRY.get(msg_type)
    if cls is None:
        raise DecodeError(f"unknown message type {msg_type}")
    decoded = cls.decode_body(reader)
    reader.expect_end()
    return decoded


# ---------------------------------------------------------------------------
# Session establishment
# ---------------------------------------------------------------------------


@message(1)
class Hello(Message):
    """Endpoint -> controller, first message after connecting."""

    version: int = wire("u8", 1)
    caps: int = wire("u16", 0)
    endpoint_name: str = wire("str_u16", "")
    descriptor_hash: bytes = wire("bytes_u16", b"")  # which published experiment prompted this


@message(2)
class Auth(Message):
    """Controller -> endpoint: descriptor + certificate chains + priority.

    A controller may hold delegations from several endpoint operators and
    cannot know in advance which operator an incoming endpoint trusts, so
    it presents every chain; the endpoint accepts the experiment if *any*
    chain verifies against its trust store.
    """

    descriptor: bytes = wire("bytes_u32", b"")
    chains: tuple[bytes, ...] = wire(("u8", "bytes_u32"), ())
    priority: int = wire("u8", 0)


@message(3)
class AuthOk(Message):
    session_id: int = wire("u32", 0)
    buffer_limit: int = wire("u32", 0)  # effective capture buffer for this session


@message(4)
class AuthFail(Message):
    reason: str = wire("str_u16", "")
    # Machine-readable failure class (0 = generic auth failure,
    # ERR_MONITOR_REJECTED = a certificate monitor failed static
    # verification); ``report`` carries the full verifier report text.
    code: int = wire("u8", 0)
    report: str = wire("str_u16", "")


# ---------------------------------------------------------------------------
# Table 1 commands (controller -> endpoint), each with a request id
# ---------------------------------------------------------------------------


@message(10)
class NOpen(Message):
    reqid: int = wire("u32", 0)
    sktid: int = wire("u32", 0)
    proto: int = wire("u8", 0)  # SOCK_RAW / SOCK_TCP / SOCK_UDP
    locport: int = wire("u16", 0)
    remaddr: int = wire("u32", 0)
    remport: int = wire("u16", 0)


@message(11)
class NClose(Message):
    reqid: int = wire("u32", 0)
    sktid: int = wire("u32", 0)


@message(12)
class NSend(Message):
    """Queue data to be sent on a socket at a particular endpoint-local
    time (ticks). A time in the past means "send immediately" (§3.1)."""

    reqid: int = wire("u32", 0)
    sktid: int = wire("u32", 0)
    time: int = wire("u64", 0)  # endpoint-local ns ticks
    data: bytes = wire("bytes_u32", b"")


@message(13)
class NCap(Message):
    """Install a packet filter on a raw socket; capture until ``time``."""

    reqid: int = wire("u32", 0)
    sktid: int = wire("u32", 0)
    time: int = wire("u64", 0)  # endpoint-local ns ticks; capture deadline
    filt: bytes = wire("bytes_u32", b"")  # serialized FilterProgram


@message(14)
class NPoll(Message):
    """Poll for buffered network data; wait until ``time`` if none."""

    reqid: int = wire("u32", 0)
    time: int = wire("u64", 0)  # endpoint-local ns ticks


@message(15)
class MRead(Message):
    reqid: int = wire("u32", 0)
    memaddr: int = wire("u32", 0)
    bytecnt: int = wire("u32", 0)


@message(16)
class MWrite(Message):
    reqid: int = wire("u32", 0)
    memaddr: int = wire("u32", 0)
    data: bytes = wire("bytes_u32", b"")


# ---------------------------------------------------------------------------
# Responses (endpoint -> controller)
# ---------------------------------------------------------------------------


@message(20)
class Result(Message):
    reqid: int = wire("u32", 0)
    status: int = wire("u8", 0)
    payload: bytes = wire("bytes_u32", b"")


@record
class CaptureRecord:
    """One captured unit: a raw packet, a UDP datagram, or a TCP chunk."""

    sktid: int = wire("u32")
    timestamp: int = wire("u64")  # endpoint-local ns ticks at receipt
    data: bytes = wire("bytes_u32")


@message(21)
class PollData(Message):
    """Response to NPoll: buffered records plus drop accounting (§3.1)."""

    reqid: int = wire("u32", 0)
    dropped_packets: int = wire("u32", 0)
    dropped_bytes: int = wire("u64", 0)
    records: tuple[CaptureRecord, ...] = wire(("u32", CaptureRecord), ())


# ---------------------------------------------------------------------------
# Contention notifications (§3.3) and session management
# ---------------------------------------------------------------------------


@message(30)
class Interrupted(Message):
    """Endpoint -> controller: a higher-priority experiment preempted you."""

    by_priority: int = wire("u8", 0)


@message(31)
class Resumed(Message):
    """Endpoint -> controller: the preempting experiment ended; carry on."""


@message(32)
class SessionEnd(Message):
    reason: str = wire("str_u16", "")


@message(33)
class Yield(Message):
    """Controller -> endpoint: voluntarily suspend (give back control)."""


@message(34)
class Bye(Message):
    """Controller -> endpoint: experiment finished."""


# ---------------------------------------------------------------------------
# Rendezvous protocol (§3.2)
# ---------------------------------------------------------------------------


@message(40)
class RdzPublish(Message):
    """Experimenter -> rendezvous: publish a signed experiment.

    ``chain`` authorizes *publishing* (anchored at a rendezvous-operator
    key). ``delivery_chains`` are the endpoint-operator-anchored chains;
    the keys appearing in them determine which subscriber channels receive
    the experiment (§3.3, Rendezvous Publish/Subscribe Channels).
    """

    descriptor: bytes = wire("bytes_u32", b"")
    chain: bytes = wire("bytes_u32", b"")
    delivery_chains: tuple[bytes, ...] = wire(("u16", "bytes_u32"), ())


@message(41)
class RdzPublishResult(Message):
    ok: bool = wire("flag", False)
    reason: str = wire("str_u16", "")


@message(42)
class RdzSubscribe(Message):
    """Endpoint -> rendezvous: subscribe to channels (trusted key hashes)."""

    channels: tuple[bytes, ...] = wire(("u16", "bytes_u16"), ())


@message(43)
class RdzExperiment(Message):
    """Rendezvous -> endpoint: a published experiment on your channels."""

    descriptor: bytes = wire("bytes_u32", b"")
    chain: bytes = wire("bytes_u32", b"")


@message(44)
class RdzHeartbeat(Message):
    """Endpoint -> rendezvous: periodic liveness beacon.

    Sent on the already-open subscription stream, so liveness costs one
    small frame per interval and no extra connection. ``seq`` increases
    monotonically per endpoint process lifetime; a reset to a lower
    value signals the endpoint restarted since its last beacon.
    """

    endpoint_name: str = wire("str_u16", "")
    seq: int = wire("u32", 0)

