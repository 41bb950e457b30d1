"""Length-prefixed message framing over a simulated TCP connection.

A :class:`MessageStream` wraps a :class:`~repro.netsim.stack.tcp.TcpConnection`;
frames are ``u32 length`` + message bytes. ``send`` hands the frame to
``TcpConnection.write``, which never waits, and raises :class:`TcpError`
on a dead connection. Receiving is one incremental parser over
``TcpConnection.read``, each read asking for what the frame still lacks,
with two drivers: ``msg = yield from stream.recv()`` pulls inside a
process, and ``stream.listen(on_message, on_close)`` pushes each frame to
a handler, which returns :data:`PAUSE` to leave later frames in TCP until
``resume`` or the next ``listen`` (DESIGN.md, "One receive path").
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.netsim.stack.tcp import TcpConnection, TcpError
from repro.proto.messages import Message, decode_message
from repro.util.byteio import DecodeError

MAX_FRAME = 16 * 1024 * 1024

_NOT_YET = object()  # the parser ran out of bytes inside a frame
PAUSE = object()  # a handler's verdict: read no further for now


class FramingError(Exception):
    """Raised when the byte stream cannot be parsed into messages."""


class UndecodableFrame(FramingError):
    """A well-framed message body failed to decode.

    Unlike a broken length prefix or a mid-frame EOF, the stream itself
    is still in sync: the next frame boundary is intact, so a receiver
    may count the offence against a per-session decode budget and keep
    reading rather than tearing the connection down.  Callers that do
    not care still catch :class:`FramingError` and treat it as fatal.
    """


class MessageStream:
    """Framed message I/O over one TCP connection."""

    __slots__ = ("conn", "messages_sent", "messages_received", "bytes_sent",
                 "bytes_received", "_length", "_need", "_partial",
                 "_on_message", "_on_close", "error")

    def __init__(self, conn: TcpConnection) -> None:
        self.conn = conn
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._length: Optional[int] = None  # the body's, once the header is in
        self._need = 4  # bytes the part being parsed still lacks
        self._partial = b""  # and those of it already read
        self._on_message = self._on_close = None
        self.error: Optional[Exception] = None  # what stopped the listener

    def send(self, message: Message) -> None:
        payload = message.encode()
        if len(payload) > MAX_FRAME:
            # Enforced symmetrically with recv(): a frame the peer is
            # guaranteed to reject must never be put on the wire.
            raise FramingError(
                f"frame of {len(payload)} bytes exceeds limit"
            )
        frame = len(payload).to_bytes(4, "big") + payload
        self.conn.write(frame)  # raises TcpError on a dead connection
        self.messages_sent += 1
        self.bytes_sent += len(frame)

    def recv(self) -> Generator:
        """Receive one message; returns None on clean EOF."""
        while (message := self._parse()) is _NOT_YET:
            yield self.conn.wait_readable()
        return message

    def listen(self, on_message: Callable[[object], object],
               on_close: Callable[[], None]) -> None:
        """Push each message or :class:`UndecodableFrame`, from next tick
        on. ``on_message`` may return False to stop or :data:`PAUSE`;
        ``on_close`` runs once on EOF, an error (kept in ``error``) or a
        False."""
        self._on_message, self._on_close = on_message, on_close
        self._wake()

    def resume(self, verdict: object = None) -> None:
        """End a pause in the caller's step; ``verdict`` is the held frame's,
        and a False also stops a listener that is waiting for bytes."""
        if verdict is False:
            self._stop(None)
        elif verdict is not PAUSE:
            self._drain()

    def abort_if_broken(self) -> None:
        """Abort the connection if a broken frame stopped the listener: no
        frame boundary follows, and a peer still sending would fill the window."""
        if isinstance(self.error, FramingError):
            self.conn.abort()

    def _wake(self) -> None:
        self.conn.sim.schedule(0.0, self._drain)

    def _drain(self) -> None:
        """Parse every frame the connection holds, then re-arm."""
        while self._on_message is not None:  # a stopped listener reads none
            try:
                message = self._parse()
            except UndecodableFrame as exc:
                message = exc
            except (TcpError, FramingError) as exc:
                return self._stop(exc)
            if message is _NOT_YET:
                self.conn.on_readable = self._wake
                return
            if message is None or (verdict := self._on_message(message)) is False:
                return self._stop(None)
            if verdict is PAUSE:
                return

    def _stop(self, error: Optional[Exception]) -> None:
        self.error = error
        self.conn.on_readable = None
        on_close = self._on_close
        self._on_message = self._on_close = None  # no cycle
        on_close()

    def _parse(self):
        """The next message, ``None`` at a clean EOF, or ``_NOT_YET``."""
        while True:
            chunk, need = self._partial, self._need
            if need:
                more = self.conn.read(need)
                if more is None:
                    return _NOT_YET
                if not more:
                    if self._length is None and not chunk:
                        return None
                    raise FramingError("connection closed mid-frame")
                chunk += more
                if len(more) < need:
                    self._partial, self._need = chunk, need - len(more)
                    continue
                self._partial = b""
            length = self._length
            if length is None:
                length = int.from_bytes(chunk, "big")
                if length > MAX_FRAME:
                    raise FramingError(f"frame of {length} bytes exceeds limit")
                self._length = self._need = length
                continue
            self._length, self._need = None, 4
            self.bytes_received += 4 + length
            try:
                message = decode_message(chunk)
            except DecodeError as exc:
                raise UndecodableFrame(f"undecodable message: {exc}") from exc
            self.messages_received += 1
            return message

    def close(self) -> None:
        self.conn.close()
