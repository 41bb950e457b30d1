"""Length-prefixed message framing over a simulated TCP connection.

A :class:`MessageStream` wraps a :class:`~repro.netsim.stack.tcp.TcpConnection`
and provides ``stream.send(msg)`` / ``msg = yield from stream.recv()``
for simulated processes. Frames are ``u32 length`` + message bytes.

``send`` is a plain call: it hands the frame to ``TcpConnection.write``,
which never waits, so the frame enters TCP in the step that sends it and
TCP keeps every sender's frames in order. A dead connection raises
:class:`TcpError`. Data sockets keep the blocking ``TcpConnection.send``.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.netsim.stack.tcp import TcpConnection, TcpError
from repro.proto.messages import Message, decode_message
from repro.util.byteio import DecodeError

MAX_FRAME = 16 * 1024 * 1024


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
                 "bytes_received")

    def __init__(self, conn: TcpConnection) -> None:
        self.conn = conn
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

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
        header = yield from self._recv_exactly(4)
        if header is None:
            return None
        length = int.from_bytes(header, "big")
        if length > MAX_FRAME:
            raise FramingError(f"frame of {length} bytes exceeds limit")
        body = yield from self._recv_exactly(length)
        if body is None:
            raise FramingError("connection closed mid-frame")
        self.bytes_received += 4 + length
        try:
            message = decode_message(body)
        except DecodeError as exc:
            raise UndecodableFrame(f"undecodable message: {exc}") from exc
        self.messages_received += 1
        return message

    def _recv_exactly(self, count: int) -> Generator:
        """Read exactly ``count`` bytes, or None if EOF arrives first byte."""
        if count == 0:
            return b""
        chunk = yield from self.conn.recv(count)
        if len(chunk) == count:
            return chunk  # the common case: one read holds it all
        if not chunk:
            return None
        parts = [chunk]
        remaining = count - len(chunk)
        while remaining > 0:
            chunk = yield from self.conn.recv(remaining)
            if not chunk:
                raise FramingError("connection closed mid-frame")
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def close(self) -> None:
        self.conn.close()
