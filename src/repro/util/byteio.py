"""Binary reader/writer with explicit byte order.

All PacketLab wire structures (protocol messages, certificates, packet
headers) are encoded big-endian ("network order"). ``ByteWriter`` and
``ByteReader`` provide a small, checked API over ``bytes`` so that encoders
and decoders stay symmetric and out-of-bounds reads raise ``DecodeError``
instead of ``struct.error`` or silent truncation.
"""

from __future__ import annotations

import struct


class DecodeError(Exception):
    """Raised when a binary structure cannot be decoded."""


class ByteWriter:
    """Accumulates a big-endian binary encoding."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def _append(self, chunk: bytes) -> None:
        self._chunks.append(chunk)
        self._length += len(chunk)

    def u8(self, value: int) -> "ByteWriter":
        self._check_range(value, 0xFF)
        self._append(struct.pack(">B", value))
        return self

    def u16(self, value: int) -> "ByteWriter":
        self._check_range(value, 0xFFFF)
        self._append(struct.pack(">H", value))
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._check_range(value, 0xFFFFFFFF)
        self._append(struct.pack(">I", value))
        return self

    def u64(self, value: int) -> "ByteWriter":
        self._check_range(value, 0xFFFFFFFFFFFFFFFF)
        self._append(struct.pack(">Q", value))
        return self

    def i64(self, value: int) -> "ByteWriter":
        if not -(1 << 63) <= value < (1 << 63):
            raise ValueError(f"value {value} out of range for i64")
        self._append(struct.pack(">q", value))
        return self

    def f64(self, value: float) -> "ByteWriter":
        self._append(struct.pack(">d", value))
        return self

    def flag(self, value: bool) -> "ByteWriter":
        return self.u8(1 if value else 0)

    def raw(self, data: bytes) -> "ByteWriter":
        self._append(bytes(data))
        return self

    def bytes_u16(self, data: bytes) -> "ByteWriter":
        """Length-prefixed (16-bit) byte string."""
        if len(data) > 0xFFFF:
            raise ValueError(f"byte string too long: {len(data)}")
        self.u16(len(data))
        self._append(bytes(data))
        return self

    def bytes_u32(self, data: bytes) -> "ByteWriter":
        """Length-prefixed (32-bit) byte string."""
        if len(data) > 0xFFFFFFFF:
            raise ValueError(f"byte string too long: {len(data)}")
        self.u32(len(data))
        self._append(bytes(data))
        return self

    def str_u16(self, text: str) -> "ByteWriter":
        """Length-prefixed UTF-8 string."""
        return self.bytes_u16(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    @staticmethod
    def _check_range(value: int, maximum: int) -> None:
        if not 0 <= value <= maximum:
            raise ValueError(f"value {value} out of range [0, {maximum}]")


class ByteReader:
    """Sequential reader over a ``bytes`` buffer.

    Every accessor raises :class:`DecodeError` when the buffer is exhausted,
    so decoders never need explicit bounds checks.
    """

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def _take(self, count: int) -> bytes:
        if count < 0 or self._pos + count > len(self._data):
            raise DecodeError(
                f"buffer underrun: need {count} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def flag(self) -> bool:
        return bool(self.u8())

    def raw(self, count: int) -> bytes:
        return self._take(count)

    def bytes_u16(self) -> bytes:
        return self._take(self.u16())

    def bytes_u32(self) -> bytes:
        return self._take(self.u32())

    def str_u16(self) -> str:
        try:
            return self.bytes_u16().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 string: {exc}") from exc

    def rest(self) -> bytes:
        """All remaining bytes."""
        chunk = self._data[self._pos :]
        self._pos = len(self._data)
        return chunk

    def expect_end(self) -> None:
        if not self.at_end():
            raise DecodeError(f"{self.remaining()} trailing bytes after structure")
