"""ICMP message codec (echo, time exceeded, destination unreachable)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum
from repro.util.byteio import DecodeError

ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACH = 3
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11

UNREACH_NET = 0
UNREACH_HOST = 1
UNREACH_PROTO = 2
UNREACH_PORT = 3

TTL_EXPIRED_IN_TRANSIT = 0

ICMP_HEADER_LEN = 8

# Type+code, checksum, rest-of-header.
_HEADER = struct.Struct(">HHI")


@dataclass(frozen=True)
class IcmpMessage:
    """A parsed ICMP message.

    ``rest`` is the 32-bit field after type/code/checksum whose meaning
    depends on the type (identifier+sequence for echo, unused for errors);
    ``body`` is everything after the 8-byte header (echo payload, or the
    original IP header + 8 bytes for error messages).
    """

    icmp_type: int
    code: int
    rest: int
    body: bytes

    def encode(self) -> bytes:
        type_code = (self.icmp_type & 0xFF) << 8 | self.code & 0xFF
        rest = self.rest & 0xFFFFFFFF
        checksum = internet_checksum(self.body, type_code + rest)
        return _HEADER.pack(type_code, checksum, rest) + self.body

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = True) -> "IcmpMessage":
        if len(data) < ICMP_HEADER_LEN:
            raise DecodeError(f"ICMP message too short: {len(data)} bytes")
        type_code, _checksum, rest = _HEADER.unpack_from(data)
        if verify_checksum and internet_checksum(data) != 0:
            raise DecodeError("bad ICMP checksum")
        return cls(icmp_type=type_code >> 8, code=type_code & 0xFF, rest=rest,
                   body=bytes(data[ICMP_HEADER_LEN:]))

    # -- echo helpers -----------------------------------------------------

    @classmethod
    def echo_request(cls, ident: int, seq: int, payload: bytes = b"") -> "IcmpMessage":
        return cls(
            icmp_type=ICMP_ECHO_REQUEST,
            code=0,
            rest=((ident & 0xFFFF) << 16) | (seq & 0xFFFF),
            body=payload,
        )

    @classmethod
    def echo_reply(cls, ident: int, seq: int, payload: bytes = b"") -> "IcmpMessage":
        return cls(
            icmp_type=ICMP_ECHO_REPLY,
            code=0,
            rest=((ident & 0xFFFF) << 16) | (seq & 0xFFFF),
            body=payload,
        )

    @property
    def echo_ident(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @property
    def echo_seq(self) -> int:
        return self.rest & 0xFFFF

    # -- error helpers ----------------------------------------------------

    @classmethod
    def time_exceeded(cls, original_datagram: bytes) -> "IcmpMessage":
        """TTL-expired error quoting the original IP header + 8 bytes."""
        return cls(
            icmp_type=ICMP_TIME_EXCEEDED,
            code=TTL_EXPIRED_IN_TRANSIT,
            rest=0,
            body=original_datagram[:28],
        )

    @classmethod
    def dest_unreachable(cls, code: int, original_datagram: bytes) -> "IcmpMessage":
        return cls(
            icmp_type=ICMP_DEST_UNREACH,
            code=code,
            rest=0,
            body=original_datagram[:28],
        )

    @property
    def is_error(self) -> bool:
        return self.icmp_type in (ICMP_DEST_UNREACH, ICMP_TIME_EXCEEDED)

    def original_datagram(self) -> bytes:
        """For error messages: the quoted original IP header + 8 bytes."""
        if not self.is_error:
            raise ValueError("not an ICMP error message")
        return self.body
