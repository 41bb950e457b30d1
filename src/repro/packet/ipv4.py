"""IPv4 header codec.

The simulator's on-wire unit is an :class:`IPv4Packet`: a parsed IPv4 header
plus its L4 payload, as bytes or as the parsed segment the stack built.
Packets are encoded to real bytes whenever they cross a boundary that the
paper defines in terms of bytes — the raw socket interface, packet filters,
and capture buffers — so controller-side code sees genuine IPv4 packets.

Limitations (documented, deliberate): no IP options (IHL is always 5) and no
fragmentation. Neither is needed by any experiment in the paper, and both
are rejected loudly rather than mis-parsed.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Optional

from repro.packet.checksum import internet_checksum
from repro.util.byteio import DecodeError

if TYPE_CHECKING:
    from repro.packet.tcp import TcpSegment
    from repro.packet.udp import UdpDatagram

IP_HEADER_LEN = 20
IP_MAX_PACKET = 65535

# Protocol numbers (IANA).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_RAW_TEST = 253  # RFC 3692 experimental; used by tests for opaque payloads

PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}

DEFAULT_TTL = 64

# version/IHL+TOS, total length, ident, flags/fragment, TTL+proto, checksum,
# src, dst — the 16-bit words the header checksum sums.
_HEADER = struct.Struct(">HHHHHHII")

_new_packet = object.__new__


class IPv4Packet:
    """A parsed IPv4 packet: header fields plus its L4 payload.

    The payload exists in one of two forms. A packet that entered the
    simulator as bytes (``decode``, raw ``nsend``) carries them in
    ``payload``, and a receiver verifies them. A TCP segment or UDP
    datagram the stack built rides as ``segment``, the parsed object
    itself: its bytes are built, once, only if something reads
    ``payload`` (a raw tap, a link observer, an ICMP quote), and the
    receiving stack takes the segment as it was sent, with no checksum to
    verify because nothing could have changed it.

    Instances are treated as immutable: ``decremented`` and the NAT build
    copies, never edit one in place.
    """

    __slots__ = ("src", "dst", "proto", "ttl", "ident", "dscp",
                 "dont_fragment", "segment", "total_length", "_payload")

    def __init__(
        self,
        src: int,
        dst: int,
        proto: int,
        payload: Optional[bytes] = None,
        ttl: int = DEFAULT_TTL,
        ident: int = 0,
        dscp: int = 0,
        dont_fragment: bool = True,
        segment: Optional[TcpSegment | UdpDatagram] = None,
    ) -> None:
        if (payload is None) == (segment is None):
            raise ValueError("a packet carries either payload bytes or a segment")
        self.src = src
        self.dst = dst
        self.proto = proto
        self.ttl = ttl
        self.ident = ident
        self.dscp = dscp
        self.dont_fragment = dont_fragment
        self.segment = segment
        self._payload = payload
        self.total_length = IP_HEADER_LEN + (
            len(payload) if segment is None else segment.wire_len
        )

    @property
    def payload(self) -> bytes:
        """The L4 bytes; a carried segment is encoded on first read."""
        payload = self._payload
        if payload is None:
            payload = self._payload = self.segment.encode(self.src, self.dst)
        return payload

    def _fields(self) -> tuple:
        return (self.src, self.dst, self.proto, self.payload, self.ttl,
                self.ident, self.dscp, self.dont_fragment)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IPv4Packet:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = (f"payload={self._payload!r}" if self.segment is None
                else f"segment={self.segment!r}")
        return (f"IPv4Packet(src={self.src}, dst={self.dst}, proto={self.proto}, "
                f"{body}, ttl={self.ttl}, ident={self.ident}, dscp={self.dscp}, "
                f"dont_fragment={self.dont_fragment})")

    def decremented(self) -> "IPv4Packet":
        """Copy with TTL reduced by one (router forwarding)."""
        if self.ttl <= 0:
            raise ValueError("cannot decrement TTL below zero")
        copy = _new_packet(IPv4Packet)
        copy.src = self.src
        copy.dst = self.dst
        copy.proto = self.proto
        copy.ttl = self.ttl - 1
        copy.ident = self.ident
        copy.dscp = self.dscp
        copy.dont_fragment = self.dont_fragment
        copy.segment = self.segment
        copy._payload = self._payload
        copy.total_length = self.total_length
        return copy

    def _header(self) -> bytes:
        total_length = self.total_length
        if total_length > IP_MAX_PACKET:
            raise ValueError(f"packet too large: {total_length}")
        ver_tos = 0x4500 | (self.dscp << 2) & 0xFF  # version 4, IHL 5
        ident = self.ident & 0xFFFF
        flags_frag = 0x4000 if self.dont_fragment else 0
        ttl_proto = (self.ttl & 0xFF) << 8 | self.proto & 0xFF
        src = self.src & 0xFFFFFFFF
        dst = self.dst & 0xFFFFFFFF
        checksum = internet_checksum(
            b"", ver_tos + total_length + ident + flags_frag + ttl_proto + src + dst
        )
        return _HEADER.pack(
            ver_tos, total_length, ident, flags_frag, ttl_proto, checksum, src, dst
        )

    def encode(self) -> bytes:
        """Serialize to wire bytes with a correct header checksum."""
        return self._header() + self.payload

    def quoted(self) -> bytes:
        """Header plus the first 8 payload bytes: what an ICMP error quotes
        (``encode()[:28]`` without serialising the rest of the datagram)."""
        return self._header() + self.payload[:8]

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = True) -> "IPv4Packet":
        """Parse wire bytes into a packet, validating structure."""
        if len(data) < IP_HEADER_LEN:
            raise DecodeError(f"IPv4 packet too short: {len(data)} bytes")
        (
            ver_tos,
            total_length,
            ident,
            flags_frag,
            ttl_proto,
            _checksum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        version = ver_tos >> 12
        ihl = (ver_tos >> 8) & 0x0F
        if version != 4:
            raise DecodeError(f"not an IPv4 packet (version={version})")
        if ihl != 5:
            raise DecodeError(f"IP options unsupported (ihl={ihl})")
        if total_length < IP_HEADER_LEN or total_length > len(data):
            raise DecodeError(
                f"bad total length {total_length} for {len(data)} byte buffer"
            )
        if flags_frag & 0x3FFF:
            raise DecodeError("fragmented packets unsupported")
        if verify_checksum:
            if internet_checksum(data[:IP_HEADER_LEN]) != 0:
                raise DecodeError("bad IPv4 header checksum")
        return cls(
            src=src,
            dst=dst,
            proto=ttl_proto & 0xFF,
            payload=bytes(data[IP_HEADER_LEN:total_length]),
            ttl=ttl_proto >> 8,
            ident=ident,
            dscp=(ver_tos & 0xFF) >> 2,
            dont_fragment=bool(flags_frag & 0x4000),
        )

    def summary(self) -> str:
        from repro.util.inet import format_ip

        name = PROTO_NAMES.get(self.proto, str(self.proto))
        return (
            f"IPv4 {format_ip(self.src)} -> {format_ip(self.dst)} "
            f"{name} ttl={self.ttl} len={self.total_length}"
        )
