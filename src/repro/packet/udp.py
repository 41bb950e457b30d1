"""UDP datagram codec with pseudo-header checksum."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum, pseudo_header_sum
from repro.packet.ipv4 import PROTO_UDP
from repro.util.byteio import DecodeError

UDP_HEADER_LEN = 8

_HEADER = struct.Struct(">HHHH")


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes

    @property
    def wire_len(self) -> int:
        """The UDP length field: header plus payload."""
        return UDP_HEADER_LEN + len(self.payload)

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        """Serialize; the checksum covers the IPv4 pseudo-header."""
        src_port = self.src_port & 0xFFFF
        dst_port = self.dst_port & 0xFFFF
        length = self.wire_len
        checksum = internet_checksum(
            self.payload,
            pseudo_header_sum(src_ip, dst_ip, PROTO_UDP, length)
            + src_port + dst_port + length,
        )
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        return _HEADER.pack(src_port, dst_port, length, checksum) + self.payload

    @classmethod
    def decode(
        cls, data: bytes, src_ip: int = 0, dst_ip: int = 0, verify_checksum: bool = True
    ) -> "UdpDatagram":
        if len(data) < UDP_HEADER_LEN:
            raise DecodeError(f"UDP datagram too short: {len(data)} bytes")
        src_port, dst_port, length, checksum = _HEADER.unpack_from(data)
        if length < UDP_HEADER_LEN or length > len(data):
            raise DecodeError(f"bad UDP length {length} for {len(data)} byte buffer")
        if verify_checksum and checksum != 0:
            pseudo = pseudo_header_sum(src_ip, dst_ip, PROTO_UDP, length)
            if internet_checksum(data[:length], pseudo) != 0:
                raise DecodeError("bad UDP checksum")
        return cls(src_port=src_port, dst_port=dst_port, payload=bytes(data[UDP_HEADER_LEN:length]))
