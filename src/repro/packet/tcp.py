"""TCP segment codec (fixed 20-byte header, no options except MSS on SYN)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum, pseudo_header_sum
from repro.packet.ipv4 import PROTO_TCP
from repro.util.byteio import DecodeError

TCP_HEADER_LEN = 20

# Ports, seq, ack, data offset+flags, window, checksum, urgent pointer.
_HEADER = struct.Struct(">HHIIHHHH")
_MSS_OPTION = struct.Struct(">HH")

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

_FLAG_NAMES = [
    (FLAG_SYN, "SYN"),
    (FLAG_FIN, "FIN"),
    (FLAG_RST, "RST"),
    (FLAG_PSH, "PSH"),
    (FLAG_ACK, "ACK"),
    (FLAG_URG, "URG"),
]


def flag_names(flags: int) -> str:
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "none"


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss: int | None = None  # MSS option, only meaningful on SYN segments

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def header_len(self) -> int:
        return TCP_HEADER_LEN + (4 if self.mss is not None else 0)

    @property
    def wire_len(self) -> int:
        return self.header_len + len(self.payload)

    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload plus SYN/FIN phantom bytes."""
        return len(self.payload) + (1 if self.has(FLAG_SYN) else 0) + (
            1 if self.has(FLAG_FIN) else 0
        )

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        src_port = self.src_port & 0xFFFF
        dst_port = self.dst_port & 0xFFFF
        seq = self.seq & 0xFFFFFFFF
        ack = self.ack & 0xFFFFFFFF
        window = self.window & 0xFFFF
        payload = self.payload
        if self.mss is None:
            options, options_sum = b"", 0
        else:
            mss = self.mss & 0xFFFF
            options = _MSS_OPTION.pack(0x0204, mss)  # kind 2, length 4
            options_sum = 0x0204 + mss
        header_len = TCP_HEADER_LEN + len(options)
        offset_flags = (header_len // 4) << 12 | self.flags & 0x3F
        # The checksum field's own word is zero, so the header and the
        # pseudo-header enter the sum as integers and the payload is
        # summed in place.
        checksum = internet_checksum(
            payload,
            pseudo_header_sum(src_ip, dst_ip, PROTO_TCP, header_len + len(payload))
            + src_port + dst_port + seq + ack + offset_flags + window + options_sum,
        )
        header = _HEADER.pack(
            src_port, dst_port, seq, ack, offset_flags, window, checksum,
            0,  # urgent pointer
        )
        return header + options + payload

    @classmethod
    def decode(
        cls, data: bytes, src_ip: int = 0, dst_ip: int = 0, verify_checksum: bool = True
    ) -> "TcpSegment":
        if len(data) < TCP_HEADER_LEN:
            raise DecodeError(f"TCP segment too short: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            _checksum,
            _urgent,
        ) = _HEADER.unpack_from(data)
        header_len = (offset_flags >> 12) * 4
        if header_len < TCP_HEADER_LEN or header_len > len(data):
            raise DecodeError(f"bad TCP data offset: {header_len}")
        if verify_checksum:
            pseudo = pseudo_header_sum(src_ip, dst_ip, PROTO_TCP, len(data))
            if internet_checksum(data, pseudo) != 0:
                raise DecodeError("bad TCP checksum")
        mss = None
        options = data[TCP_HEADER_LEN:header_len]
        pos = 0
        while pos < len(options):
            kind = options[pos]
            if kind == 0:  # end of options
                break
            if kind == 1:  # NOP
                pos += 1
                continue
            if pos + 1 >= len(options):
                raise DecodeError("truncated TCP option")
            length = options[pos + 1]
            if length < 2 or pos + length > len(options):
                raise DecodeError("bad TCP option length")
            if kind == 2 and length == 4:
                mss = struct.unpack(">H", options[pos + 2 : pos + 4])[0]
            pos += length
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x3F,
            window=window,
            payload=bytes(data[header_len:]),
            mss=mss,
        )

    def summary(self) -> str:
        return (
            f"TCP {self.src_port}->{self.dst_port} [{flag_names(self.flags)}] "
            f"seq={self.seq} ack={self.ack} win={self.window} len={len(self.payload)}"
        )
