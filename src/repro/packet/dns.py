"""Minimal DNS codec: queries and responses with A records.

Enough to reproduce a RIPE-Atlas-style DNS measurement through the
PacketLab interface (one of the measurement types the paper cites as the
"fixed but useful" set). Supports encoding without name compression and
decoding with compression pointers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.util.byteio import DecodeError

QTYPE_A = 1
QCLASS_IN = 1

FLAG_QR = 0x8000  # response
FLAG_RD = 0x0100  # recursion desired
FLAG_RA = 0x0080  # recursion available

RCODE_NOERROR = 0
RCODE_NXDOMAIN = 3


def encode_name(name: str) -> bytes:
    """Encode a domain name as length-prefixed labels."""
    if name.endswith("."):
        name = name[:-1]
    out = bytearray()
    if name:
        for label in name.split("."):
            raw = label.encode("ascii")
            if not 0 < len(raw) < 64:
                raise ValueError(f"bad DNS label: {label!r}")
            out.append(len(raw))
            out.extend(raw)
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset)."""
    labels: list[str] = []
    jumps = 0
    next_offset = None
    pos = offset
    while True:
        if pos >= len(data):
            raise DecodeError("truncated DNS name")
        length = data[pos]
        if length == 0:
            pos += 1
            break
        if length & 0xC0 == 0xC0:  # compression pointer
            if pos + 1 >= len(data):
                raise DecodeError("truncated DNS compression pointer")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if next_offset is None:
                next_offset = pos + 2
            pos = target
            jumps += 1
            if jumps > 32:
                raise DecodeError("DNS compression pointer loop")
            continue
        if length & 0xC0:
            raise DecodeError(f"unsupported DNS label type: {length:#x}")
        if pos + 1 + length > len(data):
            raise DecodeError("truncated DNS label")
        labels.append(data[pos + 1 : pos + 1 + length].decode("ascii"))
        pos += 1 + length
    return ".".join(labels), (next_offset if next_offset is not None else pos)


@dataclass(frozen=True)
class DnsQuestion:
    name: str
    qtype: int = QTYPE_A
    qclass: int = QCLASS_IN


@dataclass(frozen=True)
class DnsRecord:
    name: str
    rtype: int
    rclass: int
    ttl: int
    rdata: bytes

    @property
    def a_address(self) -> int:
        """Address of an A record, as an integer."""
        if self.rtype != QTYPE_A or len(self.rdata) != 4:
            raise ValueError("not an A record")
        return struct.unpack(">I", self.rdata)[0]

    @classmethod
    def a(cls, name: str, address: int, ttl: int = 300) -> "DnsRecord":
        return cls(name, QTYPE_A, QCLASS_IN, ttl, struct.pack(">I", address))


@dataclass(frozen=True)
class DnsMessage:
    ident: int
    flags: int
    questions: tuple[DnsQuestion, ...] = ()
    answers: tuple[DnsRecord, ...] = ()

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)

    @property
    def rcode(self) -> int:
        return self.flags & 0x000F

    @classmethod
    def query(cls, ident: int, name: str, qtype: int = QTYPE_A) -> "DnsMessage":
        return cls(
            ident=ident,
            flags=FLAG_RD,
            questions=(DnsQuestion(name=name, qtype=qtype),),
        )

    def respond(self, answers: tuple[DnsRecord, ...], rcode: int = RCODE_NOERROR) -> "DnsMessage":
        return DnsMessage(
            ident=self.ident,
            flags=FLAG_QR | FLAG_RA | (self.flags & FLAG_RD) | (rcode & 0x0F),
            questions=self.questions,
            answers=answers,
        )

    def encode(self) -> bytes:
        out = bytearray(
            struct.pack(
                ">HHHHHH",
                self.ident & 0xFFFF,
                self.flags & 0xFFFF,
                len(self.questions),
                len(self.answers),
                0,
                0,
            )
        )
        for question in self.questions:
            out.extend(encode_name(question.name))
            out.extend(struct.pack(">HH", question.qtype, question.qclass))
        for record in self.answers:
            out.extend(encode_name(record.name))
            out.extend(
                struct.pack(
                    ">HHIH", record.rtype, record.rclass, record.ttl & 0xFFFFFFFF, len(record.rdata)
                )
            )
            out.extend(record.rdata)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "DnsMessage":
        if len(data) < 12:
            raise DecodeError(f"DNS message too short: {len(data)} bytes")
        ident, flags, qdcount, ancount, nscount, arcount = struct.unpack(">HHHHHH", data[:12])
        if nscount or arcount:
            raise DecodeError("authority/additional sections unsupported")
        pos = 12
        questions: list[DnsQuestion] = []
        for _ in range(qdcount):
            name, pos = decode_name(data, pos)
            if pos + 4 > len(data):
                raise DecodeError("truncated DNS question")
            qtype, qclass = struct.unpack(">HH", data[pos : pos + 4])
            pos += 4
            questions.append(DnsQuestion(name=name, qtype=qtype, qclass=qclass))
        answers: list[DnsRecord] = []
        for _ in range(ancount):
            name, pos = decode_name(data, pos)
            if pos + 10 > len(data):
                raise DecodeError("truncated DNS answer")
            rtype, rclass, ttl, rdlength = struct.unpack(">HHIH", data[pos : pos + 10])
            pos += 10
            if pos + rdlength > len(data):
                raise DecodeError("truncated DNS rdata")
            answers.append(
                DnsRecord(name=name, rtype=rtype, rclass=rclass, ttl=ttl,
                          rdata=bytes(data[pos : pos + rdlength]))
            )
            pos += rdlength
        return cls(ident=ident, flags=flags, questions=tuple(questions), answers=tuple(answers))
