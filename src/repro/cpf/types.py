"""Cpf type system.

Integer types carry a byte size and signedness; struct/union types carry a
computed layout. Layouts are *packed* (no alignment padding) — Cpf types
describe network headers and the endpoint info block, both of which are
packed big-endian structures. Bitfields pack MSB-first within their
storage, matching how RFC diagrams (and Figure 2's ``ver``/``ihl``) read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class CpfTypeError(Exception):
    """Raised for type errors during compilation."""


@dataclass(frozen=True)
class IntType:
    size: int  # bytes: 1, 2, 4, or 8
    signed: bool

    @property
    def bits(self) -> int:
        return self.size * 8

    def __str__(self) -> str:
        return f"{'' if self.signed else 'u'}int{self.bits}_t"


U8 = IntType(1, False)
U16 = IntType(2, False)
U32 = IntType(4, False)
U64 = IntType(8, False)
I8 = IntType(1, True)
I16 = IntType(2, True)
I32 = IntType(4, True)
I64 = IntType(8, True)

# Built-in type names available without declaration.
BUILTIN_TYPE_NAMES: dict[str, IntType] = {
    "uint8_t": U8, "uint16_t": U16, "uint32_t": U32, "uint64_t": U64,
    "int8_t": I8, "int16_t": I16, "int32_t": I32, "int64_t": I64,
    "in_addr_t": U32, "in_port_t": U16, "size_t": U64, "time_t": I64,
    "u_char": U8, "u_short": U16, "u_int": U32, "u_long": U64,
    "bool": U8, "_Bool": U8,
}


@dataclass(frozen=True)
class Member:
    """One struct/union member with its resolved placement."""

    name: str  # "" for anonymous struct/union members
    type: "CpfType"
    byte_offset: int
    bit_offset: int = 0  # from the MSB of the byte at byte_offset
    bit_width: int = 0  # 0 = not a bitfield


@dataclass
class StructType:
    tag: str  # "" for anonymous
    is_union: bool
    members: list[Member] = field(default_factory=list)
    size: int = 0

    def __str__(self) -> str:
        kind = "union" if self.is_union else "struct"
        return f"{kind} {self.tag or '<anon>'}"

    def find_member(self, name: str) -> Optional[tuple[Member, int, int]]:
        """Find ``name``, descending into anonymous members.

        Returns ``(member, byte_offset, extra_bit_offset)`` with offsets
        accumulated from this type's start, or None.
        """
        for member in self.members:
            if member.name == name:
                return member, member.byte_offset, member.bit_offset
            if member.name == "" and isinstance(member.type, StructType):
                inner = member.type.find_member(name)
                if inner is not None:
                    found, offset, bits = inner
                    return found, member.byte_offset + offset, bits
        return None


@dataclass(frozen=True)
class ArrayType:
    element: "CpfType"
    count: int

    @property
    def size(self) -> int:
        return type_size(self.element) * self.count

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass(frozen=True)
class PointerType:
    target: "CpfType"

    def __str__(self) -> str:
        return f"{self.target}*"


CpfType = IntType | StructType | ArrayType | PointerType


def type_size(cpf_type: CpfType) -> int:
    if isinstance(cpf_type, IntType):
        return cpf_type.size
    if isinstance(cpf_type, StructType):
        return cpf_type.size
    if isinstance(cpf_type, ArrayType):
        return cpf_type.size
    if isinstance(cpf_type, PointerType):
        return 8
    raise CpfTypeError(f"type {cpf_type} has no size")


def layout_struct(struct: StructType, raw_members: list[tuple[str, CpfType, int]]) -> None:
    """Assign member offsets (packed layout, MSB-first bitfields).

    ``raw_members`` entries are ``(name, type, bit_width)`` with
    ``bit_width == 0`` for ordinary members. Mutates ``struct`` in place.
    """
    byte_offset = 0
    bit_cursor = 0  # bits consumed in the current byte (bitfield runs)
    max_end = 0
    for name, member_type, bit_width in raw_members:
        if struct.is_union:
            byte_offset = 0
            bit_cursor = 0
        if bit_width:
            if not isinstance(member_type, IntType):
                raise CpfTypeError(f"bitfield {name!r} must have integer type")
            if bit_width > member_type.bits:
                raise CpfTypeError(f"bitfield {name!r} wider than its type")
            # Spill to the next byte when the current one cannot hold it
            # (we only pack bitfields within single bytes across runs of
            # small fields, which covers packed network headers).
            if bit_cursor and bit_cursor + bit_width > 8:
                byte_offset += 1
                bit_cursor = 0
            struct.members.append(
                Member(
                    name=name,
                    type=member_type,
                    byte_offset=byte_offset,
                    bit_offset=bit_cursor,
                    bit_width=bit_width,
                )
            )
            bit_cursor += bit_width
            while bit_cursor >= 8:
                byte_offset += 1
                bit_cursor -= 8
            end = byte_offset + (1 if bit_cursor else 0)
        else:
            if bit_cursor:
                byte_offset += 1
                bit_cursor = 0
            struct.members.append(
                Member(name=name, type=member_type, byte_offset=byte_offset)
            )
            end = byte_offset + type_size(member_type)
            if not struct.is_union:
                byte_offset = end
        max_end = max(max_end, end)
    if bit_cursor:
        byte_offset += 1
        max_end = max(max_end, byte_offset)
    struct.size = max_end if struct.is_union else max(byte_offset, max_end)


def common_type(a: IntType, b: IntType) -> IntType:
    """Usual arithmetic conversions, collapsed to 64-bit evaluation.

    The VM evaluates everything in 64 bits; what matters is signedness for
    comparisons/div/shift. Result is unsigned if either operand is
    unsigned and at least as wide as the other signed operand — we use the
    simpler (and safer for filters) rule: unsigned wins.
    """
    signed = a.signed and b.signed
    size = max(a.size, b.size)
    return IntType(size, signed)
