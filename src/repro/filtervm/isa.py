"""Instruction set of the PacketLab filter VM.

The paper (§3.4) wants a BPF-descendant with two extras plain BPF lacks:
scratch memory that **persists across packets** (stateful filtering, e.g.
Figure 2's ``ping_dst`` global) and access to the endpoint info block. It
also notes BPF's acyclicity rule and leaves the final design open. This VM
keeps BPF's safety property — bounded execution — but enforces it with a
per-invocation fuel limit instead of forbidding loops, so Cpf ``while``
loops are expressible.

Model: a 64-bit stack machine.

- **stack** — unsigned 64-bit values (arithmetic wraps mod 2^64),
- **locals** — per-call frame slots (function arguments first),
- **globals** — a byte-addressable memory persisting for the experiment
  (the monitor's private state),
- **packet** — the read-only bytes of the packet under consideration;
  multi-byte packet loads are big-endian (network order),
- **info** — the read-only endpoint info block (§3.1), also big-endian.

Any fault (out-of-bounds load, division by zero, stack underflow, fuel
exhaustion) aborts the invocation with verdict 0 — deny — matching the
safe-default philosophy of packet filters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

class Op(enum.IntEnum):
    """Opcodes. Operand column: I = signed 64-bit immediate, - = none."""

    # Stack manipulation.
    PUSH = 0x01  # I: push immediate
    POP = 0x02
    DUP = 0x03
    SWAP = 0x04

    # Locals.
    LDL = 0x10  # I: push locals[i]
    STL = 0x11  # I: locals[i] = pop

    # Arithmetic (binary ops pop rhs then lhs, push result).
    ADD = 0x20
    SUB = 0x21
    MUL = 0x22
    DIVU = 0x23
    MODU = 0x24
    DIVS = 0x25
    MODS = 0x26
    AND = 0x27
    OR = 0x28
    XOR = 0x29
    SHL = 0x2A
    SHRU = 0x2B
    SHRS = 0x2C
    BNOT = 0x2D  # unary bitwise not
    NEG = 0x2E  # unary arithmetic negation

    # Comparisons (result 0 or 1).
    EQ = 0x30
    NE = 0x31
    LTU = 0x32
    LEU = 0x33
    GTU = 0x34
    GEU = 0x35
    LTS = 0x36
    LES = 0x37
    GTS = 0x38
    GES = 0x39
    LNOT = 0x3A  # unary logical not

    # Control flow (absolute code offsets).
    JMP = 0x40  # I
    JZ = 0x41  # I: jump if pop == 0
    JNZ = 0x42  # I: jump if pop != 0
    CALL = 0x43  # I: function index
    RET = 0x44  # return pop as function result

    # Packet access (offset popped from stack).
    PKTLEN = 0x50
    PKTLD8 = 0x51
    PKTLD16 = 0x52
    PKTLD32 = 0x53

    # Info block access (offset popped from stack).
    INFOLD8 = 0x58
    INFOLD16 = 0x59
    INFOLD32 = 0x5A
    INFOLD64 = 0x5B

    # Globals (persistent memory). Loads pop offset; stores pop offset,
    # then value.
    GLD8 = 0x60
    GLD16 = 0x61
    GLD32 = 0x62
    GLD64 = 0x63
    GST8 = 0x68
    GST16 = 0x69
    GST32 = 0x6A
    GST64 = 0x6B


# Opcodes that carry a 64-bit immediate operand.
OPS_WITH_OPERAND = frozenset(
    {Op.PUSH, Op.LDL, Op.STL, Op.JMP, Op.JZ, Op.JNZ, Op.CALL}
)

# Binary ALU operations (pop two, push one).
BINARY_OPS = frozenset(
    {
        Op.ADD, Op.SUB, Op.MUL, Op.DIVU, Op.MODU, Op.DIVS, Op.MODS,
        Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHRU, Op.SHRS,
        Op.EQ, Op.NE, Op.LTU, Op.LEU, Op.GTU, Op.GEU,
        Op.LTS, Op.LES, Op.GTS, Op.GES,
    }
)

UNARY_OPS = frozenset({Op.BNOT, Op.NEG, Op.LNOT})

# ALU operations that fault on a zero divisor.
DIVISION_OPS = frozenset({Op.DIVU, Op.MODU, Op.DIVS, Op.MODS})

JUMP_OPS = frozenset({Op.JMP, Op.JZ, Op.JNZ})

# Memory accesses: opcode -> width in bytes.
PACKET_LOADS = {Op.PKTLD8: 1, Op.PKTLD16: 2, Op.PKTLD32: 4}
INFO_LOADS = {Op.INFOLD8: 1, Op.INFOLD16: 2, Op.INFOLD32: 4, Op.INFOLD64: 8}
GLOBAL_LOADS = {Op.GLD8: 1, Op.GLD16: 2, Op.GLD32: 4, Op.GLD64: 8}
GLOBAL_STORES = {Op.GST8: 1, Op.GST16: 2, Op.GST32: 4, Op.GST64: 8}

MASK64 = (1 << 64) - 1


def to_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as two's-complement signed."""
    return value - (1 << 64) if value & (1 << 63) else value


def to_unsigned(value: int) -> int:
    return value & MASK64


@dataclass(frozen=True)
class Instruction:
    op: Op
    operand: int = 0

    def __post_init__(self) -> None:
        if self.op in OPS_WITH_OPERAND:
            if not -(1 << 63) <= self.operand < (1 << 63):
                raise ValueError(f"operand {self.operand} out of i64 range")
        elif self.operand != 0:
            raise ValueError(f"{self.op.name} takes no operand")

    def __repr__(self) -> str:
        if self.op in OPS_WITH_OPERAND:
            return f"{self.op.name.lower()} {self.operand}"
        return self.op.name.lower()


_OP_VALUES = {op.value for op in Op}


def valid_opcode(value: int) -> bool:
    return value in _OP_VALUES
