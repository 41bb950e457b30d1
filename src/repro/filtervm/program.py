"""Filter VM program container: functions, code, serialization, verification.

A program is what travels inside a certificate's ``monitor`` restriction or
an ``ncap`` command's ``filt`` argument: a flat code array, a function
table with named entry points (``send``, ``recv``, optionally ``init``),
and a declared persistent-globals size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filtervm.isa import (
    OPS_WITH_OPERAND,
    Instruction,
    Op,
    valid_opcode,
)
from repro.util.byteio import ByteReader, ByteWriter, DecodeError
from repro.util.memo import BoundedMemo

_PROGRAM_MAGIC = 0x43504656  # "CPFV"
_PROGRAM_VERSION = 1

MAX_GLOBALS_SIZE = 64 * 1024
MAX_CODE_LENGTH = 64 * 1024
MAX_FUNCTIONS = 256
MAX_LOCALS = 256

ENTRY_SEND = "send"
ENTRY_RECV = "recv"
ENTRY_INIT = "init"

# Entry points the endpoint invokes, with their argument counts: send/recv
# receive (offset, length); init receives nothing.
ENTRY_SIGNATURES = {ENTRY_SEND: 2, ENTRY_RECV: 2, ENTRY_INIT: 0}

# Decoded programs (as snapshots) memoized by their wire bytes: an
# endpoint decodes the same certificate monitor for every session.
_DECODE_CACHE: BoundedMemo = BoundedMemo(64)


class ProgramError(Exception):
    """Raised for structurally invalid filter programs."""


@dataclass(frozen=True)
class Function:
    name: str
    offset: int  # index into the code array
    n_args: int
    n_locals: int  # total local slots including arguments

    def __post_init__(self) -> None:
        if self.n_args > self.n_locals:
            raise ProgramError(
                f"function {self.name}: {self.n_args} args exceed "
                f"{self.n_locals} locals"
            )


@dataclass
class FilterProgram:
    """A verified-on-load filter/monitor program."""

    code: list[Instruction] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    globals_size: int = 0

    def function_named(self, name: str) -> Function | None:
        for function in self.functions:
            if function.name == name:
                return function
        return None

    def function_index(self, name: str) -> int:
        for index, function in enumerate(self.functions):
            if function.name == name:
                return index
        raise ProgramError(f"no function named {name!r}")

    @property
    def entry_points(self) -> list[str]:
        return [function.name for function in self.functions]

    def snapshot(self) -> tuple:
        """The program's content as one hashable value (a memo key)."""
        return (tuple(self.code), tuple(self.functions), self.globals_size)

    # -- verification -------------------------------------------------------

    def verify(self) -> "FilterProgram":
        """Structural checks; raises ProgramError. Returns self for chaining."""
        if len(self.code) > MAX_CODE_LENGTH:
            raise ProgramError(f"code too long: {len(self.code)}")
        if len(self.functions) > MAX_FUNCTIONS:
            raise ProgramError(f"too many functions: {len(self.functions)}")
        if not 0 <= self.globals_size <= MAX_GLOBALS_SIZE:
            raise ProgramError(f"bad globals size: {self.globals_size}")
        names = [function.name for function in self.functions]
        if len(set(names)) != len(names):
            raise ProgramError("duplicate function names")
        for function in self.functions:
            # Strictly less than len(code): a function must own at least
            # one instruction, or the VM faults "pc ran off the end" on
            # the very first fetch (offset == len(code) is one-past-the-
            # end, not a body).
            if not 0 <= function.offset < len(self.code):
                raise ProgramError(
                    f"function {function.name} offset {function.offset} out of range"
                )
            if function.n_locals > MAX_LOCALS:
                raise ProgramError(f"function {function.name} has too many locals")
        for index, instruction in enumerate(self.code):
            if instruction.op in (Op.JMP, Op.JZ, Op.JNZ):
                if not 0 <= instruction.operand < len(self.code):
                    raise ProgramError(
                        f"jump at {index} targets {instruction.operand}, "
                        f"outside code of length {len(self.code)}"
                    )
            elif instruction.op == Op.CALL:
                if not 0 <= instruction.operand < len(self.functions):
                    raise ProgramError(
                        f"call at {index} references function {instruction.operand}"
                    )
        return self

    # -- serialization -------------------------------------------------------

    def encode(self) -> bytes:
        writer = ByteWriter()
        writer.u32(_PROGRAM_MAGIC)
        writer.u8(_PROGRAM_VERSION)
        writer.u32(self.globals_size)
        writer.u8(len(self.functions))
        for function in self.functions:
            writer.str_u16(function.name)
            writer.u32(function.offset)
            writer.u8(function.n_args)
            writer.u16(function.n_locals)
        writer.u32(len(self.code))
        for instruction in self.code:
            writer.u8(instruction.op.value)
            if instruction.op in OPS_WITH_OPERAND:
                writer.i64(instruction.operand)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "FilterProgram":
        """Parse and structurally verify wire bytes.

        Every call returns a program of its own (instructions and functions
        are frozen; the lists holding them are fresh), so no caller can
        alter the program another caller decoded from the same bytes.
        """
        data = bytes(data)
        snapshot = _DECODE_CACHE.get(data)
        if snapshot is None:
            snapshot = _DECODE_CACHE.put(data, cls._parse(data).snapshot())
        code, functions, globals_size = snapshot
        return cls(code=list(code), functions=list(functions),
                   globals_size=globals_size)

    @classmethod
    def _parse(cls, data: bytes) -> "FilterProgram":
        reader = ByteReader(data)
        magic = reader.u32()
        if magic != _PROGRAM_MAGIC:
            raise DecodeError(f"bad filter program magic {magic:#x}")
        version = reader.u8()
        if version != _PROGRAM_VERSION:
            raise DecodeError(f"unsupported filter program version {version}")
        globals_size = reader.u32()
        functions = []
        for _ in range(reader.u8()):
            name = reader.str_u16()
            offset = reader.u32()
            n_args = reader.u8()
            n_locals = reader.u16()
            try:
                functions.append(
                    Function(name=name, offset=offset, n_args=n_args, n_locals=n_locals)
                )
            except ProgramError as exc:
                raise DecodeError(str(exc)) from exc
        code = []
        for _ in range(reader.u32()):
            opcode = reader.u8()
            if not valid_opcode(opcode):
                raise DecodeError(f"invalid opcode {opcode:#x}")
            op = Op(opcode)
            operand = reader.i64() if op in OPS_WITH_OPERAND else 0
            code.append(Instruction(op, operand))
        reader.expect_end()
        program = cls(code=code, functions=functions, globals_size=globals_size)
        try:
            program.verify()
        except ProgramError as exc:
            raise DecodeError(str(exc)) from exc
        return program
