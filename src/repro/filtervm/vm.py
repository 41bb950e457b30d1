"""The filter VM interpreter.

Every invocation is bounded by a fuel budget; every fault — out-of-bounds
access, stack underflow, division by zero, fuel exhaustion, call-depth
overflow — aborts with verdict 0 (deny). Monitors therefore fail closed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.filtervm.isa import MASK64, Op, to_signed, to_unsigned
from repro.filtervm.program import FilterProgram, ProgramError

if TYPE_CHECKING:
    from repro.obs import Observability

DEFAULT_FUEL = 10_000
MAX_CALL_DEPTH = 32
MAX_STACK = 1024

# Verdicts returned by filters attached with ncap (§3.1): whether a packet
# is ignored, consumed, or mirrored. A monitor's send/recv entry points use
# plain zero/nonzero (deny/allow), so Figure 2's ``return len`` works.
VERDICT_DROP = 0
VERDICT_CONSUME = 1
VERDICT_MIRROR = 2


class VmFault(Exception):
    """Internal: aborts an invocation; callers see verdict 0."""


class InfoSource(Protocol):
    """Read access to the endpoint info block (big-endian loads)."""

    def read(self, offset: int, size: int) -> bytes: ...


class BytesInfo:
    """Adapt a plain ``bytes`` buffer as an :class:`InfoSource`."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or offset + size > len(self._data):
            raise VmFault(f"info read [{offset}:{offset + size}] out of bounds")
        return self._data[offset : offset + size]


class FilterVM:
    """An instantiated program with its persistent globals.

    One ``FilterVM`` lives for the duration of an experiment: its globals
    survive across invocations (the paper's stateful-filtering requirement)
    while stack and locals are per-invocation.
    """

    def __init__(
        self,
        program: FilterProgram,
        info: Optional[InfoSource] = None,
        fuel_limit: int = DEFAULT_FUEL,
        obs: Optional["Observability"] = None,
    ) -> None:
        program.verify()
        self.program = program
        self.info = info or BytesInfo(b"")
        self.fuel_limit = fuel_limit
        self.globals = bytearray(program.globals_size)
        self.invocations = 0
        self.faults = 0
        self.instructions_executed = 0
        self.last_fault: Optional[str] = None
        self._obs = obs

    def has_entry(self, name: str) -> bool:
        return self.program.function_named(name) is not None

    def run_init(self) -> None:
        """Run the optional ``init`` entry point once, if present."""
        if self.has_entry("init"):
            self.invoke("init", packet=b"", args=())

    def invoke(
        self,
        entry: str,
        packet: bytes = b"",
        args: tuple[int, ...] = (),
        fuel: Optional[int] = None,
    ) -> int:
        """Run an entry point; returns its verdict (0 on any fault)."""
        function = self.program.function_named(entry)
        if function is None:
            raise ProgramError(f"program has no entry point {entry!r}")
        if len(args) != function.n_args:
            raise ProgramError(
                f"entry {entry!r} takes {function.n_args} args, got {len(args)}"
            )
        self.invocations += 1
        budget = fuel or self.fuel_limit
        obs = self._obs
        try:
            verdict, fuel_left = self._execute(function, packet, args, budget)
        except VmFault as fault:
            self.faults += 1
            self.last_fault = str(fault)
            if obs is not None and obs.enabled:
                obs.counter("filtervm.invocations").inc()
                obs.counter("filtervm.faults").inc()
                obs.counter("filtervm.deny").inc()
            return 0
        self.instructions_executed += budget - fuel_left
        if obs is not None and obs.enabled:
            obs.counter("filtervm.invocations").inc()
            obs.counter("filtervm.instructions").inc(budget - fuel_left)
            obs.counter("filtervm.allow" if verdict else "filtervm.deny").inc()
        return verdict

    # -- interpreter core ----------------------------------------------------

    def _execute(
        self, function, packet: bytes, args: tuple[int, ...], fuel: int
    ) -> tuple[int, int]:
        """Run to completion; returns ``(verdict, fuel_remaining)``."""
        code = self.program.code
        functions = self.program.functions
        stack: list[int] = []
        locals_: list[int] = [to_unsigned(a) for a in args] + [0] * (
            function.n_locals - function.n_args
        )
        frames: list[tuple[int, list[int]]] = []  # (return pc, saved locals)
        pc = function.offset

        def pop() -> int:
            if not stack:
                raise VmFault("stack underflow")
            return stack.pop()

        def push(value: int) -> None:
            if len(stack) >= MAX_STACK:
                raise VmFault("stack overflow")
            stack.append(value & MASK64)

        while True:
            if fuel <= 0:
                raise VmFault("fuel exhausted")
            fuel -= 1
            if pc >= len(code):
                raise VmFault(f"pc {pc} ran off the end of code")
            instruction = code[pc]
            op = instruction.op
            pc += 1

            if op == Op.PUSH:
                push(to_unsigned(instruction.operand))
            elif op == Op.POP:
                pop()
            elif op == Op.DUP:
                value = pop()
                push(value)
                push(value)
            elif op == Op.SWAP:
                a = pop()
                b = pop()
                push(a)
                push(b)
            elif op == Op.LDL:
                index = instruction.operand
                if not 0 <= index < len(locals_):
                    raise VmFault(f"local {index} out of range")
                push(locals_[index])
            elif op == Op.STL:
                index = instruction.operand
                if not 0 <= index < len(locals_):
                    raise VmFault(f"local {index} out of range")
                locals_[index] = pop()
            elif op in _BINARY_HANDLERS:
                rhs = pop()
                lhs = pop()
                push(_BINARY_HANDLERS[op](lhs, rhs))
            elif op in _UNARY_HANDLERS:
                push(_UNARY_HANDLERS[op](pop()))
            elif op == Op.JMP:
                pc = instruction.operand
            elif op == Op.JZ:
                if pop() == 0:
                    pc = instruction.operand
            elif op == Op.JNZ:
                if pop() != 0:
                    pc = instruction.operand
            elif op == Op.CALL:
                if len(frames) >= MAX_CALL_DEPTH:
                    raise VmFault("call depth exceeded")
                callee = functions[instruction.operand]
                call_args = [pop() for _ in range(callee.n_args)][::-1]
                frames.append((pc, locals_))
                locals_ = call_args + [0] * (callee.n_locals - callee.n_args)
                pc = callee.offset
            elif op == Op.RET:
                result = pop()
                if not frames:
                    return result, fuel
                pc, locals_ = frames.pop()
                push(result)
            elif op == Op.PKTLEN:
                push(len(packet))
            elif op in (Op.PKTLD8, Op.PKTLD16, Op.PKTLD32):
                size = {Op.PKTLD8: 1, Op.PKTLD16: 2, Op.PKTLD32: 4}[op]
                offset = to_signed(pop())
                if offset < 0 or offset + size > len(packet):
                    raise VmFault(
                        f"packet read [{offset}:{offset + size}] out of bounds "
                        f"(len {len(packet)})"
                    )
                push(int.from_bytes(packet[offset : offset + size], "big"))
            elif op in (Op.INFOLD8, Op.INFOLD16, Op.INFOLD32, Op.INFOLD64):
                size = {
                    Op.INFOLD8: 1,
                    Op.INFOLD16: 2,
                    Op.INFOLD32: 4,
                    Op.INFOLD64: 8,
                }[op]
                offset = to_signed(pop())
                data = self.info.read(offset, size)
                push(int.from_bytes(data, "big"))
            elif op in (Op.GLD8, Op.GLD16, Op.GLD32, Op.GLD64):
                size = {Op.GLD8: 1, Op.GLD16: 2, Op.GLD32: 4, Op.GLD64: 8}[op]
                offset = to_signed(pop())
                self._check_globals(offset, size)
                push(int.from_bytes(self.globals[offset : offset + size], "big"))
            elif op in (Op.GST8, Op.GST16, Op.GST32, Op.GST64):
                size = {Op.GST8: 1, Op.GST16: 2, Op.GST32: 4, Op.GST64: 8}[op]
                offset = to_signed(pop())
                value = pop()
                self._check_globals(offset, size)
                self.globals[offset : offset + size] = (
                    value & ((1 << (8 * size)) - 1)
                ).to_bytes(size, "big")
            else:  # pragma: no cover - verifier rejects unknown opcodes
                raise VmFault(f"unhandled opcode {op}")

    def _check_globals(self, offset: int, size: int) -> None:
        if offset < 0 or offset + size > len(self.globals):
            raise VmFault(
                f"globals access [{offset}:{offset + size}] out of bounds "
                f"(size {len(self.globals)})"
            )


def _div_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise VmFault("division by zero")
    return lhs // rhs


def _mod_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise VmFault("division by zero")
    return lhs % rhs


def _div_s(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise VmFault("division by zero")
    a, b = to_signed(lhs), to_signed(rhs)
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return to_unsigned(quotient)


def _mod_s(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise VmFault("division by zero")
    a, b = to_signed(lhs), to_signed(rhs)
    remainder = abs(a) % abs(b)
    if a < 0:
        remainder = -remainder
    return to_unsigned(remainder)


def _shift_amount(rhs: int) -> int:
    return rhs & 63


_BINARY_HANDLERS = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIVU: _div_u,
    Op.MODU: _mod_u,
    Op.DIVS: _div_s,
    Op.MODS: _mod_s,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << _shift_amount(b),
    Op.SHRU: lambda a, b: a >> _shift_amount(b),
    Op.SHRS: lambda a, b: to_unsigned(to_signed(a) >> _shift_amount(b)),
    Op.EQ: lambda a, b: int(a == b),
    Op.NE: lambda a, b: int(a != b),
    Op.LTU: lambda a, b: int(a < b),
    Op.LEU: lambda a, b: int(a <= b),
    Op.GTU: lambda a, b: int(a > b),
    Op.GEU: lambda a, b: int(a >= b),
    Op.LTS: lambda a, b: int(to_signed(a) < to_signed(b)),
    Op.LES: lambda a, b: int(to_signed(a) <= to_signed(b)),
    Op.GTS: lambda a, b: int(to_signed(a) > to_signed(b)),
    Op.GES: lambda a, b: int(to_signed(a) >= to_signed(b)),
}

_UNARY_HANDLERS = {
    Op.BNOT: lambda a: ~a,
    Op.NEG: lambda a: -a,
    Op.LNOT: lambda a: 0 if a else 1,
}


def evaluate(op: Op, *operands: int) -> int:
    """What the VM leaves on the stack for ALU ``op`` over ``operands``.

    The handler tables above are the one definition of 64-bit arithmetic:
    ``_execute`` dispatches through them, and the verifier's constant
    propagation and the Cpf compiler's constant folding call this, so
    neither can disagree with what runs. Operands are taken mod 2^64; a
    zero divisor raises :class:`VmFault`.
    """
    handler: Callable[..., int] = (
        _BINARY_HANDLERS[op] if len(operands) == 2 else _UNARY_HANDLERS[op]
    )
    return handler(*(value & MASK64 for value in operands)) & MASK64
