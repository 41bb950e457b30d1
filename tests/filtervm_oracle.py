"""The fully checked reference interpreter for the filter VM.

``OracleVM`` runs any structurally valid program one instruction at a
time and checks everything at run time: stack depth, call depth, jump and
local range as well as packet, info and globals bounds, division and fuel.
The package runs only admitted programs, as lowered code without the
checks the verifier proved; this interpreter is what that code is tested
against (same verdicts, fuel, faults, fault text and globals), and what
the ISA and Cpf semantics tests run, since they call functions that are
not entry points or programs no endpoint would admit.
"""

from __future__ import annotations

from typing import Optional

from repro.filtervm.isa import MASK64, Op, to_signed, to_unsigned
from repro.filtervm.program import FilterProgram, ProgramError
from repro.filtervm.vm import (
    _BINARY_HANDLERS,
    _UNARY_HANDLERS,
    DEFAULT_FUEL,
    MAX_CALL_DEPTH,
    MAX_STACK,
    BytesInfo,
    InfoSource,
    VmFault,
)


class OracleVM:
    """A program with its persistent globals, run on ``_execute``.

    The same surface as :class:`repro.filtervm.FilterVM`, but built from a
    bare :class:`FilterProgram` and a fuel limit, and any function of the
    program can be invoked.
    """

    def __init__(
        self,
        program: FilterProgram,
        info: Optional[InfoSource] = None,
        fuel_limit: int = DEFAULT_FUEL,
    ) -> None:
        program.verify()
        self.program = program
        self.info = info or BytesInfo(b"")
        self.fuel_limit = fuel_limit
        self.globals = bytearray(program.globals_size)
        self.faults = 0
        self.instructions_executed = 0
        self.last_fault: Optional[str] = None
        self._functions = {function.name: function
                           for function in program.functions}

    def has_entry(self, name: str) -> bool:
        return name in self._functions

    def run_init(self) -> None:
        """Run the optional ``init`` function once, if present."""
        if self.has_entry("init"):
            self.invoke("init", packet=b"", args=())

    def invoke(
        self, entry: str, packet: bytes = b"", args: tuple[int, ...] = ()
    ) -> int:
        """Run a function; returns its verdict (0 on any fault)."""
        function = self._functions.get(entry)
        if function is None:
            raise ProgramError(f"program has no entry point {entry!r}")
        if len(args) != function.n_args:
            raise ProgramError(
                f"entry {entry!r} takes {function.n_args} args, got {len(args)}"
            )
        budget = self.fuel_limit
        try:
            verdict, fuel_left = self._execute(function, packet, args, budget)
        except VmFault as fault:
            self.faults += 1
            self.last_fault = str(fault)
            return 0
        self.instructions_executed += budget - fuel_left
        return verdict

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
