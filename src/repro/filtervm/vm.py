"""The filter VM.

Only a program the static verifier accepted runs: an
:class:`AdmittedProgram` is lowered once to straight-line Python per basic
block, without the checks the verifier proved unnecessary (stack depth,
call depth, jump and local range). Every invocation is bounded by the fuel
budget the program was admitted against, and every fault that remains
possible — out-of-bounds packet, info or globals access, division by zero,
fuel exhaustion — aborts with verdict 0 (deny). Monitors therefore fail
closed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Protocol

from repro.filtervm.isa import (
    BINARY_OPS,
    DIVISION_OPS,
    GLOBAL_LOADS,
    GLOBAL_STORES,
    INFO_LOADS,
    JUMP_OPS,
    MASK64,
    PACKET_LOADS,
    UNARY_OPS,
    Op,
    to_signed,
    to_unsigned,
)
from repro.filtervm.program import ENTRY_SIGNATURES, FilterProgram, ProgramError
from repro.util.memo import BoundedMemo

if TYPE_CHECKING:
    from repro.filtervm.verify import VerifierReport
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
    """An admitted program instantiated with its persistent globals.

    One ``FilterVM`` lives for the duration of an experiment: its globals
    survive across invocations (the paper's stateful-filtering requirement)
    while stack and locals are per-invocation. Only an
    :class:`AdmittedProgram` can be instantiated, and it runs on the fuel
    limit it was admitted against: the verifier's guarantees hold only for
    that budget.
    """

    def __init__(
        self,
        program: AdmittedProgram,
        info: Optional[InfoSource] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        if not isinstance(program, AdmittedProgram):
            raise TypeError("FilterVM runs only an AdmittedProgram, "
                            f"got {type(program).__name__}")
        self.program = program.program
        self.info = info or BytesInfo(b"")
        self.fuel_limit = program.fuel_limit
        self.globals = bytearray(self.program.globals_size)
        self.faults = 0
        self.instructions_executed = 0
        self.last_fault: Optional[str] = None
        self._obs = obs
        self._entries = program.entries

    def has_entry(self, name: str) -> bool:
        return name in self._entries

    def run_init(self) -> None:
        """Run the optional ``init`` entry point once, if present."""
        if self.has_entry("init"):
            self.invoke("init", packet=b"", args=())

    def invoke(
        self, entry: str, packet: bytes = b"", args: tuple[int, ...] = ()
    ) -> int:
        """Run an entry point; returns its verdict (0 on any fault)."""
        lowered = self._entries.get(entry)
        if lowered is None:
            raise ProgramError(f"program has no entry point {entry!r}")
        # the verifier admits an entry point only with its signature
        n_args = ENTRY_SIGNATURES[entry]
        if len(args) != n_args:
            raise ProgramError(
                f"entry {entry!r} takes {n_args} args, got {len(args)}"
            )
        budget = self.fuel_limit
        obs = self._obs
        try:
            verdict, fuel_left = lowered(
                self, [], packet, budget, *map(to_unsigned, args)
            )
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
    lowered code calls them, and the verifier's constant propagation and
    the Cpf compiler's constant folding call this, so neither can disagree
    with what runs. Operands are taken mod 2^64; a
    zero divisor raises :class:`VmFault`.
    """
    handler: Callable[..., int] = (
        _BINARY_HANDLERS[op] if len(operands) == 2 else _UNARY_HANDLERS[op]
    )
    return handler(*(value & MASK64 for value in operands)) & MASK64


# ---------------------------------------------------------------------------
# Admitted programs: verified once, then run without the proved checks
# ---------------------------------------------------------------------------

# Lowered entry points memoized by program content: a fleet admits the
# same monitor for every session.
_LOWERED_CACHE: BoundedMemo = BoundedMemo(64)


class AdmittedProgram:
    """A program the static verifier accepted, lowered once for speed.

    The constructor is the admission: it verifies its own copy of the
    program (``verify``'s memo makes a repeat cheap) and raises
    :class:`~repro.filtervm.verify.VerifyRejected` unless the verifier
    accepts, so only the content that passed is ever lowered and run.
    ``report`` is that verification's report, and ``fuel_limit`` the budget
    it was checked against, which every :class:`FilterVM` of this program
    runs on.

    The entry points run as generated Python, one straight-line stretch
    per reachable basic block, which leaves out exactly the checks the
    verifier discharged: stack underflow and overflow, call depth, pc and
    jump range, and local-slot range. Every data-dependent check stays:
    packet, info and globals bounds, non-constant division, and fuel.

    Immutable; the lowered code is shared by every admission of the same
    program content.
    """

    __slots__ = ("program", "report", "entries", "fuel_limit")
    program: FilterProgram
    report: "VerifierReport"
    entries: Mapping[str, Callable[..., tuple[int, int]]]
    fuel_limit: int

    def __init__(self, program: FilterProgram, *,
                 info_size: Optional[int] = None,
                 fuel_limit: int = DEFAULT_FUEL) -> None:
        # repro.filtervm.verify imports this module, so it is imported here.
        from repro.filtervm.verify import verify_or_raise

        snapshot = program.snapshot()
        code, functions, globals_size = snapshot
        copy = FilterProgram(code=list(code), functions=list(functions),
                             globals_size=globals_size)
        report = verify_or_raise(copy, info_size=info_size,
                                 fuel_limit=fuel_limit)
        entries = _LOWERED_CACHE.get(snapshot)
        if entries is None:
            entries = _LOWERED_CACHE.put(snapshot,
                                         MappingProxyType(_lower(copy)))
        object.__setattr__(self, "program", copy)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "fuel_limit", fuel_limit)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("an admitted program is immutable")


_BLOCK_ENDS = JUMP_OPS | {Op.CALL, Op.RET}
# Emitted before an instruction that can fault or write globals, with the
# number of instructions ahead of it in its block: it runs only if the fuel
# left at the block's entry pays for those and for itself.
_FUEL_GUARD = "if fuel <= {}: raise VmFault('fuel exhausted')"


def _bounds_fault(access: str, value: int, width: int, limit: str) -> VmFault:
    offset = to_signed(value)
    return VmFault(
        f"{access} [{offset}:{offset + width}] out of bounds ({limit})"
    )


def _lower(program: FilterProgram) -> dict[str, Callable[..., tuple[int, int]]]:
    """Compile the code an accepted program can run to Python.

    Function ``i`` becomes ``f<i>(vm, stack, packet, fuel, *args)``
    returning ``(verdict, fuel left)``; a CALL is a Python call, and all
    frames share one operand stack. Arithmetic goes through the handler
    tables above.

    Only what the verifier checked is lowered: the entry points, the
    functions they may call, and in each the blocks reachable from its
    start. Dead code is never checked, so it is never compiled either.
    Returns the entry points by name.
    """
    offsets = sorted(function.offset for function in program.functions)
    offsets.append(len(program.code))
    entries = {index for index, function in enumerate(program.functions)
               if function.name in ENTRY_SIGNATURES}
    lowered, worklist = set(entries), list(entries)
    source: list[str] = []
    while worklist:
        index = worklist.pop()
        end = offsets[offsets.index(program.functions[index].offset) + 1]
        lines, callees = _lower_function(program, index, end)
        source += lines
        worklist += callees - lowered
        lowered |= callees
    scope: dict[str, Any] = {
        "VmFault": VmFault, "to_signed": to_signed, "_bounds_fault": _bounds_fault,
    }
    for op, handler in {**_BINARY_HANDLERS, **_UNARY_HANDLERS}.items():
        scope[f"op_{op.name.lower()}"] = handler
    # compiled under this file's name so profilers attribute it to filtervm
    exec(compile("\n".join(source), __file__, "exec"), scope)
    return {program.functions[index].name: scope[f"f{index}"]
            for index in entries}


def _lower_function(program: FilterProgram, index: int,
                    end: int) -> tuple[list[str], set[int]]:
    """One VM function: a loop over its reachable basic blocks in code
    order, with ``b`` the pc of the block to run next. A forward jump
    falls through the tests in between; a backward one starts the loop
    again. Returns the source and the indices of the functions it calls."""
    function = program.functions[index]
    start = function.offset
    leaders = {start}
    for pc in range(start, end):
        instruction = program.code[pc]
        if instruction.op in _BLOCK_ENDS:
            leaders.add(pc + 1)
            if instruction.op in JUMP_OPS:
                leaders.add(instruction.operand)
    starts = sorted(pc for pc in leaders if start <= pc < end)
    stops = dict(zip(starts, starts[1:] + [end]))
    reachable: set[int] = set()
    callees: set[int] = set()
    worklist = [start]
    while worklist:
        lead = worklist.pop()
        if lead in reachable:
            continue
        reachable.add(lead)
        last = program.code[stops[lead] - 1]
        if last.op == Op.CALL:
            callees.add(last.operand)
        if last.op in JUMP_OPS:
            worklist.append(last.operand)
        if last.op != Op.RET and last.op != Op.JMP:
            worklist.append(stops[lead])
    uses: set[str] = set()
    body: list[str] = []
    for lead in starts:
        if lead not in reachable:
            continue
        body.append(f"        if b == {lead}:")
        body += ["            " + line
                 for line in _lower_block(program, lead, stops[lead], uses)]
    arguments = "".join(f", l{slot}" for slot in range(function.n_args))
    prologue = [f"def f{index}(vm, S, P, fuel{arguments}):"]
    prologue += ["    " + line for name, line in (
        ("push", "push = S.append"), ("pop", "pop = S.pop"), ("n", "n = len(P)"),
        ("G", "G = vm.globals"), ("info", "info = vm.info.read"),
    ) if name in uses]
    prologue += [f"    l{slot} = 0"
                 for slot in range(function.n_args, function.n_locals)]
    prologue += [f"    b = {start}", "    while True:"]
    return prologue + body + [
        "        raise AssertionError(f'no lowered block at pc {b}')"
    ], callees


class _Block:
    """Straight-line Python for one basic block.

    The operand stack is kept symbolically: each pending value is a
    literal, a temporary, a local slot ``l<i>`` or ``n`` (the packet
    length). Only the values still pending when the block ends are pushed
    onto the real stack, and only values from before the block are popped
    from it.
    """

    def __init__(self, uses: set[str]) -> None:
        self.lines: list[str] = []
        self.pending: list[str] = []
        self.uses = uses
        self._temps = 0

    def let(self, expr: str) -> str:
        """Bind ``expr`` to a fresh temporary; returns its name."""
        self._temps += 1
        name = f"t{self._temps}"
        self.lines.append(f"{name} = {expr}")
        return name

    def pop(self) -> str:
        if self.pending:
            return self.pending.pop()
        self.uses.add("pop")
        return self.let("pop()")

    def flush(self) -> None:
        if self.pending:
            self.uses.add("push")
            self.lines += [f"push({value})" for value in self.pending]
            self.pending.clear()


def _load(buffer: str, offset: str, width: int) -> str:
    if width == 1:
        return f"{buffer}[{offset}]"
    return f"int.from_bytes({buffer}[{offset}:{offset} + {width}], 'big')"


def _lower_block(program: FilterProgram, lead: int, stop: int,
                 uses: set[str]) -> list[str]:
    """The block ``[lead, stop)``, ending in its terminator or in a
    fall-through to ``stop``. Fuel is charged for the whole block at its
    end, and guarded before each instruction that can fault or write."""
    block = _Block(uses)
    pending, lines = block.pending, block.lines
    globals_size = program.globals_size
    for done, pc in enumerate(range(lead, stop)):
        instruction = program.code[pc]
        op = instruction.op
        if op in _BLOCK_ENDS:
            break
        if op == Op.PUSH:
            pending.append(str(to_unsigned(instruction.operand)))
        elif op == Op.POP:
            block.pop()
        elif op == Op.DUP:
            value = block.pop()
            pending += [value, value]
        elif op == Op.SWAP:
            top = block.pop()
            pending += [top, block.pop()]
        elif op == Op.LDL:
            pending.append(f"l{instruction.operand}")
        elif op == Op.STL:
            slot = f"l{instruction.operand}"
            value = block.pop()
            if slot in pending:  # values loaded before the store keep theirs
                old = block.let(slot)
                pending[:] = [old if item == slot else item for item in pending]
            lines.append(f"{slot} = {value}")
        elif op in BINARY_OPS or op in UNARY_OPS:
            operands = [block.pop()]
            if op in BINARY_OPS:
                operands.insert(0, block.pop())
            if all(item.isdigit() for item in operands):
                try:
                    pending.append(str(evaluate(op, *map(int, operands))))
                    continue
                except VmFault:
                    pass
            divisor = operands[-1]
            if op in DIVISION_OPS and not (divisor.isdigit() and divisor != "0"):
                lines.append(_FUEL_GUARD.format(done))
            pending.append(block.let(
                f"op_{op.name.lower()}({', '.join(operands)}) & {MASK64}"
            ))
        elif op == Op.PKTLEN:
            uses.add("n")
            pending.append("n")
        elif op in PACKET_LOADS:
            width = PACKET_LOADS[op]
            offset = block.pop()
            uses.add("n")
            lines.append(_FUEL_GUARD.format(done))
            lines.append(f"if {offset} > n - {width}: raise _bounds_fault("
                         f"'packet read', {offset}, {width}, f'len {{n}}')")
            pending.append(block.let(_load("P", offset, width)))
        elif op in INFO_LOADS:
            offset = block.pop()
            signed = (str(to_signed(int(offset))) if offset.isdigit()
                      else f"to_signed({offset})")
            uses.add("info")
            lines.append(_FUEL_GUARD.format(done))
            pending.append(block.let(
                f"int.from_bytes(info({signed}, {INFO_LOADS[op]}), 'big')"
            ))
        else:  # globals
            width = GLOBAL_LOADS.get(op) or GLOBAL_STORES[op]
            offset = block.pop()
            stored = block.pop() if op in GLOBAL_STORES else None
            uses.add("G")
            in_bounds = offset.isdigit() and int(offset) <= globals_size - width
            if stored is not None or not in_bounds:
                lines.append(_FUEL_GUARD.format(done))
            if not in_bounds:
                lines.append(f"if {offset} > {globals_size - width}: raise "
                             f"_bounds_fault('globals access', {offset}, "
                             f"{width}, 'size {globals_size}')")
            if stored is None:
                pending.append(block.let(_load("G", offset, width)))
            elif width == 1:
                lines.append(f"G[{offset}] = {stored} & 255")
            else:
                lines.append(
                    f"G[{offset}:{offset} + {width}] = ({stored} & "
                    f"{(1 << 8 * width) - 1}).to_bytes({width}, 'big')"
                )
    last = program.code[stop - 1]
    op, target = last.op, last.operand
    # The terminator's operands leave the symbolic stack before the rest
    # is pushed, as they leave the real stack in the VM's semantics.
    if op == Op.JZ or op == Op.JNZ:
        test = f"{block.pop()} {'==' if op == Op.JZ else '!='} 0"
    elif op == Op.RET:
        result = block.pop()
    elif op == Op.CALL:
        popped = [block.pop() for _ in range(program.functions[target].n_args)]
        arguments = "".join(f", {value}" for value in reversed(popped))
    block.flush()
    lines.append(f"if fuel < {stop - lead}: raise VmFault('fuel exhausted')")
    lines.append(f"fuel -= {stop - lead}")
    if op == Op.RET:
        lines.append(f"return {result}, fuel")
    elif op == Op.CALL:
        uses.add("push")
        lines += [f"result, fuel = f{target}(vm, S, P, fuel{arguments})",
                  "push(result)", f"b = {stop}"]
    elif op == Op.JMP:
        lines.append(f"b = {target}")
        if target <= lead:
            lines.append("continue")
    elif op in JUMP_OPS and target > lead:
        lines.append(f"b = {target} if {test} else {stop}")
    elif op in JUMP_OPS:
        lines += [f"if {test}:", f"    b = {target}", "    continue",
                  f"b = {stop}"]
    else:
        lines.append(f"b = {stop}")
    return lines
