"""Static verifier for filter VM programs (§3.4's BPF admission property).

The paper grounds the monitor mechanism in BPF's key property: untrusted
filter code whose safety is checked *before* it runs. The VM already fails
closed at runtime (fuel, fault-to-deny), but a broken monitor then denies
every packet one invocation at a time, and the experimenter only learns
mid-session. This module is the missing static layer: endpoints verify a
monitor once, at install time, and reject programs that can provably fault
— in the spirit of the classic BPF/eBPF verifier, adapted to this VM's
stack machine (BPF forbids loops outright; we allow them and fall back to
the runtime fuel bound, reporting a static worst-case fuel bound whenever
the program is loop-free).

Checks, in order:

1. **Structure** — function table sanity (offsets on instruction
   boundaries inside the code, locals/args limits), jump targets and call
   indices in range, entry-point signatures (``send``/``recv`` take two
   arguments, ``init`` takes none).
2. **Control flow** — per-function CFG over the function's code extent;
   control may not fall off the end of a function or jump into another
   one (the VM has no function boundaries, so such programs would
   silently run foreign code with the wrong frame).
3. **Stack discipline** — abstract interpretation computing a per
   -instruction interval of possible stack depths, proving no path
   underflows and depth never exceeds ``MAX_STACK``.
4. **Call graph** — recursion is rejected; the deepest acyclic call chain
   must fit ``MAX_CALL_DEPTH``. Frames share one operand stack, so a
   called function must return exactly its result, and the deepest chain
   of nested frames must fit ``MAX_STACK``.
5. **Constant propagation** — flags guaranteed faults reachable from the
   entry: out-of-bounds ``globals``/``locals``/``info`` access at constant
   offsets, constant division by zero, constant-negative packet offsets.
6. **Unreachable code** — dead instructions are reported as warnings (the
   verdict stays ACCEPT; dead code is suspicious, not unsafe).
7. **Fuel bound** — for loop-free functions, the worst-case instruction
   count, compared against the runtime fuel limit.

Soundness contract (tested property): on the fully checked reference VM
(the tests' oracle), a program accepted by :func:`verify` never faults on
stack underflow or overflow, call depth, jump or local range, so admitted
code runs without those checks. Faults that depend on data (packet bounds,
non-constant division) remain the runtime's job and still fail closed.

Command line::

    python -m repro.filtervm.verify monitor.plf
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

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
    Instruction,
    Op,
    to_signed,
)
from repro.filtervm.program import (
    ENTRY_INIT,
    ENTRY_RECV,
    ENTRY_SEND,
    ENTRY_SIGNATURES,
    MAX_CODE_LENGTH,
    MAX_FUNCTIONS,
    MAX_GLOBALS_SIZE,
    MAX_LOCALS,
    FilterProgram,
    Function,
)
from repro.filtervm.vm import DEFAULT_FUEL, MAX_CALL_DEPTH, MAX_STACK, evaluate
from repro.util.memo import BoundedMemo

SEV_ERROR = "error"
SEV_WARNING = "warning"

# Reports memoized by everything they depend on: the program's content and
# the info size and fuel limit it is checked against. Fleet sessions admit
# the same monitor over and over; each gets its own copy of the report.
_VERIFY_CACHE: BoundedMemo = BoundedMemo(64)

# How many times one instruction's depth interval may be refined before we
# widen straight to the overflow bound. Balanced loops converge in two or
# three passes; only a net-growing loop keeps refining, and such a loop
# really can reach any depth.
_WIDEN_AFTER = 16

_LOAD_SIZES = {**PACKET_LOADS, **INFO_LOADS, **GLOBAL_LOADS}
_STORE_SIZES = GLOBAL_STORES


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic, anchored to a function and instruction."""

    severity: str  # SEV_ERROR | SEV_WARNING
    code: str  # short kebab-case rule name, e.g. "stack-underflow"
    message: str
    function: str = ""
    pc: Optional[int] = None  # absolute code index

    def render(self) -> str:
        where = ""
        if self.function:
            where = f" {self.function}"
            if self.pc is not None:
                where += f"+{self.pc}"
        return f"{self.severity}[{self.code}]{where}: {self.message}"


@dataclass
class VerifierReport:
    """The outcome of verifying one program."""

    findings: list[Finding] = field(default_factory=list)
    # Worst-case fuel per entry point; None = contains loops/recursion and
    # is bounded only by the runtime fuel limit.
    fuel_bounds: dict[str, Optional[int]] = field(default_factory=dict)
    n_instructions: int = 0
    n_functions: int = 0
    globals_size: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEV_WARNING]

    @property
    def ok(self) -> bool:
        """Accepted: no errors (warnings do not block admission)."""
        return not self.errors

    def error(self, code: str, message: str, function: str = "",
              pc: Optional[int] = None) -> None:
        self.findings.append(Finding(SEV_ERROR, code, message, function, pc))

    def warn(self, code: str, message: str, function: str = "",
             pc: Optional[int] = None) -> None:
        self.findings.append(Finding(SEV_WARNING, code, message, function, pc))

    def render(self) -> str:
        """Human-readable multi-line report (what AuthFail carries)."""
        verdict = "ACCEPT" if self.ok else "REJECT"
        lines = [
            f"filter program: {self.n_functions} function(s), "
            f"{self.n_instructions} instruction(s), "
            f"{self.globals_size} B globals",
            f"verdict: {verdict} ({len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s))",
        ]
        lines.extend(f"  {finding.render()}" for finding in self.findings)
        if self.fuel_bounds:
            bounds = ", ".join(
                f"{name} <= {bound}" if bound is not None
                else f"{name}: loops (runtime fuel bound applies)"
                for name, bound in sorted(self.fuel_bounds.items())
            )
            lines.append(f"worst-case fuel: {bounds}")
        return "\n".join(lines)


@dataclass
class FunctionExtent:
    """A function's half-open slice of the flat code array."""

    function: Function
    start: int
    end: int


@dataclass
class StackUse:
    """One function's operand-stack use, in depths above its frame base."""

    peak: int = 0  # deepest the function's own frame reaches
    # CALL pc -> the most values the caller leaves under the callee's frame
    call_bases: dict[int, int] = field(default_factory=dict)
    # RET pc -> the deepest stack on reaching it, the result included
    returns: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Stack effects
# ---------------------------------------------------------------------------


# (pops, pushes) for every opcode except CALL, whose pops depend on the
# callee's arity. Precomputed so the abstract interpreters can look up
# effects in O(1) instead of probing a chain of opcode sets per visit.
_FIXED_EFFECTS: dict[Op, tuple[int, int]] = {
    **{op: (2, 1) for op in BINARY_OPS},
    **{op: (1, 1) for op in UNARY_OPS},
    Op.PUSH: (0, 1), Op.LDL: (0, 1), Op.PKTLEN: (0, 1),
    Op.POP: (1, 0), Op.STL: (1, 0), Op.JZ: (1, 0), Op.JNZ: (1, 0),
    Op.RET: (1, 0),
    Op.DUP: (1, 2),
    Op.SWAP: (2, 2),
    Op.JMP: (0, 0),
    **{op: (1, 1) for op in _LOAD_SIZES},
    **{op: (2, 0) for op in _STORE_SIZES},
}


def stack_effect(instruction: Instruction,
                 functions: list[Function]) -> tuple[int, int]:
    """(pops, pushes) of one instruction; CALL depends on the callee."""
    op = instruction.op
    if op == Op.CALL:
        callee = functions[instruction.operand]
        return callee.n_args, 1
    effect = _FIXED_EFFECTS.get(op)
    if effect is None:
        raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover
    return effect


# ---------------------------------------------------------------------------
# Per-function control flow
# ---------------------------------------------------------------------------


class FunctionCfg:
    """Successor map + basic blocks for one function's extent.

    Successors that leave the extent (fall-through past the end, jumps
    into another function) are recorded as escapes rather than edges; the
    verifier turns reachable escapes into errors.
    """

    def __init__(self, code: list[Instruction], extent: FunctionExtent) -> None:
        self.extent = extent
        self._blocks: Optional[list[tuple[int, int]]] = None
        self.successors: dict[int, list[int]] = {}
        # pc -> description of where control escapes to (or None for a
        # well-behaved instruction).
        self.escapes: dict[int, str] = {}
        end = extent.end
        for pc in range(extent.start, end):
            instruction = code[pc]
            op = instruction.op
            if op == Op.RET:
                self.successors[pc] = []
                continue
            if op == Op.JMP:
                targets = [instruction.operand]
            elif op == Op.JZ or op == Op.JNZ:
                targets = [instruction.operand, pc + 1]
            elif pc + 1 < end:  # plain fall-through, the common case
                self.successors[pc] = [pc + 1]
                continue
            else:
                targets = [pc + 1]
            kept = []
            for target in targets:
                if extent.start <= target < extent.end:
                    kept.append(target)
                elif target == extent.end and op not in JUMP_OPS:
                    self.escapes[pc] = "control falls off the end of the function"
                else:
                    self.escapes[pc] = (
                        f"jump to {target} leaves the function "
                        f"[{extent.start}, {extent.end})"
                    )
            self.successors[pc] = kept

    def reachable(self) -> set[int]:
        seen = {self.extent.start}
        stack = [self.extent.start]
        while stack:
            pc = stack.pop()
            for successor in self.successors[pc]:
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return seen

    def basic_blocks(self) -> list[tuple[int, int]]:
        """Half-open (start, end) block boundaries, in code order."""
        if self._blocks is not None:
            return self._blocks
        starts = {self.extent.start}
        for pc in range(self.extent.start, self.extent.end):
            successors = self.successors[pc]
            # A block also ends where control cannot fall through (RET, an
            # escape): what follows is only reached by a jump, or is dead.
            if successors != [pc + 1]:
                starts.update(successors)
                starts.add(pc + 1)
        starts.discard(self.extent.end)
        ordered = sorted(starts)
        blocks = []
        for index, start in enumerate(ordered):
            end = ordered[index + 1] if index + 1 < len(ordered) else self.extent.end
            blocks.append((start, end))
        self._blocks = blocks
        return blocks


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


class _Verifier:
    def __init__(self, program: FilterProgram, info_size: Optional[int],
                 fuel_limit: int) -> None:
        self.program = program
        self.info_size = info_size
        self.fuel_limit = fuel_limit
        self.report = VerifierReport(
            n_instructions=len(program.code),
            n_functions=len(program.functions),
            globals_size=program.globals_size,
        )
        self.extents: list[FunctionExtent] = []
        self.cfgs: dict[str, FunctionCfg] = {}
        self.reachable: dict[str, set[int]] = {}
        # Functions whose depth analysis succeeded -> their stack use.
        self.stack_use: dict[str, StackUse] = {}

    # -- driver -------------------------------------------------------------

    def run(self) -> VerifierReport:
        if not self.check_structure():
            return self.report
        self.check_entry_signatures()
        self.build_extents()
        for extent in self.extents:
            self.analyze_function(extent)
        self.check_call_graph()
        self.check_shared_stack()
        self.check_unused_functions()
        self.compute_fuel_bounds()
        return self.report

    # -- 1. structure -------------------------------------------------------

    def check_structure(self) -> bool:
        """Table/range sanity; returns False when analysis cannot proceed."""
        program = self.program
        report = self.report
        ok = True
        if len(program.code) > MAX_CODE_LENGTH:
            report.error("code-too-long",
                         f"{len(program.code)} instructions exceed "
                         f"{MAX_CODE_LENGTH}")
            ok = False
        if len(program.functions) > MAX_FUNCTIONS:
            report.error("too-many-functions",
                         f"{len(program.functions)} functions exceed "
                         f"{MAX_FUNCTIONS}")
            ok = False
        if not 0 <= program.globals_size <= MAX_GLOBALS_SIZE:
            report.error("bad-globals-size",
                         f"declared globals size {program.globals_size} "
                         f"outside [0, {MAX_GLOBALS_SIZE}]")
            ok = False
        names = [function.name for function in program.functions]
        if len(set(names)) != len(names):
            report.error("duplicate-function",
                         "duplicate function names in the function table")
            ok = False
        for function in program.functions:
            if not 0 <= function.offset < len(program.code):
                report.error(
                    "bad-function-offset",
                    f"offset {function.offset} outside code of length "
                    f"{len(program.code)} (a function must have a body)",
                    function=function.name,
                )
                ok = False
            if function.n_locals > MAX_LOCALS:
                report.error("too-many-locals",
                             f"{function.n_locals} locals exceed {MAX_LOCALS}",
                             function=function.name)
            if function.n_args > function.n_locals:
                report.error("bad-signature",
                             f"{function.n_args} args exceed "
                             f"{function.n_locals} locals",
                             function=function.name)
                ok = False
        offsets = [f.offset for f in program.functions]
        if len(set(offsets)) != len(offsets):
            report.error("duplicate-offset",
                         "two functions share a code offset")
            ok = False
        for pc, instruction in enumerate(program.code):
            if instruction.op in JUMP_OPS:
                if not 0 <= instruction.operand < len(program.code):
                    report.error(
                        "bad-jump",
                        f"jump targets {instruction.operand}, outside code "
                        f"of length {len(program.code)}",
                        pc=pc,
                    )
                    ok = False
            elif instruction.op == Op.CALL:
                if not 0 <= instruction.operand < len(program.functions):
                    report.error(
                        "bad-call",
                        f"call references function index "
                        f"{instruction.operand} of "
                        f"{len(program.functions)}",
                        pc=pc,
                    )
                    ok = False
        if not program.functions:
            report.error("no-functions", "program defines no functions")
            ok = False
        return ok

    def check_entry_signatures(self) -> None:
        report = self.report
        found = False
        for name, n_args in ENTRY_SIGNATURES.items():
            function = self.program.function_named(name)
            if function is None:
                continue
            found = True
            if function.n_args != n_args:
                report.error(
                    "bad-entry-signature",
                    f"entry point takes {function.n_args} argument(s), "
                    f"expected {n_args}",
                    function=name,
                )
        if not found:
            report.error(
                "no-entry-point",
                "program defines none of the recognized entry points "
                f"({ENTRY_SEND}/{ENTRY_RECV}/{ENTRY_INIT})",
            )

    def build_extents(self) -> None:
        ordered = sorted(self.program.functions, key=lambda f: f.offset)
        code_len = len(self.program.code)
        for index, function in enumerate(ordered):
            end = ordered[index + 1].offset if index + 1 < len(ordered) else code_len
            self.extents.append(FunctionExtent(function, function.offset, end))
        if ordered and ordered[0].offset > 0:
            self.report.warn(
                "orphan-code",
                f"instructions 0..{ordered[0].offset - 1} precede the first "
                "function and can never execute",
                pc=0,
            )

    # -- 2..3. per-function CFG + stack discipline --------------------------

    def analyze_function(self, extent: FunctionExtent) -> None:
        function = extent.function
        cfg = FunctionCfg(self.program.code, extent)
        self.cfgs[function.name] = cfg
        reachable = cfg.reachable()
        self.reachable[function.name] = reachable

        for pc in sorted(cfg.escapes):
            if pc in reachable:
                self.report.error("control-escape", cfg.escapes[pc],
                                  function=function.name, pc=pc)
        self.check_locals(extent, reachable)
        self.report_unreachable(extent, reachable)
        if any(pc in cfg.escapes for pc in reachable):
            # Depth analysis on an escaping CFG would chase foreign code.
            return
        # Shared by both abstract interpreters: pc -> (pops, pushes).
        code = self.program.code
        functions = self.program.functions
        effects: dict[int, tuple[int, int]] = {}
        for pc in range(extent.start, extent.end):
            op = code[pc].op
            if op == Op.CALL:
                effects[pc] = (functions[code[pc].operand].n_args, 1)
            else:
                effects[pc] = _FIXED_EFFECTS[op]
        depths = self.check_stack_depths(extent, cfg, reachable, effects)
        if depths is not None:
            self.propagate_constants(extent, cfg, reachable, depths, effects)

    def check_locals(self, extent: FunctionExtent, reachable: set[int]) -> None:
        """LDL/STL operands must name an existing frame slot."""
        function = extent.function
        code = self.program.code
        for pc in range(extent.start, extent.end):
            instruction = code[pc]
            if (instruction.op == Op.LDL or instruction.op == Op.STL) \
                    and pc in reachable:
                if not 0 <= instruction.operand < function.n_locals:
                    self.report.error(
                        "bad-local",
                        f"{instruction.op.name.lower()} {instruction.operand} "
                        f"outside the {function.n_locals} frame slot(s)",
                        function=function.name, pc=pc,
                    )

    def report_unreachable(self, extent: FunctionExtent,
                           reachable: set[int]) -> None:
        """One warning per maximal run of dead instructions."""
        run_start: Optional[int] = None
        for pc in range(extent.start, extent.end + 1):
            dead = pc < extent.end and pc not in reachable
            if dead and run_start is None:
                run_start = pc
            elif not dead and run_start is not None:
                count = pc - run_start
                span = (f"instruction {run_start}" if count == 1
                        else f"instructions {run_start}..{pc - 1}")
                self.report.warn(
                    "unreachable-code",
                    f"{span} can never execute",
                    function=extent.function.name, pc=run_start,
                )
                run_start = None

    def check_stack_depths(
        self, extent: FunctionExtent, cfg: FunctionCfg, reachable: set[int],
        effects: dict[int, tuple[int, int]],
    ) -> Optional[dict[int, tuple[int, int]]]:
        """Interval analysis of operand-stack depth on entry to each pc.

        Returns the per-pc depth intervals, or None when an error makes
        further value analysis meaningless.
        """
        function = extent.function
        code = self.program.code
        successors = cfg.successors
        # The worklist runs over basic blocks, not instructions: interior
        # pcs of a block have a single fall-through successor, so their
        # intervals are propagated in a tight straight-line walk and only
        # block entries live in the merge map.
        block_end = {start: end for start, end in cfg.basic_blocks()}
        depths: dict[int, tuple[int, int]] = {extent.start: (0, 0)}
        updates: dict[int, int] = {}
        worklist = [extent.start]
        flagged: set[int] = set()
        ok = True
        # Intervals only widen, so extremes over all visits are the
        # fixpoint's.
        use = StackUse()
        peak = 0
        while worklist:
            start = worklist.pop()
            lo, hi = depths[start]
            end = block_end[start]
            pc = start
            while pc < end:
                pops, pushes = effects[pc]
                op = code[pc].op
                if op == Op.CALL:
                    use.call_bases[pc] = max(use.call_bases.get(pc, 0),
                                             hi - pops)
                elif op == Op.RET:
                    use.returns[pc] = max(use.returns.get(pc, 0), hi)
                if lo < pops and pc not in flagged:
                    flagged.add(pc)
                    ok = False
                    self.report.error(
                        "stack-underflow",
                        f"{code[pc].op.name.lower()} needs {pops} value(s) "
                        f"but the stack may hold only {lo}",
                        function=function.name, pc=pc,
                    )
                out_lo = (lo - pops if lo > pops else 0) + pushes
                out_hi = (hi - pops if hi > pops else 0) + pushes
                if out_hi > MAX_STACK and pc not in flagged:
                    flagged.add(pc)
                    ok = False
                    self.report.error(
                        "stack-overflow",
                        f"stack depth may reach {out_hi}, exceeding "
                        f"MAX_STACK={MAX_STACK}",
                        function=function.name, pc=pc,
                    )
                if op == Op.RET and hi > 1 and lo > 1:
                    self.report.warn(
                        "stack-residue",
                        f"{lo - 1} value(s) left on the stack at return",
                        function=function.name, pc=pc,
                    )
                lo = out_lo
                hi = min(out_hi, MAX_STACK + 1)
                if hi > peak:
                    peak = hi
                pc += 1
            for successor in successors[end - 1]:
                seen = depths.get(successor)
                if seen is None:
                    merged = (lo, hi)
                else:
                    merged = (min(seen[0], lo), max(seen[1], hi))
                if merged != seen:
                    count = updates.get(successor, 0) + 1
                    updates[successor] = count
                    if count > _WIDEN_AFTER:
                        merged = (0, MAX_STACK + 1)
                        if successor not in flagged:
                            flagged.add(successor)
                            ok = False
                            self.report.error(
                                "stack-overflow",
                                "loop grows the stack without bound",
                                function=function.name, pc=successor,
                            )
                    if depths.get(successor) != merged:
                        depths[successor] = merged
                        worklist.append(successor)
        if not ok:
            return None
        use.peak = peak
        self.stack_use[function.name] = use
        return depths

    # -- 5. constant propagation -------------------------------------------

    def propagate_constants(
        self,
        extent: FunctionExtent,
        cfg: FunctionCfg,
        reachable: set[int],
        depths: dict[int, tuple[int, int]],
        effects: dict[int, tuple[int, int]],
    ) -> None:
        """Flag guaranteed faults at constant operands.

        The abstract value lattice is Const(v) | Top (None). Stacks are
        tracked only where the depth interval is exact; a merge of
        different depths falls back to an all-Top stack of the lower
        depth, which loses precision but never misses a *guaranteed*
        fault on the precise paths. Constants are folded by the VM's own
        operator table (``vm.evaluate``), so this believes what runs.
        """
        code = self.program.code
        function = extent.function
        globals_size = self.program.globals_size
        # Like the depth analysis, the worklist runs over basic blocks:
        # interior pcs thread one mutable abstract stack straight through,
        # and only block entries are merged/stored.
        block_end = {start: end for start, end in cfg.basic_blocks()}
        states: dict[int, tuple] = {extent.start: ()}
        worklist = [extent.start]
        visits: dict[int, int] = {}
        flagged: set[int] = set()

        def fault(pc: int, code_name: str, message: str) -> None:
            if pc not in flagged:
                flagged.add(pc)
                self.report.error(code_name, message,
                                  function=function.name, pc=pc)

        while worklist:
            start = worklist.pop()
            count = visits.get(start, 0) + 1
            visits[start] = count
            if count > _WIDEN_AFTER:
                continue
            stack: list[Optional[int]] = list(states[start])
            end = block_end[start]
            pc = start
            imprecise = False
            while pc < end:
                instruction = code[pc]
                op = instruction.op
                # Fast paths for the ops that dominate real programs; the
                # generic popped/result machinery below handles the rest.
                if op == Op.PUSH:
                    stack.append(instruction.operand)
                    pc += 1
                    continue
                if op == Op.LDL or op == Op.PKTLEN:
                    stack.append(None)
                    pc += 1
                    continue
                pops, pushes = effects[pc]
                if len(stack) < pops:
                    # Depth analysis proved this cannot happen on precise
                    # paths; an imprecise (merged) state just stops here.
                    imprecise = True
                    break
                if op in BINARY_OPS:
                    rhs = stack.pop()
                    lhs = stack.pop()
                    if op in DIVISION_OPS and rhs == 0:
                        fault(pc, "div-by-zero",
                              f"{op.name.lower()} divides by constant zero")
                        stack.append(None)
                    elif lhs is not None and rhs is not None:
                        stack.append(evaluate(op, lhs, rhs))
                    else:
                        stack.append(None)
                    pc += 1
                    continue
                # popped[0] is the top of stack (last pushed).
                if pops:
                    popped = stack[-1:-pops - 1:-1]
                    del stack[-pops:]
                else:
                    popped = []
                result: list[Optional[int]] = [None] * pushes
                if op == Op.DUP:
                    result = [popped[0], popped[0]]
                elif op == Op.SWAP:
                    result = [popped[1], popped[0]]
                elif op in _STORE_SIZES:
                    offset = popped[0]
                    size = _STORE_SIZES[op]
                    if offset is not None:
                        signed = to_signed(offset & MASK64)
                        if not 0 <= signed <= globals_size - size:
                            fault(pc, "oob-globals",
                                  f"{op.name.lower()} at constant offset "
                                  f"{signed} outside the "
                                  f"{globals_size}-byte globals")
                elif op in _LOAD_SIZES:
                    offset = popped[0]
                    size = _LOAD_SIZES[op]
                    if offset is not None:
                        signed = to_signed(offset & MASK64)
                        if op in GLOBAL_LOADS:
                            if not 0 <= signed <= globals_size - size:
                                fault(pc, "oob-globals",
                                      f"{op.name.lower()} at constant offset "
                                      f"{signed} outside the "
                                      f"{globals_size}-byte globals")
                        elif op in INFO_LOADS:
                            if signed < 0 or (
                                self.info_size is not None
                                and signed + size > self.info_size
                            ):
                                fault(pc, "oob-info",
                                      f"{op.name.lower()} at constant offset "
                                      f"{signed} outside the info block")
                        else:  # packet loads: length is dynamic, sign is not
                            if signed < 0:
                                fault(pc, "oob-packet",
                                      f"{op.name.lower()} at constant "
                                      f"negative offset {signed}")
                elif op in UNARY_OPS and popped[0] is not None:
                    result = [evaluate(op, popped[0])]
                stack.extend(reversed(result))
                pc += 1
            if imprecise:
                continue
            out = tuple(stack)
            for successor in cfg.successors[end - 1]:
                seen = states.get(successor)
                if seen is None:
                    merged = out
                elif len(seen) != len(out):
                    merged = (None,) * min(len(seen), len(out))
                else:
                    merged = tuple(
                        a if a == b else None for a, b in zip(seen, out)
                    )
                if merged != seen:
                    states[successor] = merged
                    worklist.append(successor)

    # -- 4. call graph ------------------------------------------------------

    def call_edges(self) -> dict[str, set[str]]:
        cached = getattr(self, "_call_edges", None)
        if cached is not None:
            return cached
        edges: dict[str, set[str]] = {f.name: set() for f in
                                      self.program.functions}
        for extent in self.extents:
            callees = edges[extent.function.name]
            reachable = self.reachable.get(extent.function.name, set())
            for pc in range(extent.start, extent.end):
                if pc not in reachable:
                    continue
                instruction = self.program.code[pc]
                if instruction.op == Op.CALL:
                    callees.add(self.program.functions[instruction.operand].name)
        self._call_edges = edges
        return edges

    def check_call_graph(self) -> None:
        edges = self.call_edges()
        # Iterative DFS cycle detection with path tracking.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in edges}
        self._call_cycle = False
        for root in edges:
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, list[str]]] = [(root, sorted(edges[root]))]
            color[root] = GREY
            while stack:
                name, rest = stack[-1]
                if rest:
                    callee = rest.pop(0)
                    if color.get(callee, BLACK) == GREY:
                        self._call_cycle = True
                        cycle = [frame[0] for frame in stack]
                        cycle = cycle[cycle.index(callee):] + [callee]
                        self.report.error(
                            "recursion",
                            "recursive call cycle "
                            + " -> ".join(cycle)
                            + f" (the VM caps call depth at {MAX_CALL_DEPTH} "
                            "but recursion depth is input-dependent)",
                            function=callee,
                        )
                    elif color.get(callee) == WHITE:
                        color[callee] = GREY
                        stack.append((callee, sorted(edges[callee])))
                else:
                    color[name] = BLACK
                    stack.pop()
        if self._call_cycle:
            return
        # Longest chain of nested calls from each entry point (frames the
        # VM must hold at the deepest moment).
        depth_cache: dict[str, int] = {}

        def chain_depth(name: str) -> int:
            if name in depth_cache:
                return depth_cache[name]
            best = 0
            for callee in edges.get(name, ()):
                best = max(best, 1 + chain_depth(callee))
            depth_cache[name] = best
            return best

        for entry in ENTRY_SIGNATURES:
            if self.program.function_named(entry) is None:
                continue
            depth = chain_depth(entry)
            if depth > MAX_CALL_DEPTH:
                self.report.error(
                    "call-depth",
                    f"call chain of depth {depth} exceeds "
                    f"MAX_CALL_DEPTH={MAX_CALL_DEPTH}",
                    function=entry,
                )
        # A recursive closure holds itself through its cell; emptying the
        # cell frees it without a collector pass.
        del chain_depth

    def check_shared_stack(self) -> None:
        """Frames share one operand stack, so nesting must fit it too.

        A callee's frame sits on top of whatever its caller left under
        the arguments, and whatever the callee leaves under its result
        stays on the caller's stack. Rejected: a called function that may
        return more than its result (a loop around the call would grow the
        stack without bound), and an entry whose deepest chain of frames
        exceeds ``MAX_STACK`` although each frame fits on its own.
        """
        if getattr(self, "_call_cycle", False):
            return
        edges = self.call_edges()
        callees = {callee for name in self.live_functions()
                   for callee in edges[name]}
        for function in self.program.functions:
            use = self.stack_use.get(function.name)
            if use is None or function.name not in callees:
                continue
            for pc, hi in sorted(use.returns.items()):
                if hi > 1:
                    self.report.error(
                        "callee-residue",
                        f"may return with {hi - 1} value(s) under its "
                        "result, which its caller's stack would keep",
                        function=function.name, pc=pc,
                    )
        functions, code = self.program.functions, self.program.code
        peaks: dict[str, int] = {}

        def peak(name: str) -> int:
            if name not in peaks:
                use = self.stack_use.get(name, StackUse())
                peaks[name] = max([use.peak] + [
                    base + peak(functions[code[pc].operand].name)
                    for pc, base in use.call_bases.items()
                ])
            return peaks[name]

        for entry in ENTRY_SIGNATURES:
            if self.program.function_named(entry) is None:
                continue
            depth = peak(entry)
            if depth > MAX_STACK:
                self.report.error(
                    "stack-overflow",
                    f"nested frames may reach stack depth {depth}, "
                    f"exceeding MAX_STACK={MAX_STACK}",
                    function=entry,
                )
        del peak  # recursive closure: see check_call_graph

    def live_functions(self) -> set[str]:
        """Entry points and every function they may call."""
        edges = self.call_edges()
        live = {name for name in ENTRY_SIGNATURES
                if self.program.function_named(name) is not None}
        worklist = list(live)
        while worklist:
            name = worklist.pop()
            for callee in edges.get(name, ()):
                if callee not in live:
                    live.add(callee)
                    worklist.append(callee)
        return live

    def check_unused_functions(self) -> None:
        live = self.live_functions()
        for function in self.program.functions:
            if function.name not in live:
                self.report.warn(
                    "unused-function",
                    "never called from any entry point",
                    function=function.name,
                )

    # -- 7. fuel bound ------------------------------------------------------

    def compute_fuel_bounds(self) -> None:
        """Worst-case instruction count per entry, for loop-free programs.

        A function's bound is the longest path through its (acyclic) CFG
        where a CALL also accounts for the callee's bound. Any CFG cycle
        or call-graph cycle makes the bound None — execution is then
        bounded only by runtime fuel.
        """
        if getattr(self, "_call_cycle", False):
            for entry in ENTRY_SIGNATURES:
                if self.program.function_named(entry) is not None:
                    self.report.fuel_bounds[entry] = None
            return
        bounds: dict[str, Optional[int]] = {}

        def function_bound(name: str) -> Optional[int]:
            if name in bounds:
                return bounds[name]
            cfg = self.cfgs.get(name)
            if cfg is None:
                bounds[name] = None
                return None
            code = self.program.code
            functions = self.program.functions
            # Longest path over the *block* graph: any CFG cycle must pass
            # through a jump target (a block start), so acyclicity at the
            # block level is equivalent, and the graph is ~an order of
            # magnitude smaller than the per-pc one.
            blocks = cfg.basic_blocks()
            block_end = dict(blocks)
            bsucc = {start: cfg.successors[end - 1] for start, end in blocks}
            WHITE, GREY, BLACK = 0, 1, 2
            color = dict.fromkeys(bsucc, WHITE)
            postorder: list[int] = []
            acyclic = True
            dfs_stack: list[tuple[int, int]] = [(cfg.extent.start, 0)]
            color[cfg.extent.start] = GREY
            while dfs_stack:
                block, index = dfs_stack[-1]
                succ = bsucc[block]
                if index < len(succ):
                    dfs_stack[-1] = (block, index + 1)
                    successor = succ[index]
                    if color[successor] == GREY:
                        acyclic = False
                    elif color[successor] == WHITE:
                        color[successor] = GREY
                        dfs_stack.append((successor, 0))
                else:
                    color[block] = BLACK
                    postorder.append(block)
                    dfs_stack.pop()
            if not acyclic:
                bounds[name] = None
                return None
            memo: dict[int, Optional[int]] = {}
            for block in postorder:  # reverse topological: successors first
                # Every instruction costs one fetch; a CALL additionally
                # costs the callee's bound (its RET is inside that bound).
                cost: Optional[int] = block_end[block] - block
                for pc in range(block, block_end[block]):
                    if code[pc].op == Op.CALL:
                        callee_bound = function_bound(
                            functions[code[pc].operand].name
                        )
                        if callee_bound is None:
                            cost = None
                            break
                        cost += callee_bound
                best: Optional[int] = 0
                for successor in bsucc[block]:
                    if successor not in memo:
                        continue  # pragma: no cover - defensive
                    successor_bound = memo[successor]
                    if successor_bound is None:
                        best = None
                        break
                    if best is not None:
                        best = max(best, successor_bound)
                if cost is None or best is None:
                    memo[block] = None
                else:
                    memo[block] = cost + best
            bounds[name] = memo.get(cfg.extent.start)
            return bounds[name]

        for entry in ENTRY_SIGNATURES:
            if self.program.function_named(entry) is None:
                continue
            bound = function_bound(entry)
            self.report.fuel_bounds[entry] = bound
            if bound is not None and bound > self.fuel_limit:
                self.report.warn(
                    "fuel-bound",
                    f"worst-case cost {bound} exceeds the fuel limit "
                    f"{self.fuel_limit}; some paths would be aborted",
                    function=entry,
                )
        del function_bound  # recursive closure: see check_call_graph


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def verify(
    program: FilterProgram,
    *,
    info_size: Optional[int] = None,
    fuel_limit: int = DEFAULT_FUEL,
) -> VerifierReport:
    """Statically verify a filter/monitor program.

    ``info_size`` bounds constant info-block offsets when the caller knows
    the block it will expose (the endpoint passes its memory size);
    ``fuel_limit`` is only used to warn when a loop-free program's
    worst-case cost exceeds it.

    The analysis runs once per distinct (program, ``info_size``,
    ``fuel_limit``); every call returns a report of its own.
    """
    key = (program.snapshot(), info_size, fuel_limit)
    report = _VERIFY_CACHE.get(key)
    if report is None:
        report = _VERIFY_CACHE.put(
            key, _Verifier(program, info_size, fuel_limit).run()
        )
    return replace(report, findings=list(report.findings),
                   fuel_bounds=dict(report.fuel_bounds))


def verify_or_raise(program: FilterProgram, **kwargs) -> VerifierReport:
    """verify(), raising :class:`VerifyRejected` when the program fails."""
    report = verify(program, **kwargs)
    if not report.ok:
        raise VerifyRejected(report)
    return report


class VerifyRejected(Exception):
    """A program failed static verification; carries the full report."""

    def __init__(self, report: VerifierReport) -> None:
        super().__init__(report.render())
        self.report = report


def _main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.filtervm.verify",
        description="Statically verify a serialized filter VM program",
    )
    parser.add_argument("program",
                        help="serialized program (.plf; '-' for stdin)")
    parser.add_argument("--info-size", type=int, default=None,
                        help="bound constant info-block offsets")
    parser.add_argument("--fuel-limit", type=int, default=DEFAULT_FUEL,
                        help="runtime fuel limit to compare bounds against")
    args = parser.parse_args(argv)
    if args.program == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(args.program, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.program}: {exc}",
                  file=sys.stderr)
            return 2
    from repro.util.byteio import DecodeError

    try:
        program = FilterProgram.decode(data)
    except DecodeError as exc:
        print(f"{args.program}: does not decode: {exc}", file=sys.stderr)
        return 2
    report = verify(program, info_size=args.info_size,
                    fuel_limit=args.fuel_limit)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main())
