"""Cpf code generator: AST -> filter VM program.

Model mapping:

- **packet pointer parameters** (``const union packet *``) are symbolic:
  member access through them compiles to packet-space loads at the offsets
  computed from the struct layout,
- the builtin ``info`` (``const struct plinfo *``) maps to info-space loads,
- **globals** live in the VM's persistent memory (byte-addressed); nonzero
  initializers are collected into a synthesized ``init`` entry point,
- **locals and parameters** are 64-bit frame slots,
- all arithmetic happens on 64-bit stack values; loads sign/zero-extend by
  declared type, stores truncate, and casts renormalize.

Semantic errors raise :class:`CpfCompileError` with the source line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpf import ast
from repro.cpf.types import (
    ArrayType,
    CpfType,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    U64,
    common_type,
    type_size,
)
from repro.filtervm.isa import Instruction, Op
from repro.filtervm.program import FilterProgram, Function
from repro.filtervm.vm import VmFault, evaluate

SPACE_PACKET = "packet"
SPACE_INFO = "info"
SPACE_GLOBAL = "global"

_LOAD_OPS = {
    (SPACE_PACKET, 1): Op.PKTLD8,
    (SPACE_PACKET, 2): Op.PKTLD16,
    (SPACE_PACKET, 4): Op.PKTLD32,
    (SPACE_INFO, 1): Op.INFOLD8,
    (SPACE_INFO, 2): Op.INFOLD16,
    (SPACE_INFO, 4): Op.INFOLD32,
    (SPACE_INFO, 8): Op.INFOLD64,
    (SPACE_GLOBAL, 1): Op.GLD8,
    (SPACE_GLOBAL, 2): Op.GLD16,
    (SPACE_GLOBAL, 4): Op.GLD32,
    (SPACE_GLOBAL, 8): Op.GLD64,
}

_STORE_OPS = {1: Op.GST8, 2: Op.GST16, 4: Op.GST32, 8: Op.GST64}

_ARITH_BINOPS = {
    "+": (Op.ADD, Op.ADD),
    "-": (Op.SUB, Op.SUB),
    "*": (Op.MUL, Op.MUL),
    "/": (Op.DIVU, Op.DIVS),
    "%": (Op.MODU, Op.MODS),
    "&": (Op.AND, Op.AND),
    "|": (Op.OR, Op.OR),
    "^": (Op.XOR, Op.XOR),
    "<<": (Op.SHL, Op.SHL),
    ">>": (Op.SHRU, Op.SHRS),
}

_CMP_BINOPS = {
    "==": (Op.EQ, Op.EQ),
    "!=": (Op.NE, Op.NE),
    "<": (Op.LTU, Op.LTS),
    "<=": (Op.LEU, Op.LES),
    ">": (Op.GTU, Op.GTS),
    ">=": (Op.GEU, Op.GES),
}

_UNARY_OPS = {"-": Op.NEG, "~": Op.BNOT, "!": Op.LNOT}


class CpfCompileError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class GlobalVar:
    name: str
    type: CpfType
    offset: int


@dataclass
class FunctionInfo:
    index: int
    node: ast.FunctionDef
    return_type: CpfType


@dataclass
class LValue:
    """A resolved assignable/loadable location.

    For ``kind == "memory"`` the byte offset has already been pushed onto
    the VM stack by the time the LValue is returned.
    """

    kind: str  # "local" | "memory"
    type: CpfType
    slot: int = -1
    space: str = ""
    bit_offset: int = 0
    bit_width: int = 0


class CodeGen:
    def __init__(self, program: ast.Program) -> None:
        self._ast = program
        self._code: list[Instruction] = []
        self._functions: dict[str, FunctionInfo] = {}
        self._globals: dict[str, GlobalVar] = {}
        self._globals_size = 0
        self._constants = dict(program.constants)
        # Per-function state.
        self._scopes: list[dict[str, tuple[int, CpfType]]] = []
        self._param_spaces: dict[str, str] = {}
        self._n_locals = 0
        self._loop_stack: list[tuple[list[int], list[int]]] = []  # (breaks, continues)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def compile(self) -> FilterProgram:
        init_stores: list[tuple[GlobalVar, int]] = []
        for decl in self._ast.globals:
            var = self._declare_global(decl)
            if decl.init is not None:
                folded = self._fold_constant(decl.init)
                if folded is None:
                    raise CpfCompileError(
                        f"global {decl.name!r} initializer must be constant",
                        decl.line,
                    )
                value, _ = folded
                if value != 0:
                    init_stores.append((var, value))
        for index, node in enumerate(self._ast.functions):
            if node.name in self._functions:
                raise CpfCompileError(f"duplicate function {node.name!r}", node.line)
            self._functions[node.name] = FunctionInfo(
                index=index, node=node, return_type=node.return_type
            )
        has_user_init = "init" in self._functions
        vm_functions: list[Function] = []
        for name, info in self._functions.items():
            offset = len(self._code)
            n_locals = self._compile_function(info.node, init_stores if
                                              (name == "init" and init_stores) else [])
            vm_functions.append(
                Function(
                    name=name,
                    offset=offset,
                    n_args=len(info.node.params),
                    n_locals=n_locals,
                )
            )
        if init_stores and not has_user_init:
            offset = len(self._code)
            self._emit_init_stores(init_stores)
            self._emit(Op.PUSH, 0)
            self._emit(Op.RET)
            vm_functions.append(Function(name="init", offset=offset, n_args=0, n_locals=0))
        program = FilterProgram(
            code=self._code,
            functions=vm_functions,
            globals_size=self._globals_size,
        )
        program.verify()
        return program

    def _declare_global(self, decl: ast.GlobalDecl) -> GlobalVar:
        if decl.name in self._globals:
            raise CpfCompileError(f"duplicate global {decl.name!r}", decl.line)
        if isinstance(decl.var_type, PointerType):
            raise CpfCompileError(
                f"global {decl.name!r}: pointer globals are not supported",
                decl.line,
            )
        var = GlobalVar(name=decl.name, type=decl.var_type, offset=self._globals_size)
        self._globals_size += type_size(decl.var_type)
        self._globals[decl.name] = var
        return var

    def _emit_init_stores(self, stores: list[tuple[GlobalVar, int]]) -> None:
        for var, value in stores:
            size = type_size(var.type) if isinstance(var.type, IntType) else None
            if size is None:
                raise CpfCompileError(
                    f"global {var.name!r}: only integer globals may have "
                    "initializers",
                    0,
                )
            self._emit(Op.PUSH, self._wrap_signed(value))
            self._emit(Op.PUSH, var.offset)
            self._emit(_STORE_OPS[size])

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _compile_function(
        self, node: ast.FunctionDef, prepend_init: list[tuple[GlobalVar, int]]
    ) -> int:
        self._scopes = [{}]
        self._param_spaces = {}
        self._n_locals = 0
        self._scratch_slot_value = -1
        self._loop_stack = []
        for param_name, param_type in node.params:
            slot = self._n_locals
            self._n_locals += 1
            if isinstance(param_type, PointerType):
                space = self._pointer_space(param_type, node.line)
                self._param_spaces[param_name] = space
            self._scopes[0][param_name] = (slot, param_type)
        start = len(self._code)
        if prepend_init:
            self._emit_init_stores(prepend_init)
        self._compile_stmt(node.body)
        # Implicit return 0, only when some path can actually fall off the
        # end of the body (a body ending in return on every path would
        # otherwise grow a dead PUSH/RET tail).
        if self._falls_through(start):
            self._emit(Op.PUSH, 0)
            self._emit(Op.RET)
        return self._n_locals

    def _falls_through(self, start: int) -> bool:
        """Whether control can reach ``len(self._code)`` from ``start``.

        Conservative reachability over the instructions emitted for the
        current function; jump operands are already absolute indices (loop
        exit jumps may legitimately target the not-yet-emitted tail).
        """
        end = len(self._code)
        seen: set[int] = set()
        stack = [start]
        while stack:
            pc = stack.pop()
            if pc >= end:
                return True
            if pc in seen or pc < start:
                continue
            seen.add(pc)
            instruction = self._code[pc]
            if instruction.op == Op.RET:
                continue
            if instruction.op == Op.JMP:
                stack.append(instruction.operand)
            elif instruction.op in (Op.JZ, Op.JNZ):
                stack.append(instruction.operand)
                stack.append(pc + 1)
            else:
                stack.append(pc + 1)
        return False

    def _pointer_space(self, pointer: PointerType, line: int) -> str:
        target = pointer.target
        if isinstance(target, StructType):
            if target.tag == "packet":
                return SPACE_PACKET
            if target.tag == "plinfo":
                return SPACE_INFO
        raise CpfCompileError(
            f"unsupported pointer type {pointer}; only 'const union packet *' "
            "and 'const struct plinfo *' parameters exist in Cpf",
            line,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._scopes.append({})
            for inner in stmt.statements:
                self._compile_stmt(inner)
            self._scopes.pop()
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._compile_expr(stmt.expr)
                self._emit(Op.POP)
        elif isinstance(stmt, ast.VarDecl):
            self._compile_var_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._compile_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._compile_expr(stmt.value)
            else:
                self._emit(Op.PUSH, 0)
            self._emit(Op.RET)
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise CpfCompileError("break outside loop", stmt.line)
            self._loop_stack[-1][0].append(self._emit_placeholder(Op.JMP))
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise CpfCompileError("continue outside loop", stmt.line)
            self._loop_stack[-1][1].append(self._emit_placeholder(Op.JMP))
        else:  # pragma: no cover
            raise CpfCompileError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def _compile_var_decl(self, stmt: ast.VarDecl) -> None:
        if isinstance(stmt.var_type, (StructType, ArrayType)):
            raise CpfCompileError(
                f"local {stmt.name!r}: aggregate locals are not supported "
                "(use a global)",
                stmt.line,
            )
        if isinstance(stmt.var_type, PointerType):
            raise CpfCompileError(
                f"local {stmt.name!r}: pointer locals are not supported",
                stmt.line,
            )
        if stmt.name in self._scopes[-1]:
            raise CpfCompileError(f"duplicate local {stmt.name!r}", stmt.line)
        slot = self._n_locals
        self._n_locals += 1
        self._scopes[-1][stmt.name] = (slot, stmt.var_type)
        if stmt.init is not None:
            value_type = self._compile_expr(stmt.init)
            self._normalize_to(stmt.var_type, value_type)
            self._emit(Op.STL, slot)
        else:
            self._emit(Op.PUSH, 0)
            self._emit(Op.STL, slot)

    def _compile_if(self, stmt: ast.If) -> None:
        self._compile_expr(stmt.condition)
        else_jump = self._emit_placeholder(Op.JZ)
        then_start = len(self._code)
        self._compile_stmt(stmt.then_body)
        if stmt.else_body is not None:
            # Skip the join jump when the then-branch always returns: it
            # would be dead code, and could target one-past-the-end.
            end_jump = (self._emit_placeholder(Op.JMP)
                        if self._falls_through(then_start) else None)
            self._patch(else_jump, len(self._code))
            self._compile_stmt(stmt.else_body)
            if end_jump is not None:
                self._patch(end_jump, len(self._code))
        else:
            self._patch(else_jump, len(self._code))

    def _compile_while(self, stmt: ast.While) -> None:
        top = len(self._code)
        self._compile_expr(stmt.condition)
        exit_jump = self._emit_placeholder(Op.JZ)
        self._loop_stack.append(([], []))
        self._compile_stmt(stmt.body)
        breaks, continues = self._loop_stack.pop()
        for index in continues:
            self._patch(index, top)
        self._emit(Op.JMP, top)
        end = len(self._code)
        self._patch(exit_jump, end)
        for index in breaks:
            self._patch(index, end)

    def _compile_do_while(self, stmt: ast.DoWhile) -> None:
        top = len(self._code)
        self._loop_stack.append(([], []))
        self._compile_stmt(stmt.body)
        breaks, continues = self._loop_stack.pop()
        cond_at = len(self._code)
        for index in continues:
            self._patch(index, cond_at)
        self._compile_expr(stmt.condition)
        self._emit(Op.JNZ, top)
        end = len(self._code)
        for index in breaks:
            self._patch(index, end)

    def _compile_for(self, stmt: ast.For) -> None:
        self._scopes.append({})
        if stmt.init is not None:
            self._compile_stmt(stmt.init)
        top = len(self._code)
        exit_jump = None
        if stmt.condition is not None:
            self._compile_expr(stmt.condition)
            exit_jump = self._emit_placeholder(Op.JZ)
        self._loop_stack.append(([], []))
        self._compile_stmt(stmt.body)
        breaks, continues = self._loop_stack.pop()
        step_at = len(self._code)
        for index in continues:
            self._patch(index, step_at)
        if stmt.step is not None:
            self._compile_expr(stmt.step)
            self._emit(Op.POP)
        self._emit(Op.JMP, top)
        end = len(self._code)
        if exit_jump is not None:
            self._patch(exit_jump, end)
        for index in breaks:
            self._patch(index, end)
        self._scopes.pop()

    # ------------------------------------------------------------------
    # Expressions (each leaves exactly one value on the stack)
    # ------------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> CpfType:
        if isinstance(expr, ast.Number):
            self._emit(Op.PUSH, self._wrap_signed(expr.value))
            return self._number_type(expr)
        if isinstance(expr, ast.Ident):
            return self._compile_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._compile_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, (ast.MemberAccess, ast.Index)):
            lvalue = self._compile_lvalue(expr)
            return self._load_lvalue(lvalue, expr.line)
        if isinstance(expr, ast.Cast):
            operand_type = self._compile_expr(expr.operand)
            if not isinstance(expr.target_type, IntType):
                raise CpfCompileError("can only cast to integer types", expr.line)
            self._normalize_to(expr.target_type, operand_type)
            return expr.target_type
        raise CpfCompileError(f"unhandled expression {type(expr).__name__}", expr.line)

    @staticmethod
    def _number_type(expr: ast.Number) -> IntType:
        if expr.unsigned:
            # C: a 'u'-suffixed literal is unsigned; an unsuffixed
            # decimal too large for int32 is also unsigned here (the
            # common uint32 case in packet-header code).
            return IntType(4, False) if expr.value < (1 << 32) else U64
        if -(1 << 31) <= expr.value < (1 << 31):
            return I32
        if expr.value < (1 << 32):
            return IntType(4, False)
        return I64 if expr.value < (1 << 63) else U64

    def _compile_ident(self, expr: ast.Ident) -> CpfType:
        resolved = self._lookup_local(expr.name)
        if resolved is not None:
            slot, var_type = resolved
            if isinstance(var_type, PointerType):
                raise CpfCompileError(
                    f"{expr.name!r} is a pointer; pointers have no value in Cpf "
                    "(use -> member access)",
                    expr.line,
                )
            self._emit(Op.LDL, slot)
            return self._promote(var_type)
        if expr.name in self._globals:
            var = self._globals[expr.name]
            if not isinstance(var.type, IntType):
                raise CpfCompileError(
                    f"global aggregate {expr.name!r} cannot be used as a value",
                    expr.line,
                )
            self._emit(Op.PUSH, var.offset)
            self._emit(_LOAD_OPS[(SPACE_GLOBAL, var.type.size)])
            self._sign_extend_if_needed(var.type)
            return self._promote(var.type)
        if expr.name in self._constants:
            self._emit(Op.PUSH, self._wrap_signed(self._constants[expr.name]))
            return I64
        if expr.name == "info":
            raise CpfCompileError(
                "'info' is a pointer; use info-> member access", expr.line
            )
        raise CpfCompileError(f"undefined identifier {expr.name!r}", expr.line)

    def _compile_unary(self, expr: ast.Unary) -> CpfType:
        result = self._unary_type(expr, self._compile_expr(expr.operand))
        if expr.op in _UNARY_OPS:
            self._emit(_UNARY_OPS[expr.op])
        return result

    def _unary_type(self, expr: ast.Unary, operand_type: CpfType) -> CpfType:
        """Result type of a unary operator (``_UNARY_OPS`` has its opcode)."""
        if expr.op == "+":
            return operand_type
        if expr.op == "-":
            return IntType(8, True)
        if expr.op == "~":
            return self._promote(operand_type) if isinstance(operand_type, IntType) else U64
        if expr.op == "!":
            return I32
        raise CpfCompileError(f"unhandled unary operator {expr.op!r}", expr.line)

    def _compile_binary(self, expr: ast.Binary) -> CpfType:
        if expr.op == "&&":
            return self._compile_short_circuit(expr, is_and=True)
        if expr.op == "||":
            return self._compile_short_circuit(expr, is_and=False)
        if expr.op == ",":
            self._compile_expr(expr.left)
            self._emit(Op.POP)
            return self._compile_expr(expr.right)
        left_type = self._compile_expr(expr.left)
        right_type = self._compile_expr(expr.right)
        op, result = self._binary_op(expr, left_type, right_type)
        self._emit(op)
        return result

    def _binary_op(
        self, expr: ast.Binary, left_type: CpfType, right_type: CpfType
    ) -> tuple[Op, IntType]:
        """The opcode ``expr.op`` means over these operand types, and its type."""
        if not isinstance(left_type, IntType) or not isinstance(right_type, IntType):
            raise CpfCompileError(
                f"operator {expr.op!r} requires integer operands", expr.line
            )
        result = common_type(left_type, right_type)
        if expr.op in _ARITH_BINOPS:
            unsigned_op, signed_op = _ARITH_BINOPS[expr.op]
            return (signed_op if result.signed else unsigned_op), IntType(8, result.signed)
        if expr.op in _CMP_BINOPS:
            unsigned_op, signed_op = _CMP_BINOPS[expr.op]
            return (signed_op if result.signed else unsigned_op), I32
        raise CpfCompileError(f"unhandled binary operator {expr.op!r}", expr.line)

    def _compile_short_circuit(self, expr: ast.Binary, is_and: bool) -> CpfType:
        self._compile_expr(expr.left)
        if is_and:
            fail_jump = self._emit_placeholder(Op.JZ)
            self._compile_expr(expr.right)
            second_fail = self._emit_placeholder(Op.JZ)
            self._emit(Op.PUSH, 1)
            end_jump = self._emit_placeholder(Op.JMP)
            self._patch(fail_jump, len(self._code))
            self._patch(second_fail, len(self._code))
            self._emit(Op.PUSH, 0)
            self._patch(end_jump, len(self._code))
        else:
            taken_jump = self._emit_placeholder(Op.JNZ)
            self._compile_expr(expr.right)
            second_taken = self._emit_placeholder(Op.JNZ)
            self._emit(Op.PUSH, 0)
            end_jump = self._emit_placeholder(Op.JMP)
            self._patch(taken_jump, len(self._code))
            self._patch(second_taken, len(self._code))
            self._emit(Op.PUSH, 1)
            self._patch(end_jump, len(self._code))
        return I32

    def _compile_conditional(self, expr: ast.Conditional) -> CpfType:
        self._compile_expr(expr.condition)
        else_jump = self._emit_placeholder(Op.JZ)
        then_type = self._compile_expr(expr.then_value)
        end_jump = self._emit_placeholder(Op.JMP)
        self._patch(else_jump, len(self._code))
        else_type = self._compile_expr(expr.else_value)
        self._patch(end_jump, len(self._code))
        if isinstance(then_type, IntType) and isinstance(else_type, IntType):
            return common_type(then_type, else_type)
        return U64

    def _compile_call(self, expr: ast.Call) -> CpfType:
        info = self._functions.get(expr.name)
        if info is None:
            raise CpfCompileError(f"call to undefined function {expr.name!r}", expr.line)
        params = info.node.params
        if len(expr.args) != len(params):
            raise CpfCompileError(
                f"{expr.name!r} takes {len(params)} arguments, got {len(expr.args)}",
                expr.line,
            )
        for arg, (param_name, param_type) in zip(expr.args, params):
            if isinstance(param_type, PointerType):
                # Pointer arguments are symbolic; pass a zero placeholder.
                # The callee's own parameter binds to the same single
                # packet/info space, so any pointer expression works.
                if not isinstance(arg, ast.Ident):
                    raise CpfCompileError(
                        "pointer arguments must be passed by name", arg.line
                    )
                self._emit(Op.PUSH, 0)
            else:
                self._compile_expr(arg)
        self._emit(Op.CALL, info.index)
        return info.return_type if isinstance(info.return_type, IntType) else U64

    def _compile_assign(self, expr: ast.Assign) -> CpfType:
        target = expr.target
        if isinstance(target, ast.Ident):
            resolved = self._lookup_local(target.name)
            if resolved is not None:
                return self._assign_local(expr, *resolved)
            if target.name in self._globals:
                return self._assign_global_scalar(expr, self._globals[target.name])
            raise CpfCompileError(
                f"cannot assign to {target.name!r}", expr.line
            )
        # Memory lvalue (global array element / struct member).
        lvalue = self._compile_lvalue(target)
        if lvalue.space != SPACE_GLOBAL:
            raise CpfCompileError(
                "packet and info memory are read-only", expr.line
            )
        if lvalue.bit_width:
            raise CpfCompileError("cannot assign to bitfields", expr.line)
        if not isinstance(lvalue.type, IntType):
            raise CpfCompileError("can only assign integer values", expr.line)
        size = lvalue.type.size
        if expr.op == "=":
            # Stack: [offset]; need [value, offset].
            value_type = self._compile_expr(expr.value)
            self._normalize_to(lvalue.type, value_type)
            # Stack: [offset, value] -> keep a copy of value as the result.
            self._emit(Op.DUP)  # [offset, value, value]
            self._emit(Op.STL, self._scratch_slot())  # [offset, value]
            self._emit(Op.SWAP)  # [value, offset]
            self._emit(_STORE_OPS[size])
            self._emit(Op.LDL, self._scratch_slot_value)
            return self._promote(lvalue.type)
        # Compound assignment: offset on stack; duplicate for load + store.
        self._emit(Op.DUP)  # [offset, offset]
        self._emit(_LOAD_OPS[(SPACE_GLOBAL, size)])  # [offset, old]
        self._sign_extend_if_needed(lvalue.type)
        value_type = self._compile_expr(expr.value)  # [offset, old, rhs]
        op_token = expr.op[:-1]
        unsigned_op, signed_op = _ARITH_BINOPS[op_token]
        result = common_type(self._promote(lvalue.type),
                             value_type if isinstance(value_type, IntType) else U64)
        self._emit(signed_op if result.signed else unsigned_op)  # [offset, new]
        self._normalize_to(lvalue.type, IntType(8, result.signed))
        self._emit(Op.DUP)
        self._emit(Op.STL, self._scratch_slot())  # [offset, new]
        self._emit(Op.SWAP)  # [new, offset]
        self._emit(_STORE_OPS[size])
        self._emit(Op.LDL, self._scratch_slot_value)
        return self._promote(lvalue.type)

    def _assign_local(self, expr: ast.Assign, slot: int, var_type: CpfType) -> CpfType:
        if isinstance(var_type, PointerType):
            raise CpfCompileError("cannot assign to pointer variables", expr.line)
        assert isinstance(var_type, IntType)
        if expr.op == "=":
            value_type = self._compile_expr(expr.value)
            self._normalize_to(var_type, value_type)
        else:
            self._emit(Op.LDL, slot)
            value_type = self._compile_expr(expr.value)
            op_token = expr.op[:-1]
            unsigned_op, signed_op = _ARITH_BINOPS[op_token]
            result = common_type(
                self._promote(var_type),
                value_type if isinstance(value_type, IntType) else U64,
            )
            self._emit(signed_op if result.signed else unsigned_op)
            self._normalize_to(var_type, IntType(8, result.signed))
        self._emit(Op.DUP)
        self._emit(Op.STL, slot)
        return self._promote(var_type)

    def _assign_global_scalar(self, expr: ast.Assign, var: GlobalVar) -> CpfType:
        if not isinstance(var.type, IntType):
            raise CpfCompileError(
                f"cannot assign to aggregate global {var.name!r}", expr.line
            )
        size = var.type.size
        if expr.op == "=":
            value_type = self._compile_expr(expr.value)
            self._normalize_to(var.type, value_type)
        else:
            self._emit(Op.PUSH, var.offset)
            self._emit(_LOAD_OPS[(SPACE_GLOBAL, size)])
            self._sign_extend_if_needed(var.type)
            value_type = self._compile_expr(expr.value)
            op_token = expr.op[:-1]
            unsigned_op, signed_op = _ARITH_BINOPS[op_token]
            result = common_type(
                self._promote(var.type),
                value_type if isinstance(value_type, IntType) else U64,
            )
            self._emit(signed_op if result.signed else unsigned_op)
            self._normalize_to(var.type, IntType(8, result.signed))
        self._emit(Op.DUP)  # [value, value]
        self._emit(Op.PUSH, var.offset)  # [value, value, offset]
        self._emit(_STORE_OPS[size])  # [value]
        return self._promote(var.type)

    # ------------------------------------------------------------------
    # Lvalue resolution (memory spaces)
    # ------------------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr) -> LValue:
        """Resolve a memory lvalue, emitting code that pushes its offset."""
        if isinstance(expr, ast.MemberAccess):
            return self._lvalue_member(expr)
        if isinstance(expr, ast.Index):
            return self._lvalue_index(expr)
        if isinstance(expr, ast.Ident):
            if expr.name in self._globals:
                var = self._globals[expr.name]
                self._emit(Op.PUSH, var.offset)
                return LValue(kind="memory", type=var.type, space=SPACE_GLOBAL)
            raise CpfCompileError(
                f"{expr.name!r} is not a memory location", expr.line
            )
        raise CpfCompileError(
            f"expression is not an lvalue ({type(expr).__name__})", expr.line
        )

    def _lvalue_member(self, expr: ast.MemberAccess) -> LValue:
        if expr.arrow:
            base = expr.base
            if not isinstance(base, ast.Ident):
                raise CpfCompileError(
                    "-> requires a pointer variable on the left", expr.line
                )
            space, struct = self._resolve_pointer_ident(base)
            self._emit(Op.PUSH, 0)  # base offset of the space
        else:
            inner = self._compile_lvalue(expr.base)
            if not isinstance(inner.type, StructType):
                raise CpfCompileError(
                    f"member access on non-struct type {inner.type}", expr.line
                )
            space, struct = inner.space, inner.type
        found = struct.find_member(expr.member)
        if found is None:
            raise CpfCompileError(
                f"{struct} has no member {expr.member!r}", expr.line
            )
        member, byte_offset, bit_offset = found
        if byte_offset:
            self._emit(Op.PUSH, byte_offset)
            self._emit(Op.ADD)
        return LValue(
            kind="memory",
            type=member.type,
            space=space,
            bit_offset=bit_offset,
            bit_width=member.bit_width,
        )

    def _lvalue_index(self, expr: ast.Index) -> LValue:
        base = self._compile_lvalue(expr.base)
        if not isinstance(base.type, ArrayType):
            raise CpfCompileError(
                f"indexing non-array type {base.type}", expr.line
            )
        element = base.type.element
        index_type = self._compile_expr(expr.index)
        if not isinstance(index_type, IntType):
            raise CpfCompileError("array index must be an integer", expr.line)
        element_size = type_size(element)
        if element_size != 1:
            self._emit(Op.PUSH, element_size)
            self._emit(Op.MUL)
        self._emit(Op.ADD)
        return LValue(kind="memory", type=element, space=base.space)

    def _resolve_pointer_ident(self, ident: ast.Ident) -> tuple[str, StructType]:
        resolved = self._lookup_local(ident.name)
        if resolved is not None:
            _slot, var_type = resolved
            if isinstance(var_type, PointerType) and isinstance(
                var_type.target, StructType
            ):
                space = self._param_spaces.get(ident.name)
                if space is None:
                    space = self._pointer_space(var_type, ident.line)
                return space, var_type.target
            raise CpfCompileError(f"{ident.name!r} is not a pointer", ident.line)
        if ident.name == "info":
            from repro.cpf.stdlib import plinfo_struct

            return SPACE_INFO, plinfo_struct()
        raise CpfCompileError(f"unknown pointer {ident.name!r}", ident.line)

    def _load_lvalue(self, lvalue: LValue, line: int) -> CpfType:
        if not isinstance(lvalue.type, IntType):
            raise CpfCompileError(
                f"cannot load aggregate value of type {lvalue.type}", line
            )
        size = lvalue.type.size
        if lvalue.bit_width:
            # Bitfields load their containing byte, then shift and mask
            # (MSB-first layout).
            load_op = _LOAD_OPS.get((lvalue.space, 1))
            assert load_op is not None
            self._emit(load_op)
            shift = 8 - lvalue.bit_offset - lvalue.bit_width
            if shift:
                self._emit(Op.PUSH, shift)
                self._emit(Op.SHRU)
            self._emit(Op.PUSH, (1 << lvalue.bit_width) - 1)
            self._emit(Op.AND)
            return IntType(4, False)
        load_op = _LOAD_OPS.get((lvalue.space, size))
        if load_op is None:
            raise CpfCompileError(
                f"cannot load {size}-byte value from {lvalue.space} space", line
            )
        self._emit(load_op)
        self._sign_extend_if_needed(lvalue.type)
        return self._promote(lvalue.type)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _lookup_local(self, name: str) -> Optional[tuple[int, CpfType]]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    _scratch_slot_value: int = -1

    def _scratch_slot(self) -> int:
        """A per-function scratch local used by store sequences."""
        if self._scratch_slot_value == -1 or self._scratch_slot_value >= self._n_locals:
            self._scratch_slot_value = self._n_locals
            self._n_locals += 1
        return self._scratch_slot_value

    def _promote(self, var_type: IntType) -> IntType:
        """Type of a loaded value: 64-bit with the declared signedness."""
        return IntType(8, var_type.signed)

    def _sign_extend_if_needed(self, var_type: IntType) -> None:
        if var_type.signed and var_type.size < 8:
            bits = 64 - var_type.bits
            self._emit(Op.PUSH, bits)
            self._emit(Op.SHL)
            self._emit(Op.PUSH, bits)
            self._emit(Op.SHRS)

    def _normalize_to(self, target: IntType, _source: CpfType) -> None:
        """Coerce the stack top to the representation of ``target``."""
        if target.size >= 8:
            return
        if target.signed:
            bits = 64 - target.bits
            self._emit(Op.PUSH, bits)
            self._emit(Op.SHL)
            self._emit(Op.PUSH, bits)
            self._emit(Op.SHRS)
        else:
            self._emit(Op.PUSH, (1 << target.bits) - 1)
            self._emit(Op.AND)

    def _fold_constant(self, expr: ast.Expr) -> Optional[tuple[int, CpfType]]:
        """Value and type of a constant expression; None if it is not one.

        Typed the way ``_compile_expr`` types it and computed by the VM's
        own operator table with the opcode codegen would emit, so an
        initializer equals the same expression evaluated at run time.
        """
        if isinstance(expr, ast.Number):
            return expr.value, self._number_type(expr)
        if isinstance(expr, ast.Ident) and expr.name in self._constants:
            return self._constants[expr.name], I64
        if isinstance(expr, ast.Unary):
            inner = self._fold_constant(expr.operand)
            if inner is None:
                return None
            value, operand_type = inner
            if expr.op in _UNARY_OPS:
                value = evaluate(_UNARY_OPS[expr.op], value)
            return value, self._unary_type(expr, operand_type)
        if isinstance(expr, ast.Binary) and (
            expr.op in _ARITH_BINOPS or expr.op in _CMP_BINOPS
        ):
            left = self._fold_constant(expr.left)
            right = self._fold_constant(expr.right)
            if left is None or right is None:
                return None
            op, result = self._binary_op(expr, left[1], right[1])
            try:
                return evaluate(op, left[0], right[0]), result
            except VmFault:  # division by a constant zero
                return None
        return None

    @staticmethod
    def _wrap_signed(value: int) -> int:
        """Map an arbitrary Python int into the VM's i64 operand range."""
        value &= (1 << 64) - 1
        return value - (1 << 64) if value >= (1 << 63) else value

    def _emit(self, op: Op, operand: int = 0) -> int:
        index = len(self._code)
        self._code.append(Instruction(op, operand))
        return index

    def _emit_placeholder(self, op: Op) -> int:
        return self._emit(op, 0)

    def _patch(self, index: int, target: int) -> None:
        self._code[index] = Instruction(self._code[index].op, target)
