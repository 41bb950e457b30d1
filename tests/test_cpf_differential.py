"""Differential testing of the Cpf compiler.

Hypothesis generates random C expression trees; we compile them with the
Cpf compiler, run them on the reference filter VM, and compare against a reference
evaluator implementing C's semantics (64-bit wrapping arithmetic, unsigned
-wins conversions, short-circuit logic, truncating division). Any mismatch
is a code-generation bug. A constant expression is also used as a global
initializer, so the compiler's constant folding is held to the same
reference and to what the VM computes at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from filtervm_oracle import OracleVM
from hypothesis import example, given, settings, strategies as st

from repro.cpf import compile_cpf

MASK64 = (1 << 64) - 1


def to_signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


# ---------------------------------------------------------------------------
# Expression tree model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int  # uint32 literal

    def render(self) -> str:
        return f"{self.value}u" if self.value > 0x7FFFFFFF else str(self.value)

    def eval(self, env) -> tuple[int, bool]:
        """Returns (value-as-u64, is_signed)."""
        return self.value, self.value <= 0x7FFFFFFF


@dataclass(frozen=True)
class Var:
    name: str  # refers to a uint64 parameter

    def render(self) -> str:
        return self.name

    def eval(self, env) -> tuple[int, bool]:
        return env[self.name] & MASK64, False


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object

    def render(self) -> str:
        return f"({self.op}{self.operand.render()})"

    def eval(self, env) -> tuple[int, bool]:
        value, signed = self.operand.eval(env)
        if self.op == "-":
            return (-value) & MASK64, True
        if self.op == "~":
            return (~value) & MASK64, signed
        if self.op == "!":
            return int(value == 0), True
        raise AssertionError(self.op)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def eval(self, env) -> tuple[int, bool]:
        lv, ls = self.left.eval(env)
        if self.op == "&&":
            if lv == 0:
                return 0, True
            rv, _ = self.right.eval(env)
            return int(rv != 0), True
        if self.op == "||":
            if lv != 0:
                return 1, True
            rv, _ = self.right.eval(env)
            return int(rv != 0), True
        rv, rs = self.right.eval(env)
        signed = ls and rs
        if self.op == "+":
            return (lv + rv) & MASK64, signed
        if self.op == "-":
            return (lv - rv) & MASK64, signed
        if self.op == "*":
            return (lv * rv) & MASK64, signed
        if self.op == "&":
            return lv & rv, signed
        if self.op == "|":
            return lv | rv, signed
        if self.op == "^":
            return lv ^ rv, signed
        if self.op == "<<":
            return (lv << (rv & 63)) & MASK64, signed
        if self.op == ">>":
            if signed:
                return (to_signed(lv) >> (rv & 63)) & MASK64, signed
            return lv >> (rv & 63), signed
        if self.op in ("==", "!=", "<", "<=", ">", ">="):
            if signed:
                a, b = to_signed(lv), to_signed(rv)
            else:
                a, b = lv, rv
            result = {
                "==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b,
            }[self.op]
            return int(result), True
        if self.op in ("/", "%"):
            if rv == 0:
                raise ZeroDivisionError
            if signed:
                a, b = to_signed(lv), to_signed(rv)
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                remainder = a - quotient * b
                value = quotient if self.op == "/" else remainder
                return value & MASK64, signed
            return (lv // rv if self.op == "/" else lv % rv), signed
        raise AssertionError(self.op)


def is_constant(expr) -> bool:
    """Whether Cpf accepts ``expr`` as a global initializer (it folds
    literals under unary and non-short-circuit binary operators)."""
    if isinstance(expr, Unary):
        return is_constant(expr.operand)
    if isinstance(expr, Binary):
        return (expr.op not in ("&&", "||")
                and is_constant(expr.left) and is_constant(expr.right))
    return isinstance(expr, Lit)


def _neg(value: int) -> Unary:
    return Unary("-", Lit(value))


# Constant expressions whose folding once disagreed with the VM (floor vs
# truncating division), crashed the compiler (any negative right operand),
# or pin the rest of the shared operator table.
_FOLD_CASES = [
    Binary("/", _neg(7), Lit(2)),
    Binary("%", _neg(7), Lit(2)),
    Binary("/", Lit(7), _neg(2)),
    Binary("+", Lit(5), _neg(2)),
    Binary("*", Lit(3), _neg(1)),
    Binary(">>", _neg(8), Lit(1)),
    Binary("<<", Lit(1), Lit(63)),
    Binary("<", _neg(1), Lit(0)),
    Binary("<<", Lit(1), _neg(1)),
    Binary(">>", _neg(8), Lit(65)),
]


def _fold_examples(test):
    for case in _FOLD_CASES:
        test = example(expr=case, a=0, b=0, c=0)(test)
    return test


_VAR_NAMES = ["a", "b", "c"]

_SAFE_BINOPS = ["+", "-", "*", "&", "|", "^", "<<", ">>",
                "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
_DIV_BINOPS = ["/", "%"]


def expressions(max_depth: int = 4):
    literals = st.builds(Lit, st.integers(0, 0xFFFFFFFF))
    variables = st.builds(Var, st.sampled_from(_VAR_NAMES))
    leaves = literals | variables

    def extend(children):
        return (
            st.builds(Unary, st.sampled_from(["-", "~", "!"]), children)
            | st.builds(
                Binary, st.sampled_from(_SAFE_BINOPS), children, children
            )
            | st.builds(
                Binary, st.sampled_from(_DIV_BINOPS), children,
                # Keep divisors as literals to avoid unpredictable zeros.
                st.builds(Lit, st.integers(1, 1000)),
            )
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(
    expr=expressions(),
    a=st.integers(0, MASK64),
    b=st.integers(0, MASK64),
    c=st.integers(0, MASK64),
)
@_fold_examples
def test_compiled_expression_matches_reference(expr, a, b, c):
    env = {"a": a, "b": b, "c": c}
    try:
        expected, _ = expr.eval(env)
    except ZeroDivisionError:
        expected = None  # the VM faults to 0... but main wraps the value
    source = (
        "uint64_t main(uint64_t a, uint64_t b, uint64_t c) {\n"
        f"    return {expr.render()};\n"
        "}\n"
    )
    folds = expected is not None and is_constant(expr)
    if folds:
        source += (
            f"uint64_t g = {expr.render()};\n"
            "uint64_t folded() { return g; }\n"
        )
    program = compile_cpf(source)
    vm = OracleVM(program, fuel_limit=100_000)
    vm.run_init()
    result = vm.invoke("main", args=(a, b, c))
    if expected is None:
        assert result == 0  # VM faults closed on division by zero
    else:
        assert result == expected, f"\nsource:\n{source}\nenv: {env}"
    if folds:
        assert vm.invoke("folded") == expected, f"\nsource:\n{source}"


@settings(max_examples=60, deadline=None)
@given(
    expr=expressions(),
    a=st.integers(0, MASK64),
)
def test_expression_as_condition_matches(expr, a):
    """The same expression used as an if-condition gives C truthiness."""
    env = {"a": a, "b": 0, "c": 1}
    try:
        value, _ = expr.eval(env)
        expected = 7 if value != 0 else 9
    except ZeroDivisionError:
        return  # faulting conditions abort the invocation; skip
    source = (
        "uint64_t main(uint64_t a, uint64_t b, uint64_t c) {\n"
        f"    if ({expr.render()}) return 7;\n"
        "    return 9;\n"
        "}\n"
    )
    program = compile_cpf(source)
    vm = OracleVM(program, fuel_limit=100_000)
    assert vm.invoke("main", args=(a, 0, 1)) == expected


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=8),
)
def test_compiled_loop_sums_match(values):
    """A Cpf loop over a global array matches Python's sum."""
    source_lines = ["uint32_t table[8];"]
    source_lines.append("uint64_t main(uint64_t n) {")
    source_lines.append("    uint64_t total = 0;")
    source_lines.append("    for (uint64_t i = 0; i < n; ++i)")
    source_lines.append("        total += table[i];")
    source_lines.append("    return total;")
    source_lines.append("}")
    source_lines.append("uint32_t set(uint64_t i, uint32_t v) {")
    source_lines.append("    table[i] = v; return 0;")
    source_lines.append("}")
    program = compile_cpf("\n".join(source_lines))
    vm = OracleVM(program, fuel_limit=100_000)
    for index, value in enumerate(values):
        vm.invoke("set", args=(index, value))
    assert vm.invoke("main", args=(len(values),)) == sum(values) & MASK64
