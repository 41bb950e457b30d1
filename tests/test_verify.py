"""Tests for the static verifier, the Cpf lint pass, and their wiring
into endpoint admission (ISSUE 3)."""

import glob
import importlib
import os

import pytest
from filtervm_oracle import OracleVM
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.core.testbed import Testbed
from repro.endpoint.endpoint import admit_filter_program
from repro.endpoint.memory import MEMORY_SIZE
from repro.netsim.clock import NANOSECONDS
from repro.cpf.compiler import (
    FIGURE2_CORRECTED,
    FIGURE2_VERBATIM,
    compile_cpf,
    figure2_monitor,
)
from repro.cpf.lint import lint_source
from repro.crypto.certificate import Restrictions
from repro.filtervm import (
    VERDICT_CONSUME,
    AdmittedProgram,
    AssemblyError,
    BytesInfo,
    FilterProgram,
    FilterVM,
    Finding,
    Function,
    Instruction,
    Op,
    ProgramError,
    VerifyRejected,
    assemble,
    builtins,
    verify,
    verify_or_raise,
)
from repro.filtervm.isa import OPS_WITH_OPERAND
from repro.filtervm.verify import stack_effect
from repro.filtervm.vm import DEFAULT_FUEL, MAX_CALL_DEPTH
from repro.obs import Observability
from repro.proto.constants import ERR_MONITOR_REJECTED

I = Instruction

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "monitors")


def recv_program(code, n_args=2, n_locals=2, globals_size=0, extra=()):
    """A one-function program with ``recv`` at offset 0."""
    return FilterProgram(
        code=list(code),
        functions=[Function("recv", 0, n_args, n_locals), *extra],
        globals_size=globals_size,
    )


def error_codes(report):
    return {finding.code for finding in report.errors}


def warning_codes(report):
    return {finding.code for finding in report.warnings}


# ---------------------------------------------------------------------------
# Golden accept corpus
# ---------------------------------------------------------------------------


class TestAccepts:
    @pytest.mark.parametrize(
        "program",
        [
            builtins.capture_all(),
            builtins.allow_all_monitor(),
            builtins.deny_all_monitor(),
            builtins.capture_protocol(17),
            builtins.capture_udp_port(53),
            builtins.capture_from_host(0x0A000001),
            builtins.icmp_echo_monitor(),
        ],
        ids=[
            "capture_all", "allow_all", "deny_all", "capture_protocol",
            "capture_udp_port", "capture_from_host", "icmp_echo",
        ],
    )
    def test_builtins_verify_clean(self, program):
        report = verify(program)
        assert report.ok, report.render()
        assert not report.errors

    def test_figure2_corrected_no_findings_at_all(self):
        """After the dead-tail codegen fix, the corrected Figure 2 monitor
        produces zero errors AND zero warnings."""
        report = verify(figure2_monitor(corrected=True))
        assert report.ok
        assert report.findings == []

    def test_figure2_verbatim_keeps_only_the_paper_bug_warning(self):
        """The verbatim figure's dead store shows up as exactly one
        unreachable-code warning; the program is still admitted."""
        report = verify(compile_cpf(FIGURE2_VERBATIM))
        assert report.ok
        assert [f.code for f in report.findings] == ["unreachable-code"]
        assert report.findings[0].function == "send"

    def test_loop_free_programs_get_fuel_bounds(self):
        report = verify(figure2_monitor(corrected=True))
        assert 0 < report.fuel_bounds["send"] <= DEFAULT_FUEL
        assert 0 < report.fuel_bounds["recv"] <= DEFAULT_FUEL

    def test_looping_program_has_no_static_bound(self):
        program = assemble(
            """
            func recv args=2 locals=3
            top:
                ldl 0
                jz done
                ldl 0
                push 1
                sub
                stl 0
                jmp top
            done:
                push 1
                ret
            """
        )
        report = verify(program)
        assert report.ok, report.render()
        assert report.fuel_bounds["recv"] is None

    def test_fuel_bound_matches_vm_execution(self):
        """The static bound is an upper bound on actual fuel burned."""
        program = builtins.capture_udp_port(53)
        report = verify(program)
        bound = report.fuel_bounds["recv"]
        vm = FilterVM(AdmittedProgram(program))
        vm.invoke("recv", packet=b"\x45" + b"\x00" * 40, args=(0, 41))
        assert vm.instructions_executed <= bound

    def test_report_render_mentions_verdict(self):
        report = verify(builtins.capture_all())
        text = report.render()
        assert "verdict: ACCEPT" in text
        assert "worst-case fuel" in text


# ---------------------------------------------------------------------------
# Golden reject corpus: one program per verifier rule
# ---------------------------------------------------------------------------


class TestRejects:
    def test_stack_underflow(self):
        report = verify(recv_program([I(Op.ADD), I(Op.RET)]))
        assert not report.ok
        assert "stack-underflow" in error_codes(report)

    def test_underflow_on_one_branch_only(self):
        # Depth differs by path: JZ-taken path reaches ADD with depth 1.
        code = [
            I(Op.PUSH, 1),       # 0: depth 1
            I(Op.JZ, 3),         # 1: pops condition
            I(Op.PUSH, 2),       # 2: only on fall-through
            I(Op.ADD),           # 3: needs 2; taken path has 0
            I(Op.RET),
        ]
        report = verify(recv_program(code))
        assert "stack-underflow" in error_codes(report)

    def test_unbounded_stack_growth(self):
        code = [I(Op.PUSH, 1), I(Op.JMP, 0)]
        report = verify(recv_program(code))
        assert "stack-overflow" in error_codes(report)

    def test_control_falls_off_function_end(self):
        report = verify(recv_program([I(Op.PUSH, 1)]))
        assert "control-escape" in error_codes(report)

    def test_jump_into_another_function(self):
        code = [
            I(Op.JMP, 3),        # recv jumps into helper's body
            I(Op.PUSH, 0), I(Op.RET),
            I(Op.PUSH, 0), I(Op.RET),
        ]
        program = recv_program(code, extra=[Function("helper", 3, 0, 0)])
        report = verify(program)
        assert "control-escape" in error_codes(report)

    def test_entry_signature_mismatch(self):
        program = FilterProgram(
            code=[I(Op.PUSH, 0), I(Op.RET)],
            functions=[Function("recv", 0, 1, 1)],
        )
        assert "bad-entry-signature" in error_codes(verify(program))

    def test_init_must_take_no_arguments(self):
        program = FilterProgram(
            code=[I(Op.PUSH, 0), I(Op.RET)],
            functions=[Function("init", 0, 1, 1)],
        )
        assert "bad-entry-signature" in error_codes(verify(program))

    def test_no_entry_point(self):
        program = FilterProgram(
            code=[I(Op.PUSH, 0), I(Op.RET)],
            functions=[Function("helper", 0, 0, 0)],
        )
        assert "no-entry-point" in error_codes(verify(program))

    def test_recursion(self):
        code = [
            I(Op.CALL, 1), I(Op.RET),
            I(Op.CALL, 1), I(Op.RET),   # helper calls itself
        ]
        program = recv_program(code, extra=[Function("f", 2, 0, 0)])
        assert "recursion" in error_codes(verify(program))

    def test_mutual_recursion(self):
        code = [
            I(Op.CALL, 1), I(Op.RET),
            I(Op.CALL, 2), I(Op.RET),
            I(Op.CALL, 1), I(Op.RET),
        ]
        program = recv_program(
            code, extra=[Function("a", 2, 0, 0), Function("b", 4, 0, 0)]
        )
        assert "recursion" in error_codes(verify(program))

    def test_call_chain_deeper_than_vm_limit(self):
        chain = MAX_CALL_DEPTH + 1
        code = [I(Op.CALL, 1), I(Op.RET)]
        functions = [Function("recv", 0, 2, 2)]
        for index in range(chain):
            offset = len(code)
            if index < chain - 1:
                code += [I(Op.CALL, index + 2), I(Op.RET)]
            else:
                code += [I(Op.PUSH, 0), I(Op.RET)]
            functions.append(Function(f"f{index}", offset, 0, 0))
        program = FilterProgram(code=code, functions=functions)
        assert "call-depth" in error_codes(verify(program))

    def test_callee_leaving_values_under_its_result(self):
        assert "callee-residue" in error_codes(verify(_residue_loop()))

    def test_nested_frames_deeper_than_the_shared_stack(self):
        codes = error_codes(verify(_deep_frames()))
        assert codes == {"stack-overflow"}

    def test_local_index_out_of_range(self):
        report = verify(recv_program([I(Op.LDL, 9), I(Op.RET)], n_locals=2))
        assert "bad-local" in error_codes(report)

    def test_constant_oob_globals_load(self):
        code = [I(Op.PUSH, 100), I(Op.GLD32), I(Op.RET)]
        report = verify(recv_program(code, globals_size=4))
        assert "oob-globals" in error_codes(report)

    def test_constant_oob_globals_store(self):
        code = [I(Op.PUSH, 7), I(Op.PUSH, 2), I(Op.GST32),
                I(Op.PUSH, 0), I(Op.RET)]
        report = verify(recv_program(code, globals_size=4))
        assert "oob-globals" in error_codes(report)

    def test_constant_oob_info_load(self):
        code = [I(Op.PUSH, 100_000), I(Op.INFOLD8), I(Op.RET)]
        report = verify(recv_program(code), )
        # Unbounded without info_size; bounded when the endpoint's block
        # size is supplied.
        bounded = verify(recv_program(code), info_size=4096)
        assert "oob-info" in error_codes(bounded)
        assert report.ok

    def test_constant_negative_packet_offset(self):
        code = [I(Op.PUSH, -1), I(Op.PKTLD8), I(Op.RET)]
        report = verify(recv_program(code))
        assert "oob-packet" in error_codes(report)

    def test_constant_division_by_zero(self):
        code = [I(Op.PUSH, 4), I(Op.PUSH, 0), I(Op.DIVU), I(Op.RET)]
        report = verify(recv_program(code))
        assert "div-by-zero" in error_codes(report)

    def test_constants_fold_through_arithmetic(self):
        # 2 - 2 = 0 as divisor: only visible through constant folding.
        code = [
            I(Op.PUSH, 8),
            I(Op.PUSH, 2), I(Op.PUSH, 2), I(Op.SUB),
            I(Op.DIVU), I(Op.RET),
        ]
        report = verify(recv_program(code))
        assert "div-by-zero" in error_codes(report)

    def test_bad_jump_target(self):
        report = verify(recv_program([I(Op.JMP, 99), I(Op.PUSH, 0),
                                      I(Op.RET)]))
        assert "bad-jump" in error_codes(report)

    def test_verify_or_raise(self):
        with pytest.raises(VerifyRejected) as exc_info:
            verify_or_raise(recv_program([I(Op.ADD), I(Op.RET)]))
        assert "stack-underflow" in str(exc_info.value)
        assert not exc_info.value.report.ok


class TestWarnings:
    def test_unreachable_code_is_warning_not_error(self):
        code = [
            I(Op.PUSH, 0), I(Op.RET),
            I(Op.PUSH, 1), I(Op.RET),  # dead
        ]
        report = verify(recv_program(code))
        assert report.ok
        assert "unreachable-code" in warning_codes(report)

    @pytest.mark.parametrize("dead", [I(Op.ADD), I(Op.CALL, 0)],
                             ids=["underflowing", "self-call"])
    def test_code_after_a_return_is_not_analysed(self, dead):
        report = verify(recv_program([I(Op.PUSH, 0), I(Op.RET), dead,
                                      I(Op.RET)]))
        assert report.ok, report.render()
        assert [f.code for f in report.findings] == ["unreachable-code"]
        assert report.fuel_bounds["recv"] == 2

    def test_uncalled_function_warns(self):
        code = [
            I(Op.PUSH, 0), I(Op.RET),
            I(Op.PUSH, 1), I(Op.RET),
        ]
        program = recv_program(code, extra=[Function("helper", 2, 0, 0)])
        report = verify(program)
        assert report.ok
        assert "unused-function" in warning_codes(report)

    def test_fuel_bound_warning_when_limit_too_small(self):
        program = builtins.icmp_echo_monitor()
        report = verify(program, fuel_limit=5)
        assert report.ok  # warning, not rejection
        assert "fuel-bound" in warning_codes(report)


# ---------------------------------------------------------------------------
# Satellite 1: assembler / program.verify / VM agreement on ranges
# ---------------------------------------------------------------------------


class TestJumpRangeAgreement:
    def test_label_one_past_the_end_is_an_assembly_error_with_line(self):
        source = """
            func recv args=2
                push 1
                jz end
                push 1
                ret
            end:
        """
        with pytest.raises(AssemblyError) as exc_info:
            assemble(source)
        assert "line 4" in str(exc_info.value)
        assert "one past the end" in str(exc_info.value)

    def test_empty_function_body_is_an_assembly_error(self):
        source = """
            func helper args=0
            func recv args=2
                push 1
                ret
        """
        with pytest.raises(AssemblyError) as exc_info:
            assemble(source)
        assert "empty body" in str(exc_info.value)
        assert "line 2" in str(exc_info.value)

    def test_function_at_offset_zero_of_empty_code_rejected(self):
        """Regression: program.verify used to admit a function table entry
        pointing into empty code (max(1, len) escape hatch); the VM then
        faulted 'pc 0 ran off the end' at runtime."""
        program = FilterProgram(code=[], functions=[Function("recv", 0, 2, 2)])
        with pytest.raises(ProgramError):
            program.verify()
        # The static verifier, admission and the reference VM agree.
        assert "bad-function-offset" in error_codes(verify(program))
        with pytest.raises(VerifyRejected):
            AdmittedProgram(program)
        with pytest.raises(ProgramError):
            OracleVM(program)

    def test_assembler_verifier_vm_agree_on_numeric_jump_bounds(self):
        for target in (-1, 3, 99):
            program = recv_program(
                [I(Op.JMP, target), I(Op.PUSH, 0), I(Op.RET)]
            )
            assert "bad-jump" in error_codes(verify(program))
            with pytest.raises(ProgramError):
                program.verify()
            with pytest.raises(VerifyRejected):
                AdmittedProgram(program)
            with pytest.raises(ProgramError):
                OracleVM(program)

    def test_last_instruction_is_a_valid_jump_target(self):
        source = """
            func recv args=2
                push 0
                jz last
                push 7
                ret
            last:
                push 0
                ret
        """
        program = assemble(source)
        assert verify(program).ok
        assert FilterVM(AdmittedProgram(program)).invoke("recv", args=(0, 0)) == 0


# ---------------------------------------------------------------------------
# Satellite 2: codegen drops provably dead PUSH 0; RET tails
# ---------------------------------------------------------------------------


class TestDeadTailElimination:
    def test_always_returning_body_has_no_dead_tail(self):
        program = compile_cpf(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                if (len > 20)
                    return len;
                else
                    return 0;
            }
            """
        )
        assert program.code[-1].op == Op.RET
        # Every instruction is reachable: zero unreachable-code warnings.
        assert verify(program).findings == []

    def test_fall_through_body_keeps_implicit_return(self):
        program = compile_cpf(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                if (len > 20)
                    return len;
            }
            """
        )
        vm = FilterVM(AdmittedProgram(program))
        assert vm.invoke("recv", packet=b"", args=(0, 5)) == 0
        assert vm.invoke("recv", packet=b"", args=(0, 100)) == 100

    def test_semantics_preserved_for_figure2(self):
        """Dead-tail elimination must not change a single verdict."""
        program = figure2_monitor(corrected=True)
        vm = FilterVM(AdmittedProgram(program), info=BytesInfo(b"\x00" * 64))
        vm.run_init()
        # Non-ICMP garbage packet: denied.
        assert vm.invoke("send", packet=b"\x00" * 40, args=(0, 40)) == 0


# ---------------------------------------------------------------------------
# Soundness property: accepted programs never hit the statically-excluded
# fault classes at runtime
# ---------------------------------------------------------------------------

# Faults the verifier claims to rule out. Data-dependent faults (packet
# bounds, dynamic division, fuel) legitimately remain possible.
_EXCLUDED_FAULTS = (
    "stack underflow",
    "stack overflow",
    "call depth exceeded",
    "ran off the end",
    "out of range",       # locals
    "unhandled opcode",
)

# Every opcode without an operand, with its (pops, pushes): all ALU ops,
# every packet/info/globals load and store width, stack shuffles, PKTLEN
# and RET.
_OPERAND_FREE = [(op, stack_effect(I(op), [])) for op in Op
                 if op not in OPS_WITH_OPERAND]

# Small values make plausible offsets, lengths and locals; the full i64
# range exercises 64-bit wrap-around, signedness and negative offsets.
_IMMEDIATES = st.one_of(st.integers(-4, 40),
                        st.integers(-(1 << 63), (1 << 63) - 1))


@st.composite
def _body(draw, index, signatures):
    """Function ``index``'s code, less jump targets: JMP/JZ/JNZ carry
    None. Drawing only what the stack can feed keeps most programs valid;
    jumps and early returns still unbalance some, which the verifier
    rejects."""
    n_locals = signatures[index][1]
    slots = [Op.LDL, Op.STL] if n_locals else []
    depth, body = 0, []
    for _ in range(draw(st.integers(0, 24 if index == 0 else 10))):
        if draw(st.integers(0, 2)) == 0:
            op = draw(st.sampled_from([Op.PUSH] + slots[:1]))
        else:
            options = [Op.JMP] + [op for op, (pops, _) in _OPERAND_FREE
                                  if pops <= depth]
            if depth:
                options += [Op.JZ, Op.JNZ] + slots[1:]
            callees = [callee for callee, (n_args, _) in enumerate(signatures)
                       if n_args <= depth]
            options += [Op.CALL] * bool(callees)
            op = draw(st.sampled_from(options))
        if op == Op.PUSH:
            body.append(I(op, draw(_IMMEDIATES)))
            depth += 1
        elif op in (Op.LDL, Op.STL):
            # Now and then a slot outside the frame: an error where it can
            # run, only a warning in dead code.
            slots_drawn = (st.integers(0, n_locals - 1) if draw(st.integers(0, 15))
                           else st.sampled_from([-1, n_locals, 1 << 40]))
            body.append(I(op, draw(slots_drawn)))
            depth += 1 if op == Op.LDL else -1
        elif op == Op.CALL:
            callee = draw(st.sampled_from(callees))
            body.append(I(op, callee))
            depth += 1 - signatures[callee][0]
        elif op in (Op.JMP, Op.JZ, Op.JNZ):
            body.append(I(op, 0))  # target drawn once the body is complete
            depth -= op != Op.JMP
        else:
            pops, pushes = stack_effect(I(op), [])
            body.append(I(op))
            depth = 0 if op == Op.RET else depth - pops + pushes
    return body + [I(Op.POP)] * depth + [I(Op.PUSH, draw(_IMMEDIATES)),
                                         I(Op.RET)]


@st.composite
def random_programs(draw):
    """Random programs, biased toward-but-not-guaranteed valid.

    ``recv`` plus up to two helpers, any of which may CALL any function
    (recursion is rejected unless the call is dead code). Bodies draw
    from every opcode, with jumps to anywhere in their own
    function (backward ones make loops), and end by returning one value.
    The verifier is the filter: properties only exercise programs it
    accepts.
    """
    n_functions = draw(st.integers(1, 3))
    signatures = []
    for index in range(n_functions):
        n_args = 2 if index == 0 else draw(st.integers(0, 2))
        signatures.append((n_args, n_args + draw(st.integers(0, 3))))
    code: list = []
    functions = []
    for index, (n_args, n_locals) in enumerate(signatures):
        offset = len(code)
        body = draw(_body(index, signatures))
        for at, instruction in enumerate(body):
            if instruction.op in (Op.JMP, Op.JZ, Op.JNZ):
                target = offset + draw(st.integers(0, len(body) - 1))
                body[at] = I(instruction.op, target)
        code += body
        functions.append(Function("recv" if index == 0 else f"h{index}",
                                  offset, n_args, n_locals))
    return FilterProgram(code=code, functions=functions,
                         globals_size=draw(st.integers(0, 12)))


def _residue_loop():
    """recv loops calling g, which leaves one value under its result each
    time; the shared stack overflows before fuel runs out."""
    code = [I(Op.CALL, 1), I(Op.POP), I(Op.JMP, 0),
            I(Op.PUSH, 1), I(Op.PUSH, 2), I(Op.RET)]
    return FilterProgram(code=code, functions=[Function("recv", 0, 2, 2),
                                               Function("g", 3, 0, 0)])


def _dead_self_call():
    """recv returns at once; the CALL after its RET can never run."""
    code = [I(Op.PUSH, 0), I(Op.RET), I(Op.CALL, 0), I(Op.RET)]
    return FilterProgram(code=code, functions=[Function("recv", 0, 2, 2)])


def _deep_frames():
    """recv holds 1000 values when it calls g, which needs 30 more: each
    frame fits MAX_STACK, the two together do not."""
    code = [I(Op.PUSH, 1)] * 1000 + [I(Op.CALL, 1), I(Op.RET)]
    helper = len(code)
    code += [I(Op.PUSH, 1)] * 30 + [I(Op.ADD)] * 29 + [I(Op.RET)]
    return FilterProgram(code=code, functions=[Function("recv", 0, 2, 2),
                                               Function("g", helper, 0, 0)])


_PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


class TestSoundnessProperty:
    @given(
        program=random_programs(),
        packet=st.binary(max_size=64),
        arg=st.integers(0, 1 << 32),
        info=st.binary(max_size=32),
    )
    # Both were accepted, then faulted "stack overflow": frames share one
    # operand stack, and the verifier only bounded each frame alone.
    @example(program=_residue_loop(), packet=b"", arg=0, info=b"")
    @example(program=_deep_frames(), packet=b"", arg=0, info=b"")
    # verify() raised RecursionError: a block ran on past a RET, so the
    # fuel bound followed the dead self-call.
    @example(program=_dead_self_call(), packet=b"", arg=0, info=b"")
    @_PROPERTY_SETTINGS
    def test_accepted_programs_never_hit_excluded_faults(
        self, program, packet, arg, info
    ):
        report = verify(program, info_size=len(info))
        assume(report.ok)
        vm = OracleVM(program, info=BytesInfo(info))
        verdict = vm.invoke("recv", packet=packet, args=(arg, len(packet)))
        if vm.last_fault is not None:
            for excluded in _EXCLUDED_FAULTS:
                assert excluded not in vm.last_fault, (
                    f"verifier accepted a program that faulted "
                    f"{vm.last_fault!r}:\n{report.render()}"
                )
        # What runs without those checks agrees with the checked oracle.
        lowered = FilterVM(AdmittedProgram(program, info_size=len(info)),
                           info=BytesInfo(info))
        assert lowered.invoke("recv", packet=packet,
                              args=(arg, len(packet))) == verdict
        assert _outcome(lowered) == _outcome(vm)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    def test_accepted_call_graphs_respect_depth(self, data):
        """Multi-function variant: recv -> chain of helpers."""
        depth = data.draw(st.integers(1, 6))
        code = [I(Op.CALL, 1), I(Op.RET)]
        functions = [Function("recv", 0, 2, 2)]
        for index in range(depth):
            offset = len(code)
            if index < depth - 1:
                code += [I(Op.CALL, index + 2), I(Op.RET)]
            else:
                code += [I(Op.PUSH, data.draw(st.integers(0, 5))),
                         I(Op.RET)]
            functions.append(Function(f"f{index}", offset, 0, 0))
        program = FilterProgram(code=code, functions=functions)
        report = verify(program)
        assume(report.ok)
        vm = OracleVM(program)
        verdict = vm.invoke("recv", packet=b"", args=(0, 0))
        assert vm.last_fault is None
        lowered = FilterVM(AdmittedProgram(program))
        assert lowered.invoke("recv", packet=b"", args=(0, 0)) == verdict
        assert _outcome(lowered) == _outcome(vm)


def _outcome(vm):
    return (vm.instructions_executed, vm.faults, vm.last_fault,
            bytes(vm.globals))


def _block_hazards():
    """One block that reads local 0 before and after storing to it, and
    swaps two different values before a subtraction: b - a + 7."""
    code = [I(Op.LDL, 0), I(Op.LDL, 1), I(Op.PUSH, 7), I(Op.STL, 0),
            I(Op.SWAP), I(Op.SUB), I(Op.LDL, 0), I(Op.ADD), I(Op.RET)]
    return recv_program(code)


def _countdown_calls():
    """do { acc += h(n, 1) } while (--n): a taken backward JNZ, and a
    helper h(a, b) = a - b that tells its arguments apart."""
    code = [I(Op.LDL, 0), I(Op.PUSH, 1), I(Op.CALL, 1), I(Op.LDL, 2),
            I(Op.ADD), I(Op.STL, 2), I(Op.LDL, 0), I(Op.PUSH, 1), I(Op.SUB),
            I(Op.DUP), I(Op.STL, 0), I(Op.JNZ, 0), I(Op.LDL, 2), I(Op.RET),
            I(Op.LDL, 0), I(Op.LDL, 1), I(Op.SUB), I(Op.RET)]
    return recv_program(code, n_locals=3, extra=[Function("h", 14, 2, 2)])


def _dead_bad_store():
    """recv returns at once; after it, dead code stores to slot -1. The
    verifier only warns about dead code, so the program is accepted."""
    code = [I(Op.PUSH, 0), I(Op.RET), I(Op.PUSH, 1), I(Op.STL, -1),
            I(Op.PUSH, 0), I(Op.RET)]
    return recv_program(code)


def _fuel_edges():
    """One block: a store, a packet load, a return. Fuel 2 runs out just
    before the store, fuel 4 just before the load, fuel 5 just before the
    return."""
    code = [I(Op.PUSH, 1), I(Op.PUSH, 0), I(Op.GST8), I(Op.PUSH, 100),
            I(Op.PKTLD8), I(Op.RET)]
    return recv_program(code, globals_size=1)


class TestLoweredMatchesExecute:
    """An admitted program runs lowered code without the checks the
    verifier proved; the reference VM's ``_execute`` keeps every check
    and is the oracle."""

    @given(
        program=random_programs(),
        calls=st.lists(st.tuples(st.binary(max_size=64),
                                 st.integers(0, 1 << 64)),
                       min_size=3, max_size=5),
        info=st.binary(max_size=32),
        # Small budgets run out mid-block, between a guarded load or
        # store and the block's end.
        fuel=st.one_of(st.just(DEFAULT_FUEL), st.integers(0, 40)),
    )
    @example(program=_block_hazards(), calls=[(b"", 3), (b"ab", 9), (b"x", 0)],
             info=b"", fuel=DEFAULT_FUEL)
    @example(program=_countdown_calls(), calls=[(b"", 3), (b"", 5), (b"", 0)],
             info=b"", fuel=DEFAULT_FUEL)
    @example(program=_fuel_edges(), calls=[(b"", 0)] * 3, info=b"", fuel=2)
    @example(program=_fuel_edges(), calls=[(b"", 0)] * 3, info=b"", fuel=4)
    @example(program=_fuel_edges(), calls=[(bytes(120), 0)] * 3, info=b"",
             fuel=5)
    # Admission raised SyntaxError: the dead STL -1 was lowered to
    # "l-1 = 1", although the verifier never checks dead code.
    @example(program=_dead_bad_store(), calls=[(b"", 0)] * 3, info=b"",
             fuel=DEFAULT_FUEL)
    @_PROPERTY_SETTINGS
    def test_same_verdicts_fuel_faults_and_globals(self, program, calls,
                                                   info, fuel):
        assume(verify(program, info_size=len(info), fuel_limit=fuel).ok)
        reference = OracleVM(program, info=BytesInfo(info), fuel_limit=fuel)
        lowered = FilterVM(AdmittedProgram(program, info_size=len(info),
                                           fuel_limit=fuel),
                           info=BytesInfo(info))
        # Globals carry state from one invocation to the next.
        for packet, arg in calls:
            args = (arg, len(packet))
            assert lowered.invoke("recv", packet=packet, args=args) == \
                reference.invoke("recv", packet=packet, args=args)
            assert _outcome(lowered) == _outcome(reference)

    def test_a_bare_program_is_refused_before_it_runs(self):
        """Only an admitted program can be instantiated: a bare one, even
        one the verifier would accept, is refused by the constructor."""
        program = builtins.capture_all()
        assert verify(program).ok
        with pytest.raises(TypeError, match="AdmittedProgram"):
            FilterVM(program)

    def test_only_entry_points_can_be_invoked(self):
        """A helper is admitted as part of its caller, never on its own."""
        program = _countdown_calls()
        vm = FilterVM(AdmittedProgram(program))
        with pytest.raises(ProgramError, match="no entry point 'h'"):
            vm.invoke("h", args=(3, 1))
        assert (vm.instructions_executed, vm.faults) == (0, 0)
        assert vm.invoke("recv", args=(3, 0)) == 3

    def test_runs_on_the_fuel_it_was_admitted_against(self):
        admitted = AdmittedProgram(_fuel_edges(), fuel_limit=4)
        vm = FilterVM(admitted)
        assert vm.fuel_limit == admitted.fuel_limit == 4
        assert vm.invoke("recv", args=(0, 0)) == 0
        assert vm.last_fault == "fuel exhausted"

    def test_only_a_program_the_verifier_accepts_is_admitted(self):
        with pytest.raises(VerifyRejected) as rejected:
            AdmittedProgram(recv_program([I(Op.ADD), I(Op.RET)]))
        assert "stack-underflow" in rejected.value.report.render()

    def test_admission_verifies_the_program_it_is_given(self):
        """A passing verdict on a program edited afterwards admits
        nothing: admission checks the content it is handed."""
        program = builtins.capture_all()
        assert verify(program).ok
        program.code[0] = I(Op.ADD)
        with pytest.raises(VerifyRejected):
            AdmittedProgram(program)

    def test_dead_code_is_not_lowered(self):
        program = _dead_bad_store()
        admitted = AdmittedProgram(program)
        assert admitted.report.ok
        assert warning_codes(admitted.report) == {"unreachable-code"}
        assert FilterVM(admitted).invoke("recv", args=(0, 0)) == 0

    def test_admitted_program_is_immutable_and_keeps_its_code(self):
        program = builtins.capture_all()
        admitted = AdmittedProgram(program)
        with pytest.raises(AttributeError):
            admitted.entries = {}
        program.code[0] = I(Op.PUSH, 0)  # after admission: not what runs
        vm = FilterVM(admitted)
        assert vm.invoke("recv", packet=b"x", args=(0, 1)) == VERDICT_CONSUME


# ---------------------------------------------------------------------------
# Admission memo: each distinct program is analysed and lowered once, and no
# admission can tell
# ---------------------------------------------------------------------------


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty the admission memos; returns a list that records each time
    the analysis actually runs."""
    program_module = importlib.import_module("repro.filtervm.program")
    verify_module = importlib.import_module("repro.filtervm.verify")
    vm_module = importlib.import_module("repro.filtervm.vm")
    for cache in (program_module._DECODE_CACHE, verify_module._VERIFY_CACHE,
                  vm_module._LOWERED_CACHE):
        cache.clear()
    analyses = []
    real_run = verify_module._Verifier.run

    def counting_run(self):
        analyses.append(self.program.snapshot())
        return real_run(self)

    monkeypatch.setattr(verify_module._Verifier, "run", counting_run)
    return analyses


class TestAdmissionMemo:
    def test_fuel_limit_is_part_of_the_key(self, cold_memos):
        blob = builtins.capture_protocol(1).encode()

        def admit(fuel):
            report, admitted = admit_filter_program(
                FilterProgram.decode(blob), obs=Observability(),
                fuel_limit=fuel, kind="ncap",
            )
            assert admitted is not None and admitted.report == report
            return report

        default = admit(DEFAULT_FUEL)
        tight = admit(3)
        assert "fuel-bound" not in warning_codes(default)
        assert "fuel-bound" in warning_codes(tight)
        assert "worst-case cost 7 exceeds the fuel limit 3" in tight.render()
        assert admit(DEFAULT_FUEL).render() == default.render()
        assert len(cold_memos) == 2

    def test_rejected_monitor_report_is_identical_from_the_memo(
        self, cold_memos
    ):
        def reject_once():
            testbed = Testbed()
            server, descriptor = testbed.make_controller(
                experiment_restrictions=Restrictions(
                    monitor=_broken_monitor_bytes())
            )
            testbed.connect_endpoint(descriptor)
            testbed.run(until=testbed.sim.now + 30.0)
            server.stop()
            return server.monitor_rejections, server.auth_failures

        first, second = reject_once(), reject_once()
        assert len(first[0]) == 1 and "stack-underflow" in first[0][0]
        assert second == first
        assert len(cold_memos) == 1

    def test_rejected_ncap_payload_is_identical_from_the_memo(
        self, cold_memos
    ):
        def reject_once():
            def experiment(handle):
                yield from handle.nopen_raw(0)
                now = yield from handle.read_clock()
                status = yield from handle.ncap(
                    0, now + 60 * NANOSECONDS, _broken_monitor_bytes()
                )
                return status, handle.last_verifier_report

            return Testbed().run_experiment(experiment)

        first, second = reject_once(), reject_once()
        assert first[0] == ERR_MONITOR_REJECTED
        assert second == first
        assert len(cold_memos) == 1

    def test_ncap_filter_with_a_bad_slot_in_dead_code_is_admitted(
        self, cold_memos
    ):
        """What the verifier leaves unchecked is never compiled: the
        filter installs and runs instead of crashing the session."""
        def install_twice(handle):
            yield from handle.nopen_raw(0)
            now = yield from handle.read_clock()
            statuses = []
            for _ in range(2):
                statuses.append((yield from handle.ncap(
                    0, now + 60 * NANOSECONDS, _dead_bad_store().encode()
                )))
            return statuses, handle.last_verifier_report

        assert Testbed().run_experiment(install_twice) == ([0, 0], None)
        assert len(cold_memos) == 1

    def test_mutating_what_a_caller_got_does_not_reach_the_next(
        self, cold_memos
    ):
        blob = builtins.icmp_echo_monitor().encode()
        program = FilterProgram.decode(blob)
        report = verify(program, info_size=MEMORY_SIZE)
        expected = report.render()
        program.code[0] = I(Op.ADD)
        program.functions.clear()
        program.globals_size = 0
        report.findings.append(Finding("error", "forged", "mutated"))
        report.fuel_bounds.clear()

        again = FilterProgram.decode(blob)
        assert again.encode() == blob
        second = verify(again, info_size=MEMORY_SIZE)
        assert second.ok and second.render() == expected
        assert len(cold_memos) == 1


# ---------------------------------------------------------------------------
# Every Cpf program we ship verifies clean (no errors)
# ---------------------------------------------------------------------------


class TestShippedProgramsVerify:
    def test_example_monitors_compile_and_verify_clean(self):
        paths = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.cpf")))
        assert paths, "examples/monitors/ should contain Cpf sources"
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            program = compile_cpf(source)
            report = verify(program)
            assert report.ok, f"{path}:\n{report.render()}"

    @pytest.mark.parametrize("source", [FIGURE2_VERBATIM, FIGURE2_CORRECTED],
                             ids=["verbatim", "corrected"])
    def test_figure2_sources_verify_clean(self, source):
        assert verify(compile_cpf(source)).ok

    def test_corrected_sources_lint_clean(self):
        assert lint_source(FIGURE2_CORRECTED) == []

    def test_verbatim_source_lints_the_paper_bug(self):
        diagnostics = lint_source(FIGURE2_VERBATIM)
        assert [d.code for d in diagnostics] == ["unreachable-statement"]


# ---------------------------------------------------------------------------
# Cpf lint pass
# ---------------------------------------------------------------------------


class TestCpfLint:
    def test_unused_local(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t unused = 3;
                return len;
            }
            """
        )
        assert [d.code for d in diagnostics] == ["unused-variable"]
        assert diagnostics[0].line == 3

    def test_assigned_but_never_read_still_unused(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t x = 0;
                x = len;
                return len;
            }
            """
        )
        assert [d.code for d in diagnostics] == ["unused-variable"]

    def test_unused_function(self):
        diagnostics = lint_source(
            """
            uint32_t helper(uint32_t x) { return x; }
            uint32_t recv(const union packet * pkt, uint32_t len) {
                return len;
            }
            """
        )
        assert [d.code for d in diagnostics] == ["unused-function"]

    def test_called_helper_is_not_flagged(self):
        diagnostics = lint_source(
            """
            uint32_t helper(uint32_t x) { return x; }
            uint32_t recv(const union packet * pkt, uint32_t len) {
                return helper(len);
            }
            """
        )
        assert diagnostics == []

    def test_unreachable_statement(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                return len;
                len = 0;
            }
            """
        )
        assert [d.code for d in diagnostics] == ["unreachable-statement"]
        assert diagnostics[0].line == 4

    def test_infinite_loop_without_escape_references_fuel(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t x = 0;
                while (1) { x = x + 1; }
                return x;
            }
            """
        )
        codes = [d.code for d in diagnostics]
        assert "loop-no-progress" in codes
        fuel_warning = next(d for d in diagnostics
                            if d.code == "loop-no-progress")
        assert str(DEFAULT_FUEL) in fuel_warning.message

    def test_loop_not_modifying_its_condition(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t i = 0;
                uint32_t n = len;
                while (n > 0) { i = i + 1; }
                return i;
            }
            """
        )
        assert "loop-no-progress" in [d.code for d in diagnostics]

    def test_progressing_loop_is_clean(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t n = len;
                uint32_t acc = 0;
                while (n > 0) { acc = acc + n; n = n - 1; }
                return acc;
            }
            """
        )
        assert diagnostics == []

    def test_loop_with_break_is_clean(self):
        diagnostics = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t i = 0;
                while (1) {
                    i = i + 1;
                    if (i > len)
                        break;
                }
                return i;
            }
            """
        )
        assert diagnostics == []

    def test_diagnostic_render_format(self):
        diagnostic = lint_source(
            """
            uint32_t recv(const union packet * pkt, uint32_t len) {
                uint32_t dead = 1;
                return len;
            }
            """
        )[0]
        rendered = diagnostic.render("monitor.c")
        assert rendered.startswith("monitor.c:3: warning[unused-variable]")


# ---------------------------------------------------------------------------
# Endpoint admission wiring
# ---------------------------------------------------------------------------


def _broken_monitor_bytes():
    """Decodes fine (structurally valid) but guaranteed to underflow."""
    return recv_program([I(Op.ADD), I(Op.RET)]).encode()


class TestEndpointAdmission:
    def test_session_rejected_with_monitor_rejected_code(self):
        testbed = Testbed()
        restrictions = Restrictions(monitor=_broken_monitor_bytes())
        server, descriptor = testbed.make_controller(
            experiment_restrictions=restrictions
        )
        testbed.connect_endpoint(descriptor)
        testbed.run(until=testbed.sim.now + 30.0)
        server.stop()
        # The controller surfaces the verifier report...
        assert len(server.monitor_rejections) == 1
        report = server.monitor_rejections[0]
        assert "REJECT" in report
        assert "stack-underflow" in report
        assert server.auth_failures and "monitor 0 rejected" in \
            server.auth_failures[0]
        # ...and the endpoint never created a session.
        assert testbed.endpoint.sessions == {}
        assert testbed.endpoint.auth_failures == 1

    def test_good_monitor_still_admits_session(self):
        testbed = Testbed()
        restrictions = Restrictions(
            monitor=figure2_monitor(corrected=True).encode()
        )

        def experiment(handle):
            now = yield from handle.read_clock()
            return now

        assert testbed.run_experiment(
            experiment, experiment_restrictions=restrictions
        ) > 0

    def test_ncap_filter_goes_through_the_same_gate(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_raw(0)
            now = yield from handle.read_clock()
            status = yield from handle.ncap(
                0, now + 60 * NANOSECONDS, _broken_monitor_bytes()
            )
            return status, handle.last_verifier_report

        status, report = testbed.run_experiment(experiment)
        assert status == ERR_MONITOR_REJECTED
        assert report is not None
        assert "stack-underflow" in report

    def test_ncap_accepts_verified_filter(self):
        testbed = Testbed()

        def experiment(handle):
            yield from handle.nopen_raw(0)
            now = yield from handle.read_clock()
            status = yield from handle.ncap(
                0, now + 60 * NANOSECONDS, builtins.capture_protocol(17)
            )
            return status, handle.last_verifier_report

        status, report = testbed.run_experiment(experiment)
        assert status == 0
        assert report is None

    def test_ncap_filter_runs_on_the_fuel_it_was_admitted_against(self):
        """A filter admitted against the operator's fuel limit must also
        run on it, not on the VM default."""
        from repro.experiments.ping import ping
        from repro.packet.ipv4 import PROTO_ICMP

        filt = builtins.capture_protocol(PROTO_ICMP)
        assert verify(filt, fuel_limit=3).fuel_bounds["recv"] == 7
        testbed = Testbed()
        testbed.endpoint_config.monitor_fuel = 3

        def experiment(handle):
            return (yield from ping(handle, testbed.target_address, count=3))

        assert testbed.run_experiment(experiment).received == 0

    def test_verification_emits_obs_counters(self):
        testbed = Testbed()
        testbed.enable_telemetry()
        restrictions = Restrictions(
            monitor=figure2_monitor(corrected=True).encode()
        )

        def experiment(handle):
            yield from handle.read_clock()
            return True

        testbed.run_experiment(
            experiment, experiment_restrictions=restrictions
        )
        snapshot = testbed.telemetry_snapshot()
        assert snapshot.counter_total("filtervm.verify_ok") >= 1
        assert snapshot.counter_total("filtervm.verify_rejected") == 0
        events = [e for e in snapshot.events
                  if e.name.startswith("verify.")]
        assert any(e.name == "verify.begin" for e in events)
        assert any(e.name == "verify.end" for e in events)

    def test_rejected_monitor_bumps_rejected_counter(self):
        testbed = Testbed()
        testbed.enable_telemetry()
        restrictions = Restrictions(monitor=_broken_monitor_bytes())
        server, descriptor = testbed.make_controller(
            experiment_restrictions=restrictions
        )
        testbed.connect_endpoint(descriptor)
        testbed.run(until=testbed.sim.now + 30.0)
        server.stop()
        snapshot = testbed.telemetry_snapshot()
        assert snapshot.counter_total("filtervm.verify_rejected") >= 1
