"""Tests for the static verifier, the Cpf lint pass, and their wiring
into endpoint admission (ISSUE 3)."""

import glob
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.testbed import Testbed
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
    AssemblyError,
    BytesInfo,
    FilterProgram,
    FilterVM,
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
from repro.filtervm.vm import DEFAULT_FUEL, MAX_CALL_DEPTH
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
        vm = FilterVM(program)
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
        # The static verifier and the VM agree.
        assert "bad-function-offset" in error_codes(verify(program))
        with pytest.raises(ProgramError):
            FilterVM(program)

    def test_assembler_verifier_vm_agree_on_numeric_jump_bounds(self):
        for target in (-1, 3, 99):
            program = recv_program(
                [I(Op.JMP, target), I(Op.PUSH, 0), I(Op.RET)]
            )
            assert "bad-jump" in error_codes(verify(program))
            with pytest.raises(ProgramError):
                program.verify()
            with pytest.raises(ProgramError):
                FilterVM(program)

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
        assert FilterVM(program).invoke("recv", args=(0, 0)) == 0


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
        vm = FilterVM(program)
        assert vm.invoke("recv", packet=b"", args=(0, 5)) == 0
        assert vm.invoke("recv", packet=b"", args=(0, 100)) == 100

    def test_semantics_preserved_for_figure2(self):
        """Dead-tail elimination must not change a single verdict."""
        program = figure2_monitor(corrected=True)
        vm = FilterVM(program, info=BytesInfo(b"\x00" * 64))
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

_OP_POOL = [
    lambda d: I(Op.PUSH, d(st.integers(-4, 260))),
    lambda d: I(Op.POP),
    lambda d: I(Op.DUP),
    lambda d: I(Op.SWAP),
    lambda d: I(Op.LDL, d(st.integers(0, 4))),
    lambda d: I(Op.STL, d(st.integers(0, 4))),
    lambda d: I(Op.ADD),
    lambda d: I(Op.SUB),
    lambda d: I(Op.MUL),
    lambda d: I(Op.DIVU),
    lambda d: I(Op.MODS),
    lambda d: I(Op.EQ),
    lambda d: I(Op.LTS),
    lambda d: I(Op.LNOT),
    lambda d: I(Op.BNOT),
    lambda d: I(Op.PKTLEN),
    lambda d: I(Op.PKTLD8),
    lambda d: I(Op.PKTLD16),
    lambda d: I(Op.INFOLD8),
    lambda d: I(Op.GLD8),
    lambda d: I(Op.GST8),
]


@st.composite
def random_programs(draw):
    """Random recv programs, biased toward-but-not-guaranteed valid.

    Straight-line bodies from the op pool with optional forward jumps,
    always terminated by PUSH/RET. The verifier is the filter: the
    property only exercises programs it accepts.
    """
    body = [
        _OP_POOL[draw(st.integers(0, len(_OP_POOL) - 1))](draw)
        for _ in range(draw(st.integers(0, 24)))
    ]
    n_jumps = draw(st.integers(0, 3))
    total = len(body) + 2  # plus the PUSH/RET terminator
    for _ in range(n_jumps):
        at = draw(st.integers(0, len(body)))
        op = draw(st.sampled_from([Op.JMP, Op.JZ, Op.JNZ]))
        target = draw(st.integers(0, total))
        body.insert(at, I(op, min(target, total - 1) + 1))
        total += 1
    code = body + [I(Op.PUSH, 0), I(Op.RET)]
    n_locals = draw(st.integers(2, 5))
    globals_size = draw(st.integers(0, 8))
    return FilterProgram(
        code=code,
        functions=[Function("recv", 0, 2, n_locals)],
        globals_size=globals_size,
    )


class TestSoundnessProperty:
    @given(
        program=random_programs(),
        packet=st.binary(max_size=64),
        arg=st.integers(0, 1 << 32),
        info=st.binary(max_size=32),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much,
                               HealthCheck.too_slow],
    )
    def test_accepted_programs_never_hit_excluded_faults(
        self, program, packet, arg, info
    ):
        report = verify(program, info_size=len(info))
        assume(report.ok)
        vm = FilterVM(program, info=BytesInfo(info))
        vm.invoke("recv", packet=packet, args=(arg, len(packet)))
        if vm.last_fault is not None:
            for excluded in _EXCLUDED_FAULTS:
                assert excluded not in vm.last_fault, (
                    f"verifier accepted a program that faulted "
                    f"{vm.last_fault!r}:\n{report.render()}"
                )

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
        vm = FilterVM(program)
        vm.invoke("recv", packet=b"", args=(0, 0))
        assert vm.last_fault is None


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
