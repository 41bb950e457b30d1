"""Tests for the filter VM: ISA, assembler, interpreter, builtins."""

import pytest
from filtervm_oracle import OracleVM
from hypothesis import given, strategies as st

from repro.cpf import figure2_monitor
from repro.filtervm import (
    AdmittedProgram,
    AssemblyError,
    BytesInfo,
    FilterProgram,
    FilterVM,
    Instruction,
    Op,
    ProgramError,
    VERDICT_CONSUME,
    VERDICT_MIRROR,
    assemble,
    builtins,
    disassemble,
)
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP, PROTO_UDP
from repro.packet.udp import UdpDatagram
from repro.util.inet import parse_ip


def run(source, entry="main", packet=b"", args=(), info=b"", vm_out=None):
    """Run ``entry`` of an assembled program on the reference VM, which
    runs any function of any program, admitted or not."""
    program = assemble(source)
    vm = OracleVM(program, info=BytesInfo(info))
    if vm_out is not None:
        vm_out.append(vm)
    return vm.invoke(entry, packet=packet, args=args)


class TestAssembler:
    def test_simple_program(self):
        result = run(
            """
            func main args=0
                push 2
                push 3
                add
                ret
            """
        )
        assert result == 5

    def test_labels_and_jumps(self):
        result = run(
            """
            func main args=1
                ldl 0
                jz zero
                push 100
                ret
            zero:
                push 200
                ret
            """,
            args=(0,),
        )
        assert result == 200

    def test_unknown_instruction_rejected(self):
        with pytest.raises(AssemblyError, match="unknown instruction"):
            assemble("func main args=0\n    frobnicate\n")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            assemble("func main args=0\n    jmp nowhere\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            assemble("func main args=0\nx:\nx:\n    push 0\n    ret\n")

    def test_instruction_outside_function_rejected(self):
        with pytest.raises(AssemblyError, match="outside any function"):
            assemble("push 1\n")

    def test_comments_ignored(self):
        result = run(
            """
            ; full line comment
            func main args=0
                push 7  ; trailing comment
                ret     # hash comment
            """
        )
        assert result == 7

    def test_call_by_name(self):
        result = run(
            """
            func main args=0
                push 4
                push 5
                call multiply
                ret
            func multiply args=2
                ldl 0
                ldl 1
                mul
                ret
            """
        )
        assert result == 20

    def test_disassemble_round_trip(self):
        source = """
        globals 8
        func send args=2 locals=3
            ldl 0
            jz deny
            push 1
            ret
        deny:
            push 0
            ret
        """
        program = assemble(source)
        listing = disassemble(program)
        reassembled = assemble(listing)
        assert reassembled.code == program.code
        assert reassembled.globals_size == program.globals_size


class TestProgramVerification:
    def test_jump_out_of_bounds_rejected(self):
        program = FilterProgram(
            code=[Instruction(Op.JMP, 99)],
            functions=[],
        )
        with pytest.raises(ProgramError, match="jump"):
            program.verify()

    def test_call_bad_function_rejected(self):
        program = FilterProgram(code=[Instruction(Op.CALL, 3)], functions=[])
        with pytest.raises(ProgramError, match="call"):
            program.verify()

    def test_wire_round_trip(self):
        program = builtins.icmp_echo_monitor()
        decoded = FilterProgram.decode(program.encode())
        assert decoded.code == program.code
        assert decoded.globals_size == program.globals_size
        assert [f.name for f in decoded.functions] == [
            f.name for f in program.functions
        ]

    def test_decode_rejects_bad_magic(self):
        from repro.util.byteio import DecodeError

        with pytest.raises(DecodeError):
            FilterProgram.decode(b"\x00\x00\x00\x00\x01")


class TestInterpreter:
    def test_arithmetic_ops(self):
        cases = [
            ("push 7\npush 3\nsub", 4),
            ("push 7\npush 3\nmul", 21),
            ("push 7\npush 3\ndivu", 2),
            ("push 7\npush 3\nmodu", 1),
            ("push 12\npush 10\nxor", 6),
            ("push 12\npush 10\nand", 8),
            ("push 12\npush 10\nor", 14),
            ("push 1\npush 4\nshl", 16),
            ("push 16\npush 2\nshru", 4),
        ]
        for body, expected in cases:
            source = "func main args=0\n" + "\n".join(
                f"    {line}" for line in body.splitlines()
            ) + "\n    ret\n"
            assert run(source) == expected, body

    def test_unsigned_wraparound(self):
        result = run(
            """
            func main args=0
                push 0
                push 1
                sub
                ret
            """
        )
        assert result == (1 << 64) - 1

    def test_signed_comparison(self):
        # -1 < 1 signed, but not unsigned.
        source_template = """
        func main args=0
            push 0
            push 1
            sub
            push 1
            {cmp}
            ret
        """
        assert run(source_template.format(cmp="lts")) == 1
        assert run(source_template.format(cmp="ltu")) == 0

    def test_signed_division(self):
        result = run(
            """
            func main args=0
                push 0
                push 7
                sub
                push 2
                divs
                ret
            """
        )
        # -7 / 2 truncates toward zero: -3.
        assert result == ((1 << 64) - 3)

    def test_division_by_zero_faults_to_deny(self):
        vms = []
        result = run(
            """
            func main args=0
                push 1
                push 0
                divu
                ret
            """,
            vm_out=vms,
        )
        assert result == 0
        assert vms[0].faults == 1
        assert "zero" in vms[0].last_fault

    def test_fuel_limit_terminates_infinite_loop(self):
        vms = []
        result = run(
            """
            func main args=0
            spin:
                jmp spin
            """,
            vm_out=vms,
        )
        assert result == 0
        assert "fuel" in vms[0].last_fault

    def test_loop_computes_sum(self):
        """Loops are allowed (unlike BPF) as long as fuel holds out."""
        result = run(
            """
            func main args=1 locals=3
                push 0
                stl 1      ; sum = 0
                push 0
                stl 2      ; i = 0
            loop:
                ldl 2
                ldl 0
                geu
                jnz done
                ldl 1
                ldl 2
                add
                stl 1
                ldl 2
                push 1
                add
                stl 2
                jmp loop
            done:
                ldl 1
                ret
            """,
            args=(10,),
        )
        assert result == 45

    def test_packet_loads_big_endian(self):
        packet = bytes([0x12, 0x34, 0x56, 0x78])
        source = """
        func main args=0
            push 0
            pktld16
            ret
        """
        assert run(source, packet=packet) == 0x1234
        source32 = source.replace("pktld16", "pktld32")
        assert run(source32, packet=packet) == 0x12345678

    def test_packet_out_of_bounds_faults(self):
        vms = []
        result = run(
            """
            func main args=0
                push 100
                pktld8
                ret
            """,
            packet=b"abc",
            vm_out=vms,
        )
        assert result == 0
        assert "out of bounds" in vms[0].last_fault

    def test_pktlen(self):
        assert run("func main args=0\n    pktlen\n    ret\n", packet=b"12345") == 5

    def test_info_block_access(self):
        info = (0xDEADBEEF).to_bytes(4, "big") + (42).to_bytes(8, "big")
        result = run(
            """
            func main args=0
                push 0
                infold32
                ret
            """,
            info=info,
        )
        assert result == 0xDEADBEEF
        result64 = run(
            """
            func main args=0
                push 4
                infold64
                ret
            """,
            info=info,
        )
        assert result64 == 42

    def test_globals_persist_across_invocations(self):
        program = assemble(
            """
            globals 8
            func main args=0
                push 0
                gld64
                push 1
                add
                push 0
                gst64
                push 0
                gld64
                ret
            """
        )
        vm = OracleVM(program)
        assert vm.invoke("main") == 1
        assert vm.invoke("main") == 2
        assert vm.invoke("main") == 3

    def test_globals_out_of_bounds_faults(self):
        vms = []
        result = run(
            """
            globals 4
            func main args=0
                push 2
                gld32
                ret
            """,
            vm_out=vms,
        )
        assert result == 0

    def test_stack_underflow_faults(self):
        vms = []
        assert run("func main args=0\n    add\n    ret\n", vm_out=vms) == 0
        assert "underflow" in vms[0].last_fault

    def test_call_depth_limit(self):
        vms = []
        result = run(
            """
            func main args=0
                call main
                ret
            """,
            vm_out=vms,
        )
        assert result == 0
        # Either fuel or depth trips first; both are acceptable bounds.
        assert vms[0].faults == 1

    def test_missing_entry_point_raises(self):
        program = assemble("func recv args=2\n    push 1\n    ret\n")
        vm = FilterVM(AdmittedProgram(program))
        with pytest.raises(ProgramError, match="no entry point"):
            vm.invoke("send")

    def test_wrong_arg_count_raises(self):
        program = assemble("func recv args=2\n    push 1\n    ret\n")
        vm = FilterVM(AdmittedProgram(program))
        with pytest.raises(ProgramError, match="takes 2 args"):
            vm.invoke("recv", args=(1,))

    @given(a=st.integers(0, 2**32), b=st.integers(0, 2**32))
    def test_add_matches_python(self, a, b):
        program = assemble(
            """
            func main args=2
                ldl 0
                ldl 1
                add
                ret
            """
        )
        vm = OracleVM(program)
        assert vm.invoke("main", args=(a, b)) == (a + b) % (1 << 64)


def admitted(program, info=b""):
    return FilterVM(AdmittedProgram(program), info=BytesInfo(info))


class TestBuiltins:
    ENDPOINT = parse_ip("10.0.0.2")
    TARGET = parse_ip("10.9.9.9")

    def _echo_request(self, src, dst, ttl=5):
        return IPv4Packet(
            src=src, dst=dst, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(7, 1).encode(), ttl=ttl,
        ).encode()

    def test_capture_all(self):
        vm = admitted(builtins.capture_all())
        assert vm.invoke("recv", packet=b"anything", args=(0, 8)) == VERDICT_CONSUME

    def test_mirror_all(self):
        vm = admitted(builtins.mirror_all())
        assert vm.invoke("recv", packet=b"x", args=(0, 1)) == VERDICT_MIRROR

    def test_capture_protocol_filters(self):
        vm = admitted(builtins.capture_protocol(PROTO_ICMP))
        icmp_packet = self._echo_request(self.ENDPOINT, self.TARGET)
        udp_packet = IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_UDP,
            payload=UdpDatagram(1, 2, b"x").encode(self.ENDPOINT, self.TARGET),
        ).encode()
        assert vm.invoke("recv", packet=icmp_packet, args=(0, len(icmp_packet))) != 0
        assert vm.invoke("recv", packet=udp_packet, args=(0, len(udp_packet))) == 0

    def test_capture_udp_port(self):
        vm = admitted(builtins.capture_udp_port(53))
        hit = IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_UDP,
            payload=UdpDatagram(5555, 53, b"q").encode(self.ENDPOINT, self.TARGET),
        ).encode()
        miss = IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_UDP,
            payload=UdpDatagram(5555, 80, b"q").encode(self.ENDPOINT, self.TARGET),
        ).encode()
        assert vm.invoke("recv", packet=hit, args=(0, len(hit))) == VERDICT_CONSUME
        assert vm.invoke("recv", packet=miss, args=(0, len(miss))) == 0

    def test_allow_and_deny_monitors(self):
        allow = admitted(builtins.allow_all_monitor())
        deny = admitted(builtins.deny_all_monitor())
        assert allow.invoke("send", packet=b"p", args=(0, 1)) == 1
        assert deny.invoke("send", packet=b"p", args=(0, 1)) == 0

    def _info_block(self):
        # Minimal info block: endpoint address at offset 8 (see
        # repro.endpoint.memory layout).
        return b"\x00" * 8 + self.ENDPOINT.to_bytes(4, "big")

    def test_icmp_echo_monitor_allows_probe_and_remembers_dst(self):
        vm = admitted(builtins.icmp_echo_monitor(), self._info_block())
        probe = self._echo_request(self.ENDPOINT, self.TARGET)
        assert vm.invoke("send", packet=probe, args=(0, len(probe))) != 0
        assert int.from_bytes(vm.globals[0:4], "big") == self.TARGET

    def test_icmp_echo_monitor_denies_foreign_send(self):
        vm = admitted(builtins.icmp_echo_monitor(), self._info_block())
        spoofed = self._echo_request(parse_ip("1.2.3.4"), self.TARGET)
        assert vm.invoke("send", packet=spoofed, args=(0, len(spoofed))) == 0

    def test_icmp_echo_monitor_recv_reply_from_target_only(self):
        vm = admitted(builtins.icmp_echo_monitor(), self._info_block())
        probe = self._echo_request(self.ENDPOINT, self.TARGET)
        vm.invoke("send", packet=probe, args=(0, len(probe)))
        reply = IPv4Packet(
            src=self.TARGET, dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(7, 1).encode(),
        ).encode()
        stranger_reply = IPv4Packet(
            src=parse_ip("8.8.8.8"), dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(7, 1).encode(),
        ).encode()
        assert vm.invoke("recv", packet=reply, args=(0, len(reply))) != 0
        assert vm.invoke("recv", packet=stranger_reply,
                         args=(0, len(stranger_reply))) == 0

    def test_icmp_echo_monitor_recv_time_exceeded_matching_quote(self):
        vm = admitted(builtins.icmp_echo_monitor(), self._info_block())
        probe_bytes = self._echo_request(self.ENDPOINT, self.TARGET, ttl=1)
        vm.invoke("send", packet=probe_bytes, args=(0, len(probe_bytes)))
        router = parse_ip("10.5.5.5")
        exceeded = IPv4Packet(
            src=router, dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.time_exceeded(probe_bytes).encode(),
        ).encode()
        assert vm.invoke("recv", packet=exceeded, args=(0, len(exceeded))) != 0

    def test_icmp_echo_monitor_denies_unrelated_time_exceeded(self):
        vm = admitted(builtins.icmp_echo_monitor(), self._info_block())
        probe_bytes = self._echo_request(self.ENDPOINT, self.TARGET, ttl=1)
        vm.invoke("send", packet=probe_bytes, args=(0, len(probe_bytes)))
        other_probe = self._echo_request(self.ENDPOINT, parse_ip("99.99.99.99"))
        exceeded = IPv4Packet(
            src=parse_ip("10.5.5.5"), dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.time_exceeded(other_probe).encode(),
        ).encode()
        assert vm.invoke("recv", packet=exceeded, args=(0, len(exceeded))) == 0


class TestAdmittedPath:
    """The shipped monitors and filters, admitted and run lowered, against
    the same programs run on the reference VM, over the packets above."""

    def _packets(self):
        shapes = TestBuiltins()
        probe = shapes._echo_request(shapes.ENDPOINT, shapes.TARGET, ttl=1)
        udp = [
            IPv4Packet(src=shapes.ENDPOINT, dst=shapes.TARGET, proto=PROTO_UDP,
                       payload=UdpDatagram(5555, port, b"q").encode(
                           shapes.ENDPOINT, shapes.TARGET)).encode()
            for port in (53, 80)
        ]
        return [
            probe,
            shapes._echo_request(parse_ip("1.2.3.4"), shapes.TARGET),
            *[IPv4Packet(src=src, dst=shapes.ENDPOINT, proto=PROTO_ICMP,
                         payload=IcmpMessage.echo_reply(7, 1).encode()).encode()
              for src in (shapes.TARGET, parse_ip("8.8.8.8"))],
            *[IPv4Packet(src=parse_ip("10.5.5.5"), dst=shapes.ENDPOINT,
                         proto=PROTO_ICMP,
                         payload=IcmpMessage.time_exceeded(quoted).encode()
                         ).encode()
              for quoted in (probe, shapes._echo_request(
                  shapes.ENDPOINT, parse_ip("99.99.99.99")))],
            *udp,
            b"anything", b"x", b"", probe[:21],
        ]

    @pytest.mark.parametrize("build", [
        builtins.capture_all, builtins.mirror_all, builtins.allow_all_monitor,
        builtins.deny_all_monitor,
        lambda: builtins.capture_protocol(PROTO_ICMP),
        lambda: builtins.capture_udp_port(53),
        lambda: builtins.capture_from_host(TestBuiltins.TARGET),
        builtins.icmp_echo_monitor,
        lambda: figure2_monitor(corrected=True),
        lambda: figure2_monitor(corrected=False),
    ], ids=["capture_all", "mirror_all", "allow_all", "deny_all",
            "capture_protocol", "capture_udp_port", "capture_from_host",
            "icmp_echo", "figure2", "figure2-verbatim"])
    def test_same_outcomes_as_execute(self, build):
        program = build()
        info = BytesInfo(TestBuiltins()._info_block())
        reference = OracleVM(program, info=info)
        lowered = FilterVM(AdmittedProgram(program), info=info)
        for vm in (reference, lowered):
            vm.run_init()
        for packet in self._packets():
            for entry in ("send", "recv"):
                if not reference.has_entry(entry):
                    continue
                args = (0, len(packet))
                assert lowered.invoke(entry, packet=packet, args=args) == \
                    reference.invoke(entry, packet=packet, args=args)
                assert (lowered.instructions_executed, lowered.faults,
                        lowered.last_fault, bytes(lowered.globals)) == \
                    (reference.instructions_executed, reference.faults,
                     reference.last_fault, bytes(reference.globals))
