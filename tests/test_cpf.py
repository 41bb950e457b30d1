"""Tests for the Cpf language: lexer, parser, layouts, codegen, Figure 2."""

import pytest
from filtervm_oracle import OracleVM
from hypothesis import given, strategies as st

from repro.cpf import (
    CpfCompileError,
    CpfSyntaxError,
    compile_cpf,
    figure2_monitor,
    packet_union,
    plinfo_struct,
)
from repro.cpf.lexer import tokenize
from repro.cpf.__main__ import main as cpf_main
from repro.cpf.stdlib import INFO_ADDR_IP_OFFSET, INFO_CLOCK_OFFSET, INFO_SIZE
from repro.endpoint.memory import MEMORY_SIZE
from repro.filtervm import AdmittedProgram, BytesInfo, FilterVM
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.util.inet import parse_ip


def run_main(source, args=(), packet=b"", info=b"", globals_out=None):
    """Run ``main``, which is no entry point, on the reference VM."""
    program = compile_cpf(source)
    vm = OracleVM(program, info=BytesInfo(info))
    vm.run_init()
    result = vm.invoke("main", packet=packet, args=args)
    if globals_out is not None:
        globals_out.append(vm.globals)
    return result


class TestLexer:
    def test_tokens_basic(self):
        tokens = tokenize("int x = 0x1F; // comment")
        kinds = [(token.kind, token.text) for token in tokens[:-1]]
        assert kinds == [
            ("keyword", "int"), ("ident", "x"), ("op", "="),
            ("number", "0x1F"), ("op", ";"),
        ]
        assert tokens[3].value == 0x1F

    def test_preprocessor_lines_skipped(self):
        tokens = tokenize("#include <netinet/in.h>\nint x;")
        assert tokens[0].text == "int"

    def test_block_comments(self):
        tokens = tokenize("/* multi\nline */ int /* inline */ x;")
        assert [token.text for token in tokens[:-1]] == ["int", "x", ";"]

    def test_char_constants(self):
        tokens = tokenize("'A' '\\n' '\\0'")
        assert [token.value for token in tokens[:-1]] == [65, 10, 0]

    def test_octal_literals(self):
        assert tokenize("0755")[0].value == 0o755

    def test_unterminated_comment_rejected(self):
        with pytest.raises(CpfSyntaxError, match="unterminated"):
            tokenize("/* never ends")

    def test_arrow_vs_minus(self):
        tokens = tokenize("a->b - c")
        assert [token.text for token in tokens[:-1]] == ["a", "->", "b", "-", "c"]


class TestLayouts:
    def test_packet_union_ipv4_offsets(self):
        ip = packet_union().find_member("ip")[0].type
        expected = {"tos": 1, "len": 2, "id": 4, "frag": 6, "ttl": 8,
                    "proto": 9, "checksum": 10, "src": 12, "dst": 16}
        for name, offset in expected.items():
            member, byte_offset, _ = ip.find_member(name)
            assert byte_offset == offset, name

    def test_bitfields_ver_ihl(self):
        ip = packet_union().find_member("ip")[0].type
        ver, off, _ = ip.find_member("ver")
        ihl, _, _ = ip.find_member("ihl")
        assert off == 0
        assert ver.bit_offset == 0 and ver.bit_width == 4
        assert ihl.bit_offset == 4 and ihl.bit_width == 4

    def test_icmp_substructure_offsets(self):
        ip = packet_union().find_member("ip")[0].type
        icmp, icmp_off, _ = ip.find_member("icmp")
        assert icmp_off == 20
        orig, orig_off, _ = icmp.type.find_member("orig")
        assert orig_off == 8
        quoted_ip, ip_off, _ = orig.type.find_member("ip")
        src, src_off, _ = quoted_ip.type.find_member("src")
        # Absolute: 20 + 8 + 0 + 12 = 40.
        assert icmp_off + orig_off + ip_off + src_off == 40

    def test_plinfo_matches_endpoint_memory_layout(self):
        info = plinfo_struct()
        addr, addr_off, _ = info.find_member("addr")
        ip, ip_off, _ = addr.type.find_member("ip")
        assert addr_off + ip_off == INFO_ADDR_IP_OFFSET
        assert info.find_member("clock")[1] == INFO_CLOCK_OFFSET


class TestExpressions:
    def test_arithmetic(self):
        assert run_main("uint32_t main(void) { return 2 + 3 * 4; }") == 14

    def test_precedence_and_parens(self):
        assert run_main("uint32_t main(void) { return (2 + 3) * 4; }") == 20

    def test_comparisons_and_logic(self):
        source = """
        uint32_t main(void) {
            return (1 < 2) && (3 >= 3) && !(4 == 5) || 0;
        }
        """
        assert run_main(source) == 1

    def test_short_circuit_skips_rhs(self):
        """&& must not evaluate its right side when the left is false —
        here the right side would fault (OOB packet read)."""
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            if (len > 100 && pkt->ip.ver == 4)
                return 1;
            return 2;
        }
        """
        program = compile_cpf(source)
        vm = OracleVM(program)
        assert vm.invoke("main", packet=b"", args=(0, 0)) == 2
        assert vm.faults == 0

    def test_ternary(self):
        source = "uint32_t main(uint32_t a, uint32_t b) { return a > b ? a : b; }"
        assert run_main(source, args=(3, 9)) == 9
        assert run_main(source, args=(9, 3)) == 9

    def test_bitwise_ops(self):
        assert run_main("uint32_t main(void) { return (0xF0 | 0x0F) ^ 0xFF; }") == 0
        assert run_main("uint32_t main(void) { return ~0 & 0xFF; }") == 0xFF
        assert run_main("uint32_t main(void) { return 1 << 10; }") == 1024
        assert run_main("uint32_t main(void) { return 1024 >> 3; }") == 128

    def test_signed_arithmetic(self):
        source = "int32_t main(void) { int32_t x = -10; return x / 3; }"
        assert run_main(source) == (1 << 64) - 3  # -3 as u64

    def test_signed_vs_unsigned_comparison(self):
        signed = "uint32_t main(void) { int32_t x = -1; return x < 1; }"
        assert run_main(signed) == 1
        unsigned = "uint32_t main(void) { uint32_t x = -1; return x < 1; }"
        # (uint32_t)-1 is 0xFFFFFFFF, not less than 1.
        assert run_main(unsigned) == 0

    def test_truncation_on_store(self):
        source = "uint32_t main(void) { uint8_t x = 0x1FF; return x; }"
        assert run_main(source) == 0xFF

    def test_cast(self):
        source = "uint32_t main(void) { return (uint8_t)(0xABCD); }"
        assert run_main(source) == 0xCD

    def test_compound_assignment(self):
        source = """
        uint32_t main(void) {
            uint32_t x = 10;
            x += 5; x -= 3; x *= 2; x /= 4; x <<= 2; x |= 1;
            return x;
        }
        """
        assert run_main(source) == ((10 + 5 - 3) * 2 // 4 << 2) | 1

    def test_pre_increment(self):
        source = """
        uint32_t main(void) {
            uint32_t i = 0;
            ++i; ++i; --i;
            return i;
        }
        """
        assert run_main(source) == 1

    def test_comma_operator(self):
        assert run_main("uint32_t main(void) { return (1, 2, 3); }") == 3

    @given(a=st.integers(0, 2**31), b=st.integers(1, 2**31))
    def test_division_matches_c(self, a, b):
        source = "uint64_t main(uint64_t a, uint64_t b) { return a / b + a % b; }"
        assert run_main(source, args=(a, b)) == a // b + a % b


class TestStatements:
    def test_while_loop(self):
        source = """
        uint32_t main(uint32_t n) {
            uint32_t sum = 0;
            uint32_t i = 0;
            while (i < n) { sum += i; i += 1; }
            return sum;
        }
        """
        assert run_main(source, args=(10,)) == 45

    def test_for_loop_with_break_continue(self):
        source = """
        uint32_t main(void) {
            uint32_t sum = 0;
            for (uint32_t i = 0; i < 100; ++i) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                sum += i;
            }
            return sum;
        }
        """
        assert run_main(source) == 1 + 3 + 5 + 7 + 9

    def test_do_while(self):
        source = """
        uint32_t main(void) {
            uint32_t i = 0;
            do { i += 1; } while (i < 5);
            return i;
        }
        """
        assert run_main(source) == 5

    def test_nested_scopes_shadowing(self):
        source = """
        uint32_t main(void) {
            uint32_t x = 1;
            { uint32_t x = 2; }
            return x;
        }
        """
        assert run_main(source) == 1

    def test_function_calls_and_recursion(self):
        source = """
        uint32_t fib(uint32_t n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        uint32_t main(void) { return fib(10); }
        """
        assert run_main(source) == 55

    def test_missing_return_yields_zero(self):
        assert run_main("uint32_t main(void) { }") == 0


class TestGlobals:
    def test_global_persistence(self):
        source = """
        uint32_t counter = 0;
        uint32_t main(void) { counter += 1; return counter; }
        """
        program = compile_cpf(source)
        vm = OracleVM(program)
        assert [vm.invoke("main") for _ in range(3)] == [1, 2, 3]

    def test_global_initializers_via_init(self):
        source = """
        uint32_t seed = 42;
        uint16_t small = 7;
        uint32_t main(void) { return seed + small; }
        """
        program = compile_cpf(source)
        assert program.function_named("init") is not None
        vm = OracleVM(program)
        vm.run_init()
        assert vm.invoke("main") == 49

    def test_global_arrays(self):
        source = """
        uint32_t table[4];
        uint32_t main(uint32_t i, uint32_t v) {
            table[i] = v;
            return table[i] + table[0];
        }
        """
        program = compile_cpf(source)
        vm = OracleVM(program)
        assert vm.invoke("main", args=(0, 5)) == 10
        assert vm.invoke("main", args=(2, 7)) == 12

    def test_duplicate_global_rejected(self):
        with pytest.raises(CpfCompileError, match="duplicate global"):
            compile_cpf("int x; int x;")

    def test_nonconstant_initializer_rejected(self):
        with pytest.raises(CpfCompileError, match="constant"):
            compile_cpf("uint32_t f(void) { return 1; }\nuint32_t x = f();")


class TestPacketAccess:
    ENDPOINT = parse_ip("10.0.0.2")
    TARGET = parse_ip("10.9.9.9")

    def _probe(self, ttl=5):
        return IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(7, 3).encode(), ttl=ttl,
        ).encode()

    def test_header_field_reads(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return pkt->ip.ttl;
        }
        """
        assert run_main(source, args=(0, 0), packet=self._probe(ttl=17)) == 17

    def test_bitfield_reads(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return pkt->ip.ver * 16 + pkt->ip.ihl;
        }
        """
        assert run_main(source, args=(0, 0), packet=self._probe()) == 0x45

    def test_constants_from_prelude(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return pkt->ip.proto == IPPROTO_ICMP;
        }
        """
        assert run_main(source, args=(0, 0), packet=self._probe()) == 1

    def test_raw_byte_indexing(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return pkt->raw[9];
        }
        """
        assert run_main(source, args=(0, 0), packet=self._probe()) == PROTO_ICMP

    def test_oob_read_faults_to_deny(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return pkt->ip.icmp.seq;
        }
        """
        program = compile_cpf(source)
        vm = OracleVM(program)
        assert vm.invoke("main", packet=b"\x45\x00", args=(0, 2)) == 0
        assert vm.faults == 1

    def test_packet_memory_is_readonly(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            pkt->ip.ttl = 0;
            return 1;
        }
        """
        with pytest.raises(CpfCompileError, match="read-only"):
            compile_cpf(source)

    def test_info_access(self):
        source = """
        uint32_t main(const union packet * pkt, uint32_t len) {
            return info->addr.ip;
        }
        """
        info = b"\x00" * 8 + self.ENDPOINT.to_bytes(4, "big") + b"\x00" * 40
        assert run_main(source, args=(0, 0), info=info) == self.ENDPOINT


class TestErrors:
    def test_undefined_identifier(self):
        with pytest.raises(CpfCompileError, match="undefined identifier"):
            compile_cpf("uint32_t main(void) { return nosuch; }")

    def test_undefined_function(self):
        with pytest.raises(CpfCompileError, match="undefined function"):
            compile_cpf("uint32_t main(void) { return missing(); }")

    def test_wrong_arity(self):
        with pytest.raises(CpfCompileError, match="takes 1 arguments"):
            compile_cpf(
                "uint32_t f(uint32_t x) { return x; }"
                "uint32_t main(void) { return f(); }"
            )

    def test_break_outside_loop(self):
        with pytest.raises(CpfCompileError, match="break outside"):
            compile_cpf("uint32_t main(void) { break; }")

    def test_sizeof_rejected(self):
        with pytest.raises(CpfSyntaxError, match="sizeof"):
            compile_cpf("uint32_t main(void) { return sizeof(int); }")

    def test_unknown_member(self):
        with pytest.raises(CpfCompileError, match="no member"):
            compile_cpf(
                "uint32_t main(const union packet * pkt, uint32_t len) "
                "{ return pkt->nosuch; }"
            )

    def test_syntax_error_has_line_number(self):
        with pytest.raises(CpfSyntaxError, match="line 2"):
            compile_cpf("uint32_t main(void) {\n   return @; }")


class TestFigure2:
    ENDPOINT = parse_ip("192.0.2.10")
    TARGET = parse_ip("198.51.100.77")

    def _info(self):
        return b"\x00" * 8 + self.ENDPOINT.to_bytes(4, "big") + b"\x00" * 40

    def _vm(self, corrected=True):
        vm = FilterVM(AdmittedProgram(figure2_monitor(corrected=corrected)),
                      info=BytesInfo(self._info()))
        vm.run_init()
        return vm

    def _probe(self, ttl=1):
        return IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(1, 1).encode(), ttl=ttl,
        ).encode()

    def test_verbatim_compiles(self):
        program = figure2_monitor(corrected=False)
        assert {f.name for f in program.functions} >= {"send", "recv"}

    def test_send_allows_own_echo_request(self):
        vm = self._vm()
        probe = self._probe()
        assert vm.invoke("send", packet=probe, args=(0, len(probe))) == len(probe)

    def test_send_denies_spoofed_source(self):
        vm = self._vm()
        spoofed = IPv4Packet(
            src=parse_ip("203.0.113.1"), dst=self.TARGET, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(1, 1).encode(),
        ).encode()
        assert vm.invoke("send", packet=spoofed, args=(0, len(spoofed))) == 0

    def test_send_denies_non_icmp(self):
        from repro.packet.udp import UdpDatagram
        from repro.packet.ipv4 import PROTO_UDP

        vm = self._vm()
        udp = IPv4Packet(
            src=self.ENDPOINT, dst=self.TARGET, proto=PROTO_UDP,
            payload=UdpDatagram(1, 2, b"x").encode(self.ENDPOINT, self.TARGET),
        ).encode()
        assert vm.invoke("send", packet=udp, args=(0, len(udp))) == 0

    def test_recv_allows_reply_from_destination(self):
        vm = self._vm()
        probe = self._probe()
        vm.invoke("send", packet=probe, args=(0, len(probe)))
        reply = IPv4Packet(
            src=self.TARGET, dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(1, 1).encode(),
        ).encode()
        assert vm.invoke("recv", packet=reply, args=(0, len(reply))) == len(reply)

    def test_recv_denies_reply_from_stranger(self):
        vm = self._vm()
        probe = self._probe()
        vm.invoke("send", packet=probe, args=(0, len(probe)))
        stranger = IPv4Packet(
            src=parse_ip("203.0.113.1"), dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(1, 1).encode(),
        ).encode()
        assert vm.invoke("recv", packet=stranger, args=(0, len(stranger))) == 0

    def test_recv_allows_matching_time_exceeded(self):
        vm = self._vm()
        probe = self._probe()
        vm.invoke("send", packet=probe, args=(0, len(probe)))
        exceeded = IPv4Packet(
            src=parse_ip("10.1.1.1"), dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.time_exceeded(probe).encode(),
        ).encode()
        assert vm.invoke("recv", packet=exceeded, args=(0, len(exceeded))) > 0

    def test_recv_denies_unrelated_time_exceeded(self):
        vm = self._vm()
        probe = self._probe()
        vm.invoke("send", packet=probe, args=(0, len(probe)))
        other = IPv4Packet(
            src=self.ENDPOINT, dst=parse_ip("203.0.113.200"), proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(1, 1).encode(),
        ).encode()
        exceeded = IPv4Packet(
            src=parse_ip("10.1.1.1"), dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.time_exceeded(other).encode(),
        ).encode()
        assert vm.invoke("recv", packet=exceeded, args=(0, len(exceeded))) == 0

    def test_verbatim_bug_denies_all_replies(self):
        """The paper's Figure 2 as printed assigns ping_dst after return:
        the destination is never recorded, so recv denies even legitimate
        replies. This documents the paper's typo."""
        vm = self._vm(corrected=False)
        probe = self._probe()
        assert vm.invoke("send", packet=probe, args=(0, len(probe))) == len(probe)
        assert int.from_bytes(vm.globals[0:4], "big") == 0  # never recorded
        reply = IPv4Packet(
            src=self.TARGET, dst=self.ENDPOINT, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_reply(1, 1).encode(),
        ).encode()
        assert vm.invoke("recv", packet=reply, args=(0, len(reply))) == 0


class TestCommandLine:
    """``python -m repro.cpf --run`` runs only what an endpoint admits."""

    RECURSIVE = """
    uint32_t spin(uint32_t n) { return spin(n + 1); }
    uint32_t send(const union packet * pkt, uint32_t len) { return spin(len); }
    """
    ACCEPTED = """
    uint32_t base = 1;
    uint32_t helper(uint32_t n) { return n + base; }
    uint32_t send(const union packet * pkt, uint32_t len) { return helper(len); }
    """

    def _run(self, tmp_path, source, *argv):
        path = tmp_path / "monitor.cpf"
        path.write_text(source)
        return cpf_main([str(path), *argv])

    def test_run_refuses_a_program_the_verifier_rejects(self, tmp_path, capsys):
        assert self._run(tmp_path, self.RECURSIVE, "--run", "send") == 1
        out = capsys.readouterr().out
        assert "error[recursion]" in out
        assert "verdict 0" not in out

    def test_run_refuses_a_name_that_is_not_an_entry_point(self, tmp_path,
                                                           capsys):
        assert self._run(tmp_path, self.ACCEPTED, "--run", "helper") == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: 'helper' is not an entry point of this program (init, send)"
        ]

    @pytest.mark.parametrize("entry, printed", [
        # init runs first, so send sees base = 1
        ("send", "send(2-byte packet) -> verdict 3"),
        ("init", "init(2-byte packet) -> verdict 0"),
    ])
    def test_run_invokes_an_admitted_entry_point(self, tmp_path, capsys,
                                                 entry, printed):
        assert self._run(tmp_path, self.ACCEPTED, "--run", entry,
                         "--packet", "4500") == 0
        assert printed in capsys.readouterr().out

    def test_admits_against_the_endpoint_info_block_size(self):
        assert INFO_SIZE == MEMORY_SIZE

