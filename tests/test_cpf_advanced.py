"""Advanced Cpf programs: user-defined types, realistic monitors."""

import pytest
from filtervm_oracle import OracleVM

from repro.cpf import CpfCompileError, compile_cpf
from repro.filtervm import AdmittedProgram, BytesInfo, FilterVM
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.packet.tcp import FLAG_SYN, TcpSegment
from repro.packet.udp import UdpDatagram
from repro.util.inet import parse_ip

ENDPOINT = parse_ip("10.0.0.2")
TARGET = parse_ip("198.51.100.9")
INFO = b"\x00" * 8 + ENDPOINT.to_bytes(4, "big") + b"\x00" * 40


def make_vm(source: str) -> FilterVM:
    vm = FilterVM(AdmittedProgram(compile_cpf(source)), info=BytesInfo(INFO))
    vm.run_init()
    return vm


def udp_packet(dst_port, src=ENDPOINT, dst=TARGET, payload=b"x"):
    return IPv4Packet(
        src=src, dst=dst, proto=PROTO_UDP,
        payload=UdpDatagram(40000, dst_port, payload).encode(src, dst),
    ).encode()


def tcp_packet(dst_port, flags=FLAG_SYN, src=ENDPOINT, dst=TARGET):
    return IPv4Packet(
        src=src, dst=dst, proto=PROTO_TCP,
        payload=TcpSegment(40000, dst_port, 1, 0, flags, 1024).encode(src, dst),
    ).encode()


class TestUserDefinedTypes:
    def test_user_enum_constants(self):
        source = """
        enum { LIMIT = 3, BASE = 100 };
        uint32_t counter = 0;
        uint32_t main(void) {
            counter += 1;
            if (counter > LIMIT) return 0;
            return BASE + counter;
        }
        """
        vm = OracleVM(compile_cpf(source), info=BytesInfo(INFO))
        vm.run_init()
        assert [vm.invoke("main") for _ in range(5)] == [101, 102, 103, 0, 0]

    def test_user_struct_definition(self):
        """Operators can define their own structs for bookkeeping in
        persistent memory via typed globals."""
        source = """
        struct flow_entry {
            in_addr_t dst;
            uint16_t port;
            uint16_t hits;
        };
        uint32_t dst_count = 0;
        uint32_t main(uint32_t x) {
            dst_count += x;
            return dst_count;
        }
        """
        program = compile_cpf(source)
        vm = OracleVM(program)
        assert vm.invoke("main", args=(5,)) == 5
        assert vm.invoke("main", args=(2,)) == 7

    def test_struct_definition_then_use_rejected_for_locals(self):
        source = """
        struct pair { uint32_t a; uint32_t b; };
        uint32_t main(void) {
            struct pair p;
            return 0;
        }
        """
        with pytest.raises(CpfCompileError, match="aggregate locals"):
            compile_cpf(source)


class TestRealisticMonitors:
    def test_rate_limiting_monitor(self):
        """A stateful monitor that allows at most N sends per experiment —
        the kind of quota BPF's stateless model cannot express (§3.4)."""
        source = """
        uint32_t sends_used = 0;
        uint32_t send(const union packet * pkt, uint32_t len) {
            if (sends_used >= 5) return 0;
            sends_used += 1;
            return len;
        }
        uint32_t recv(const union packet * pkt, uint32_t len) {
            return len;
        }
        """
        vm = make_vm(source)
        packet = udp_packet(53)
        verdicts = [
            vm.invoke("send", packet=packet, args=(0, len(packet)))
            for _ in range(8)
        ]
        assert [v != 0 for v in verdicts] == [True] * 5 + [False] * 3

    def test_port_allowlist_monitor(self):
        """Allow only DNS and HTTP(S) destinations — a RIPE-Atlas-style
        'safe measurements' policy expressed in Cpf."""
        source = """
        uint32_t send(const union packet * pkt, uint32_t len) {
            if (pkt->ip.ver != 4 || pkt->ip.ihl != 5) return 0;
            if (pkt->ip.src != info->addr.ip) return 0;
            if (pkt->ip.proto == IPPROTO_UDP) {
                if (pkt->ip.udp.dport == 53) return len;
                return 0;
            }
            if (pkt->ip.proto == IPPROTO_TCP) {
                if (pkt->ip.tcp.dport == 80 || pkt->ip.tcp.dport == 443)
                    return len;
                return 0;
            }
            return 0;
        }
        uint32_t recv(const union packet * pkt, uint32_t len) { return len; }
        """
        vm = make_vm(source)

        def allowed(raw):
            return vm.invoke("send", packet=raw, args=(0, len(raw))) != 0

        assert allowed(udp_packet(53))
        assert not allowed(udp_packet(123))
        assert allowed(tcp_packet(80))
        assert allowed(tcp_packet(443))
        assert not allowed(tcp_packet(25))  # no SMTP from my endpoints
        icmp = IPv4Packet(
            src=ENDPOINT, dst=TARGET, proto=PROTO_ICMP,
            payload=IcmpMessage.echo_request(1, 1).encode(),
        ).encode()
        assert not allowed(icmp)

    def test_destination_quota_monitor(self):
        """Track distinct destinations in a global table; cap at 4 — the
        stateful filtering §3.4 says plain BPF cannot do."""
        source = """
        in_addr_t seen[4];
        uint32_t seen_count = 0;

        uint32_t known(in_addr_t dst) {
            for (uint32_t i = 0; i < seen_count; ++i)
                if (seen[i] == dst) return 1;
            return 0;
        }

        uint32_t send(const union packet * pkt, uint32_t len) {
            in_addr_t dst = pkt->ip.dst;
            if (known(dst)) return len;
            if (seen_count >= 4) return 0;
            seen[seen_count] = dst;
            seen_count += 1;
            return len;
        }
        uint32_t recv(const union packet * pkt, uint32_t len) { return len; }
        """
        vm = make_vm(source)

        def try_dst(last_octet):
            raw = udp_packet(53, dst=parse_ip(f"198.51.100.{last_octet}"))
            return vm.invoke("send", packet=raw, args=(0, len(raw))) != 0

        assert all(try_dst(i) for i in (1, 2, 3, 4))  # four destinations OK
        assert try_dst(2)  # repeats always OK
        assert not try_dst(5)  # a fifth destination is denied
        assert try_dst(1)  # earlier ones still OK

    def test_payload_scanning_monitor(self):
        """Scan UDP payloads for a forbidden byte pattern with a Cpf loop
        (bounded by the VM fuel)."""
        source = """
        uint32_t send(const union packet * pkt, uint32_t len) {
            if (pkt->ip.proto != IPPROTO_UDP) return len;
            uint32_t payload_len = pkt->ip.udp.len - 8;
            if (payload_len > 64) payload_len = 64;
            for (uint32_t i = 0; i + 1 < payload_len; ++i) {
                if (pkt->ip.udp.data[i] == 'X' &&
                    pkt->ip.udp.data[i + 1] == '!')
                    return 0;
            }
            return len;
        }
        uint32_t recv(const union packet * pkt, uint32_t len) { return len; }
        """
        vm = make_vm(source)
        clean = udp_packet(53, payload=b"just a normal query")
        dirty = udp_packet(53, payload=b"prefix X! suffix")
        assert vm.invoke("send", packet=clean, args=(0, len(clean))) != 0
        assert vm.invoke("send", packet=dirty, args=(0, len(dirty))) == 0

    def test_monitor_enforced_end_to_end_with_quota(self):
        """The rate-limiting monitor through a live endpoint session."""
        from repro.core.testbed import Testbed
        from repro.crypto.certificate import Restrictions
        from repro.experiments.servers import UdpSink

        source = """
        uint32_t sends_used = 0;
        uint32_t send(const union packet * pkt, uint32_t len) {
            if (sends_used >= 3) return 0;
            sends_used += 1;
            return len;
        }
        uint32_t recv(const union packet * pkt, uint32_t len) { return len; }
        """
        testbed = Testbed()
        sink = UdpSink(testbed.controller_host, 9777).start()
        restrictions = Restrictions(monitor=compile_cpf(source).encode())

        def experiment(handle):
            yield from handle.nopen_udp(
                0, locport=0,
                remaddr=testbed.controller_host.primary_address(),
                remport=9777,
            )
            for index in range(6):
                yield from handle.nsend(0, 0, bytes([index]))
            yield 2.0
            return None

        testbed.run_experiment(experiment,
                               experiment_restrictions=restrictions)
        assert sink.count == 3  # the monitor stopped the other three
