"""M1 — filter VM micro-benchmarks (the substrate under F2).

Admitted-program throughput by program complexity, fuel-limit behaviour,
and assembler/serialization round-trip cost.
"""

from conftest import print_table

from repro.filtervm import (
    AdmittedProgram,
    BytesInfo,
    FilterProgram,
    FilterVM,
    assemble,
    builtins,
    disassemble,
)
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.util.inet import parse_ip

PACKET = IPv4Packet(
    src=parse_ip("10.0.0.2"), dst=parse_ip("10.9.9.9"), proto=PROTO_ICMP,
    payload=IcmpMessage.echo_request(1, 1).encode(),
).encode()

INFO = b"\x00" * 8 + parse_ip("10.0.0.2").to_bytes(4, "big") + b"\x00" * 40


def test_m1_throughput_by_program(benchmark):
    import time

    programs = {
        "trivial (2 insns)": builtins.capture_all(),
        "protocol match": builtins.capture_protocol(PROTO_ICMP),
        "port match": builtins.capture_udp_port(53),
        "stateful monitor": builtins.icmp_echo_monitor(),
    }
    rows = []
    for name, program in programs.items():
        vm = FilterVM(AdmittedProgram(program), info=BytesInfo(INFO))
        vm.run_init()
        iterations = 3000
        start = time.perf_counter()
        for _ in range(iterations):
            vm.invoke("recv", packet=PACKET, args=(0, len(PACKET)))
        elapsed = time.perf_counter() - start
        rows.append([name, len(program.code),
                     elapsed / iterations * 1e6, iterations / elapsed])
        benchmark.extra_info[name] = f"{iterations / elapsed:.0f} pkt/s"
    print_table(
        "M1: filter VM throughput by program",
        ["program", "insns", "us/packet", "packets/sec"],
        rows,
    )
    # Shape: cost grows with program size but stays interactive (>10k/s).
    assert all(row[3] > 10_000 for row in rows)

    vm = FilterVM(AdmittedProgram(builtins.capture_protocol(PROTO_ICMP)))

    def one():
        return vm.invoke("recv", packet=PACKET, args=(0, len(PACKET)))

    assert benchmark(one) == 1


def test_m1_fuel_limit_bounds_runaway_programs(benchmark):
    """An infinite loop burns exactly its fuel and denies — never hangs."""
    program = AdmittedProgram(assemble(
        """
        func recv args=2
        spin:
            jmp spin
        """
    ), fuel_limit=5000)

    def run():
        vm = FilterVM(program)
        verdict = vm.invoke("recv", packet=PACKET, args=(0, len(PACKET)))
        return verdict, vm.last_fault

    verdict, fault = benchmark(run)
    assert verdict == 0
    assert "fuel" in fault


def test_m1_serialization_round_trip(benchmark):
    program = builtins.icmp_echo_monitor()

    def round_trip():
        return FilterProgram.decode(program.encode())

    decoded = benchmark(round_trip)
    assert decoded.code == program.code
    benchmark.extra_info["encoded_bytes"] = len(program.encode())


def test_m1_assembler_round_trip(benchmark):
    source = disassemble(builtins.icmp_echo_monitor())

    def reassemble():
        return assemble(source)

    program = benchmark(reassemble)
    assert program.code == builtins.icmp_echo_monitor().code
