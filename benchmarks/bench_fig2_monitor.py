"""F2 — Figure 2: the Cpf traceroute monitor.

Compiles the paper's monitor source (verbatim and corrected), measures
per-packet monitor overhead (Cpf-compiled vs hand-assembled vs allow-all),
and runs the full traceroute experiment under the compiled monitor.
"""

from conftest import print_table

from repro.cpf import FIGURE2_CORRECTED, FIGURE2_VERBATIM, compile_cpf, figure2_monitor
from repro.crypto.certificate import Restrictions
from repro.filtervm import AdmittedProgram, BytesInfo, FilterVM, builtins
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet, PROTO_ICMP
from repro.util.inet import parse_ip

ENDPOINT = parse_ip("192.0.2.10")
TARGET = parse_ip("198.51.100.77")
INFO = b"\x00" * 8 + ENDPOINT.to_bytes(4, "big") + b"\x00" * 40


def _probe_bytes():
    return IPv4Packet(
        src=ENDPOINT, dst=TARGET, proto=PROTO_ICMP,
        payload=IcmpMessage.echo_request(7, 1).encode(),
    ).encode()


def test_figure2_compilation(benchmark):
    """Compilation cost of the paper's verbatim source."""
    program = benchmark(lambda: compile_cpf(FIGURE2_VERBATIM))
    assert {f.name for f in program.functions} >= {"send", "recv"}
    benchmark.extra_info["code_len"] = len(program.code)
    benchmark.extra_info["encoded_bytes"] = len(program.encode())


def test_monitor_invocation_throughput(benchmark):
    """Per-packet send-check throughput of the compiled monitor."""
    vm = FilterVM(AdmittedProgram(figure2_monitor(corrected=True)),
                  info=BytesInfo(INFO))
    vm.run_init()
    probe = _probe_bytes()

    def invoke_batch():
        allowed = 0
        for _ in range(100):
            allowed += vm.invoke("send", packet=probe, args=(0, len(probe))) != 0
        return allowed

    allowed = benchmark(invoke_batch)
    assert allowed == 100


def test_monitor_variants_comparison(benchmark):
    """Cpf-compiled vs hand-assembled vs allow-all monitor overhead, each
    run as the endpoint runs it (admitted: verified once, lowered)."""
    import time

    probe = _probe_bytes()
    programs = {
        "cpf-figure2": figure2_monitor(corrected=True),
        "hand-assembled": builtins.icmp_echo_monitor(),
        "allow-all": builtins.allow_all_monitor(),
    }
    admitted = {}
    rows = []
    per_packet = {}
    for name, program in programs.items():
        vm = FilterVM(AdmittedProgram(program), info=BytesInfo(INFO))
        vm.run_init()
        assert vm.invoke("send", packet=probe, args=(0, len(probe))) != 0
        start = time.perf_counter()
        iterations = 2000
        for _ in range(iterations):
            vm.invoke("send", packet=probe, args=(0, len(probe)))
        lowered = (time.perf_counter() - start) / iterations
        admitted[name] = vm
        per_packet[name] = lowered
        rows.append([name, lowered * 1e6, 1 / lowered])
        benchmark.extra_info[name] = f"{lowered * 1e6:.1f} us/pkt admitted"
    print_table(
        "Figure 2 monitor overhead by implementation",
        ["monitor", "us/pkt admitted", "admitted pkts/sec"],
        rows,
    )
    # The Cpf-compiled monitor should be within ~4x of hand-written asm
    # (same VM, slightly more instructions from generic codegen).
    assert per_packet["cpf-figure2"] < per_packet["hand-assembled"] * 4

    def run_all():
        for vm in admitted.values():
            vm.invoke("send", packet=probe, args=(0, len(probe)))

    benchmark(run_all)


def test_traceroute_with_and_without_monitor(benchmark):
    """Full traceroute with the Figure 2 monitor enforced end to end."""
    from repro.core.testbed import Testbed
    from repro.experiments.traceroute import traceroute
    from repro.netsim.topology import Network

    def build():
        net = Network()
        endpoint = net.add_host("endpoint")
        gw = net.add_router("gw")
        controller = net.add_host("controller")
        net.link(gw, endpoint, bandwidth_bps=10e6, delay=0.01)
        net.link(gw, controller, bandwidth_bps=1e9, delay=0.02)
        previous = gw
        for index in range(2):
            router = net.add_router(f"r{index}")
            net.link(previous, router, bandwidth_bps=1e9, delay=0.005)
            previous = router
        target = net.add_host("target")
        net.link(previous, target, bandwidth_bps=1e9, delay=0.005)
        net.compute_routes()
        return Testbed(network=net, endpoint_host=endpoint,
                       controller_host=controller, target_host=target)

    def run(with_monitor: bool):
        testbed = build()
        restrictions = None
        if with_monitor:
            restrictions = Restrictions(
                monitor=figure2_monitor(corrected=True).encode()
            )

        def experiment(handle):
            return (yield from traceroute(handle, testbed.target_address))

        result = testbed.run_experiment(
            experiment, experiment_restrictions=restrictions
        )
        assert result.reached
        return len(result.hops)

    hops_plain = run(False)
    hops_monitored = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    # The monitor is policy, not interference: identical results.
    assert hops_monitored == hops_plain
    benchmark.extra_info["hops"] = hops_monitored
