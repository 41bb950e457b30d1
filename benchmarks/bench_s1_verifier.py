"""S1 — Static verifier cost at monitor install time.

The endpoint runs the full static verifier (structure, CFG, stack-depth
abstract interpretation, call graph, constant propagation, fuel bounds)
on every distinct monitor before admitting a session and on every
distinct ``ncap`` filter; repeats are served from a memo. This benchmark
measures that analysis — it must stay well under a millisecond for
realistic monitors (the Figure 2 traceroute monitor) so verification is
negligible next to the network round-trips of session setup — reports
what a memo hit costs instead, and charts how verification time scales
with program size. Every analysis timing starts from empty memos.
"""

import time

from conftest import print_table

from repro.cpf import FIGURE2_CORRECTED, compile_cpf, figure2_monitor
from repro.filtervm import (
    AdmittedProgram,
    FilterProgram,
    Function,
    Instruction,
    Op,
    builtins,
    verify,
)
from repro.filtervm.program import _DECODE_CACHE
from repro.filtervm.verify import _VERIFY_CACHE
from repro.filtervm.vm import _LOWERED_CACHE

I = Instruction


def cold_verify(program, **kwargs):
    """verify() with its memo emptied first, so the analysis runs."""
    _VERIFY_CACHE.clear()
    return verify(program, **kwargs)


def cold_decode(blob):
    """FilterProgram.decode() with its memo emptied first."""
    _DECODE_CACHE.clear()
    return FilterProgram.decode(blob)


def cold_admit(blob, **kwargs):
    """The endpoint's whole admission of a program it has never seen:
    decode, verify and lower, every memo emptied first."""
    _VERIFY_CACHE.clear()
    _LOWERED_CACHE.clear()
    return AdmittedProgram(cold_decode(blob), **kwargs)


def _straightline_program(n_instructions: int) -> FilterProgram:
    """A recv program of roughly ``n_instructions`` alternating push/add."""
    code = [I(Op.PUSH, 1)]
    while len(code) < n_instructions - 2:
        code += [I(Op.PUSH, 3), I(Op.ADD)]
    code += [I(Op.PUSH, 0), I(Op.POP), I(Op.RET)]
    return FilterProgram(code=code,
                         functions=[Function("recv", 0, 2, 2)])


def _branchy_program(n_blocks: int) -> FilterProgram:
    """A recv program with ``n_blocks`` diamond branches (CFG stress)."""
    code = []
    for _ in range(n_blocks):
        base = len(code)
        code += [
            I(Op.PUSH, 1),       # condition
            I(Op.JZ, base + 4),  # else arm
            I(Op.PUSH, 2),
            I(Op.JMP, base + 5),
            I(Op.PUSH, 3),       # else arm target
            I(Op.POP),           # join
        ]
    code += [I(Op.PUSH, 0), I(Op.RET)]
    return FilterProgram(code=code,
                         functions=[Function("recv", 0, 2, 2)])


def test_figure2_verification_cost(benchmark):
    """Per-install verification of the paper's Figure 2 monitor."""
    program = figure2_monitor(corrected=True)
    report = benchmark(lambda: cold_verify(program, info_size=4096))
    assert report.ok
    benchmark.extra_info["code_len"] = len(program.code)
    benchmark.extra_info["findings"] = len(report.findings)


def test_verification_scales_with_program_size(benchmark):
    """Verification time vs program size (straight-line and branchy)."""
    sizes = [32, 128, 512, 2048]
    rows = []
    for size in sizes:
        for shape, build in (("straight", _straightline_program),
                             ("branchy", _branchy_program)):
            count = size if shape == "straight" else size // 6
            program = build(count)
            start = time.perf_counter()
            iterations = 20
            for _ in range(iterations):
                report = cold_verify(program)
            elapsed = (time.perf_counter() - start) / iterations
            assert report.ok, report.render()
            rows.append([shape, len(program.code), elapsed * 1e3,
                         len(program.code) / elapsed / 1e3])
            benchmark.extra_info[f"{shape}-{len(program.code)}"] = (
                f"{elapsed * 1e3:.3f} ms"
            )
    print_table(
        "S1: verification time vs program size",
        ["shape", "instructions", "ms/verify", "kinsn/s"],
        rows,
    )
    # Timing itself happens above; give pytest-benchmark a cheap callable.
    benchmark(lambda: cold_verify(_straightline_program(128)))


def test_install_overhead_is_sub_millisecond(benchmark):
    """The admission gate for realistic monitors.

    Verification is the extra work Session.__init__ does for a monitor it
    has not seen before; it must not meaningfully delay session setup.
    The table also shows the whole cold admission (decode, verify and
    lowering to Python, as a stream of distinct programs would pay on
    every install) and what a monitor seen before costs (memo hits).
    """
    monitors = {
        "figure2-cpf": figure2_monitor(corrected=True).encode(),
        "icmp-echo": builtins.icmp_echo_monitor().encode(),
        "allow-all": builtins.allow_all_monitor().encode(),
    }

    def admit_all():
        total_findings = 0
        for blob in monitors.values():
            report = cold_verify(cold_decode(blob), info_size=4096)
            total_findings += len(report.errors)
        return total_findings

    assert benchmark(admit_all) == 0

    rows = []
    for name, blob in monitors.items():
        program = FilterProgram.decode(blob)
        iterations = 200
        start = time.perf_counter()
        for _ in range(iterations):
            cold_verify(program, info_size=4096)
        per_verify = (time.perf_counter() - start) / iterations
        start = time.perf_counter()
        for _ in range(iterations):
            cold_verify(cold_decode(blob), info_size=4096)
        per_install = (time.perf_counter() - start) / iterations
        start = time.perf_counter()
        for _ in range(iterations):
            cold_admit(blob, info_size=4096)
        per_admission = (time.perf_counter() - start) / iterations
        start = time.perf_counter()
        for _ in range(iterations):
            AdmittedProgram(FilterProgram.decode(blob), info_size=4096)
        per_hit = (time.perf_counter() - start) / iterations
        rows.append([name, len(blob), per_verify * 1e6, per_install * 1e6,
                     per_admission * 1e6, per_hit * 1e6])
        benchmark.extra_info[name] = f"{per_verify * 1e6:.0f} us"
        # The verification pass is what this gate adds on top of the
        # decode the endpoint always did; it must stay sub-millisecond.
        assert per_verify < 1e-3, (
            f"{name}: monitor install verification took "
            f"{per_verify * 1e3:.2f} ms, expected < 1 ms"
        )
    print_table(
        "S1: admission-gate overhead per monitor install",
        ["monitor", "bytes", "us/verify", "us/decode+verify",
         "us/cold admission", "us/memo-hit admission"],
        rows,
    )


def test_compile_and_verify_pipeline(benchmark):
    """Full toolchain cost: Cpf source -> bytecode -> verifier verdict."""
    def pipeline():
        report = cold_verify(compile_cpf(FIGURE2_CORRECTED), info_size=4096)
        return report

    report = benchmark(pipeline)
    assert report.ok and not report.findings
