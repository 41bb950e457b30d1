"""Cpf compiler command line: ``python -m repro.cpf``.

Compiles a Cpf monitor/filter source file into a serialized filter VM
program (the bytes that go into a certificate's monitor restriction or an
``ncap`` command), with options to disassemble or to test entry points
against a hex-encoded packet. ``--run`` admits the program as an endpoint
would first, and refuses (exit 1) what an endpoint would refuse.

Examples::

    python -m repro.cpf monitor.c -o monitor.plf
    python -m repro.cpf monitor.c --disasm
    python -m repro.cpf monitor.c --run send --packet 4500...
"""

from __future__ import annotations

import argparse
import sys

from repro.cpf.codegen import CpfCompileError
from repro.cpf.compiler import compile_cpf
from repro.cpf.lexer import CpfSyntaxError
from repro.cpf.lint import lint_source
from repro.cpf.stdlib import INFO_SIZE
from repro.filtervm import (AdmittedProgram, BytesInfo, FilterVM,
                            VerifyRejected, disassemble)
from repro.filtervm.program import ENTRY_INIT, ENTRY_SIGNATURES
from repro.filtervm.verify import verify


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cpf",
        description="Compile Cpf monitor programs for the PacketLab filter VM",
    )
    parser.add_argument("source", help="Cpf source file (use '-' for stdin)")
    parser.add_argument("-o", "--output",
                        help="write the serialized program to this file")
    parser.add_argument("--disasm", action="store_true",
                        help="print the compiled program's assembly listing")
    parser.add_argument("--verify", action="store_true",
                        help="run the bytecode verifier and source lint; "
                        "exit 1 if the verifier rejects the program")
    parser.add_argument("--run", metavar="ENTRY",
                        help="admit, then invoke an entry point (send/recv/init)")
    parser.add_argument("--packet", default="",
                        help="hex packet bytes for --run")
    parser.add_argument("--info", default="",
                        help="hex info-block bytes for --run")
    args = parser.parse_args(argv)

    if args.source == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.source}: {exc}", file=sys.stderr)
            return 1

    try:
        program = compile_cpf(source)
    except (CpfSyntaxError, CpfCompileError) as exc:
        print(f"{args.source}: {exc}", file=sys.stderr)
        return 1

    encoded = program.encode()
    print(
        f"compiled: {len(program.code)} instructions, "
        f"{program.globals_size} B globals, entry points "
        f"{program.entry_points}, {len(encoded)} B serialized"
    )
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(encoded)
        print(f"wrote {args.output}")
    if args.verify:
        print()
        for diagnostic in lint_source(source):
            print(diagnostic.render(args.source))
        report = verify(program, info_size=INFO_SIZE)
        print(report.render())
        if not report.ok:
            return 1
    if args.disasm:
        print()
        print(disassemble(program))
    if args.run:
        try:
            admitted = AdmittedProgram(program, info_size=INFO_SIZE)
        except VerifyRejected as rejected:
            print(rejected.report.render())
            return 1
        if args.run not in admitted.entries:
            print(f"error: {args.run!r} is not an entry point of this "
                  f"program ({', '.join(sorted(admitted.entries))})", file=sys.stderr)
            return 1
        packet = bytes.fromhex(args.packet)
        vm = FilterVM(admitted, info=BytesInfo(bytes.fromhex(args.info)))
        if args.run != ENTRY_INIT:
            vm.run_init()
        arguments: tuple[int, ...] = (
            (0, len(packet)) if ENTRY_SIGNATURES[args.run] else ())
        verdict = vm.invoke(args.run, packet=packet, args=arguments)
        print(f"{args.run}({len(packet)}-byte packet) -> verdict {verdict}"
              + (f" (fault: {vm.last_fault})" if vm.faults else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
