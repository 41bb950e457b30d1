"""The PacketLab filter/monitor virtual machine (§3.4).

A BPF-descendant stack VM with the two features the paper says BPF lacks:
persistent scratch memory (stateful filtering across packets) and endpoint
info-block access. Execution is bounded by fuel instead of acyclicity, so
loops are allowed but always terminate. All faults fail closed (verdict 0).
"""

from repro.filtervm import builtins
from repro.filtervm.assembler import AssemblyError, assemble, disassemble
from repro.filtervm.isa import Instruction, Op
from repro.filtervm.program import (
    ENTRY_INIT,
    ENTRY_RECV,
    ENTRY_SEND,
    FilterProgram,
    Function,
    ProgramError,
)
from repro.filtervm.verify import (
    Finding,
    VerifierReport,
    VerifyRejected,
    verify,
    verify_or_raise,
)
from repro.filtervm.vm import (
    DEFAULT_FUEL,
    VERDICT_CONSUME,
    VERDICT_DROP,
    VERDICT_MIRROR,
    AdmittedProgram,
    BytesInfo,
    FilterVM,
)

__all__ = [
    "AdmittedProgram",
    "AssemblyError",
    "BytesInfo",
    "DEFAULT_FUEL",
    "ENTRY_INIT",
    "ENTRY_RECV",
    "ENTRY_SEND",
    "FilterProgram",
    "FilterVM",
    "Finding",
    "Function",
    "Instruction",
    "Op",
    "ProgramError",
    "VERDICT_CONSUME",
    "VERDICT_DROP",
    "VERDICT_MIRROR",
    "VerifierReport",
    "VerifyRejected",
    "assemble",
    "builtins",
    "disassemble",
    "verify",
    "verify_or_raise",
]
