"""simlint — whole-repo determinism & sim-safety static analysis.

Every guarantee this repository sells — byte-identical same-seed runs,
deterministic fault injection, differential scheduler equivalence —
depends on invariants that no unit test states directly: no wall-clock
reads on simulated paths, no process-global RNG, no iteration order
leaking from ``set``s into event scheduling, no blocking I/O inside
kernel coroutines. simlint turns those from tribal knowledge into a
machine-checked gate, the same bet PacketLab makes by statically
verifying monitor programs before running them.

Architecture (two passes over the whole program):

1. **Per-module pass** — every ``.py`` file is parsed once into a
   :class:`~repro.analysis.model.ModuleInfo`: imports, class/function
   inventory (with ``__slots__`` and generator-ness), and raw AST.
2. **Cross-module pass** — :class:`~repro.analysis.model.RepoModel`
   links the modules: an import graph classifies each module as
   *sim-context* (reachable from the simulator substrate that
   ``Simulator.run_process`` drives) or *offline tooling*, and a
   best-effort call graph separates functions that execute inside
   simulated processes from CLI/report helpers that merely live in the
   same file.

Rules (see :mod:`repro.analysis.rules`) then walk each module with the
whole-program model in hand.  The gate is every finding not silenced
inline by ``# simlint: ok[RULE-ID] reason`` on (or directly above) the
offending line; the reason string is mandatory, and a suppression that
matches nothing is itself a finding (LINT002).

Run it with ``python -m repro analysis [paths]``.
"""

from __future__ import annotations

from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.model import ModuleInfo, RepoModel
from repro.analysis.rules import Finding, Rule, all_rules, rule_registry

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "RepoModel",
    "Rule",
    "all_rules",
    "analyze_paths",
    "rule_registry",
]
