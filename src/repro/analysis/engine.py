"""simlint driver: collect files → two analysis passes → findings.

``analyze_paths`` is the single entry point used by the CLI, the test
suite, and the benchmark.  It returns an :class:`AnalysisResult` whose
``gate_findings`` (every finding not suppressed inline) decide the
exit code — an empty list is a green gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analysis.model import ModuleInfo, RepoModel, parse_module
from repro.analysis.rules import Finding, Rule, all_rules
from repro.analysis.suppress import parse_suppressions

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache",
              ".hypothesis", "node_modules"}


def collect_files(paths: Sequence[str]) -> list[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[str] = set()
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            files.add(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS
            )
            for filename in filenames:
                if filename.endswith(".py"):
                    files.add(os.path.abspath(os.path.join(dirpath, filename)))
    return sorted(files)


@dataclass
class AnalysisResult:
    """Everything one scan produced."""

    files: list[str]
    findings: list[Finding] = field(default_factory=list)
    model: Optional[RepoModel] = None
    skipped: list[str] = field(default_factory=list)  # unparseable files

    @property
    def gate_findings(self) -> list[Finding]:
        """Findings that fail the gate: those not suppressed inline."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed_findings(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.gate_findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def analyze_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> AnalysisResult:
    """Run the full two-pass analysis over ``paths``.

    ``root`` anchors module-name derivation (defaults to the common
    parent of ``paths``); ``rules`` defaults to the full registry.
    """
    if root is None:
        root = os.path.commonpath([os.path.abspath(p) for p in paths])
        if os.path.isfile(root):
            root = os.path.dirname(root)
        # anchor at the repo root when handed e.g. ``src/repro``
        while os.path.basename(root) in ("repro", "src"):
            root = os.path.dirname(root)

    files = collect_files(paths)
    result = AnalysisResult(files=files)

    # Pass 1: parse every file.
    modules: list[ModuleInfo] = []
    for path in files:
        module = parse_module(path, root)
        if module is None:
            result.skipped.append(path)
        else:
            modules.append(module)

    # Pass 2: cross-module graphs, then rules.
    model = RepoModel(modules)
    result.model = model

    active = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    per_module: dict[str, list[Finding]] = {}
    for module in modules:
        bucket: list[Finding] = []
        for rule in active:
            bucket.extend(rule.check_module(module, model))
        per_module[module.name] = bucket
        findings.extend(bucket)

    # Suppression matching (and LINT002 for the stale ones).
    lint002 = next((r for r in active if r.id == "LINT002"), None)
    for module in modules:
        suppressions = parse_suppressions(module)
        if not suppressions:
            continue
        for finding in per_module.get(module.name, ()):
            for supp in suppressions:
                if supp.matches(finding.rule, finding.line):
                    finding.suppressed = True
                    finding.suppress_reason = supp.reason
                    supp.used = True
        if lint002 is not None:
            for supp in suppressions:
                if not supp.used and "LINT002" not in supp.rules:
                    findings.append(
                        Finding(
                            rule="LINT002",
                            path=module.path,
                            line=supp.comment_line,
                            col=0,
                            message=(
                                f"suppression ok"
                                f"[{', '.join(sorted(supp.rules))}] matched "
                                f"no finding; delete it or fix the rule id"
                            ),
                        )
                    )

    # Report paths relative to the root: stable across machines.
    for finding in findings:
        finding.path = _relpath(finding.path, root)

    findings.sort(key=Finding.sort_key)
    result.findings = findings
    return result


def _relpath(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:
        return path
    return rel.replace(os.sep, "/") if not rel.startswith("..") else path
