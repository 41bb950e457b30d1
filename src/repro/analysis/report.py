"""Text and JSON renderings of an :class:`AnalysisResult`.

The text form is for humans and CI logs; the JSON form (stable key
order, schema-versioned) is what CI publishes as an artifact and what
the golden tests pin.
"""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult

REPORT_VERSION = 2


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable report: one line per gate finding, then a summary."""
    lines: list[str] = []
    for finding in result.gate_findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.message}"
        )
    if verbose:
        for finding in result.suppressed_findings:
            lines.append(
                f"{finding.path}:{finding.line}: {finding.rule} suppressed "
                f"({finding.suppress_reason or 'no reason'})"
            )
    counts = result.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}×{n}" for rule, n in counts.items())
        head = f"simlint: {len(result.gate_findings)} finding(s) [{per_rule}]"
    else:
        head = "simlint: clean — 0 findings"
    lines.append(
        f"{head} ({len(result.suppressed_findings)} suppressed) "
        f"in {len(result.files)} files"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report with a stable schema and key order."""
    payload = {
        "version": REPORT_VERSION,
        "tool": "simlint",
        "files_scanned": len(result.files),
        "files_skipped": sorted(result.skipped),
        "counts_by_rule": result.counts_by_rule(),
        "gate_findings": len(result.gate_findings),
        "suppressed": len(result.suppressed_findings),
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
