"""``python -m repro analysis`` — the simlint command line.

Exit codes: 0 clean (every finding suppressed inline), 1 gate findings
present, 2 usage error: an unknown rule id, a path that does not exist,
paths that hold no ``.py`` file, or a ``--report`` that cannot be
written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.engine import analyze_paths
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import all_rules


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analysis",
        description=(
            "simlint: determinism & sim-safety static analysis over the "
            "whole repository"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the JSON report instead of text",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--rule", action="append", metavar="ID", dest="rule_ids",
        help="restrict the scan to the given rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list suppressed findings",
    )
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  [{rule.scope:3s}]  {rule.name}: {rule.summary}")
        return 0

    if args.rule_ids:
        known = {rule.id for rule in rules}
        unknown = [rid for rid in args.rule_ids if rid not in known]
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.id in set(args.rule_ids)]

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = analyze_paths(args.paths, rules=rules)
    if not result.files:
        print(f"error: no Python files under: {', '.join(args.paths)}",
              file=sys.stderr)
        return 2

    output = render_json(result) if args.json else render_text(
        result, verbose=args.verbose
    )
    print(output, end="" if args.json else "\n")

    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(render_json(result))
        except OSError as exc:
            print(f"error: cannot write report {args.report}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2

    return 1 if result.gate_findings else 0


if __name__ == "__main__":
    sys.exit(main())
