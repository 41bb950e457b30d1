"""S2 — simlint whole-repo scan cost: the CI gate must stay cheap.

The determinism gate runs on every push (both CI pythons), so a full
two-pass scan of the tree — parse ~150 files, build the import/call
graphs, run every rule — has a hard wall-clock budget: **< 5 seconds**.
This benchmark pins that budget and charts where the time goes
(parse+graphs vs rules), so scan cost regressions show up here before
they show up as slow CI.
"""

from __future__ import annotations

import os
import time

from conftest import print_table

from repro.analysis import analyze_paths
from repro.analysis.engine import collect_files

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# CI gate: a full scan (the expensive path: no warm caches) must finish
# well inside the lint job's noise floor.
FULL_SCAN_BUDGET_S = 5.0


def _full_scan():
    return analyze_paths([SRC], root=REPO)


def test_full_repo_scan_under_budget(benchmark):
    """Whole-tree scan wall-clock vs the 5 s CI budget."""
    result = benchmark(_full_scan)
    assert result.gate_findings == []
    file_count = len(result.files)
    assert file_count >= 100

    stats = benchmark.stats.stats
    mean = stats.mean
    worst = stats.max
    print_table(
        "S2: simlint full-repo scan",
        ["files", "mean_s", "max_s", "budget_s", "per_file_ms"],
        [[file_count, mean, worst, FULL_SCAN_BUDGET_S,
          mean / file_count * 1e3]],
    )
    benchmark.extra_info["files"] = file_count
    benchmark.extra_info["budget_s"] = FULL_SCAN_BUDGET_S
    assert worst < FULL_SCAN_BUDGET_S, (
        f"simlint scan took {worst:.2f}s for {file_count} files; "
        f"CI gate budget is {FULL_SCAN_BUDGET_S}s"
    )


def test_scan_cost_breakdown():
    """Where a cold scan spends its time (collection vs full analysis)."""
    start = time.perf_counter()
    files = collect_files([SRC])
    collect_s = time.perf_counter() - start

    start = time.perf_counter()
    result = _full_scan()
    total_s = time.perf_counter() - start

    print_table(
        "S2: scan cost breakdown",
        ["stage", "seconds"],
        [
            ["collect file list", collect_s],
            ["parse + graphs + rules", total_s],
            ["findings (pre-gate)", float(len(result.findings))],
        ],
    )
    assert len(files) == len(result.files) + len(result.skipped)
    assert total_s < FULL_SCAN_BUDGET_S
