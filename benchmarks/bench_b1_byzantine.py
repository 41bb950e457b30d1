"""B1 — Byzantine endpoint containment: detection, goodput, determinism.

The containment stack's claims, measured end to end on a 1k-endpoint
fleet with 5 % seeded adversaries (stall / flood / fabricate /
desequence / tamper, round-robin):

1. **Detection** — every seeded adversary accumulates misbehavior
   evidence (score > 0) through some containment path: session budgets
   (stream overflow, stalled RPCs), the protocol state machine
   (sequence violations), or cross-validation (result mismatches).

2. **No collateral** — zero honest endpoints are expelled for
   misbehavior. Quarantine and scoring decay absorb one-off noise;
   only chronic offenders depart.

3. **Goodput** — the adversarial campaign still delivers >= 90 % of
   the clean run's validated measurement yield (probes collected after
   cross-validation discards fabricated data): budgets sever parasitic
   sessions quickly and retries land honest work on honest endpoints.
   The makespan stretch from auditing adversaries (timeouts, retries,
   quarantine backoff) is reported alongside as probes/sim-second.

4. **Determinism** — the same seed replays the adversarial campaign to
   a byte-identical report, adversary schedules included.

Results land in ``BENCH_b1.json`` at the repo root.

Run standalone:

    python benchmarks/bench_b1_byzantine.py --smoke   # CI: 50 endpoints
    python benchmarks/bench_b1_byzantine.py           # full 1k + JSON
"""

from __future__ import annotations

import json
import os
import sys
import time

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_BENCH_DIR, "..", "src"))

from repro.controller.client import SessionBudget
from repro.experiments.campaign import ping_job
from repro.fleet.scheduler import CrossValidation
from repro.fleet.testbed import FleetTestbed
from repro.netsim.faults import FaultPlan
from repro.util.retry import RetryPolicy

FULL_ENDPOINTS = 1000
FULL_FRACTION = 0.05
SMOKE_ENDPOINTS = 50
SMOKE_FRACTION = 0.10
MIN_GOODPUT_RATIO = 0.90


def run_point(
    endpoint_count: int,
    byzantine_fraction: float,
    seed: int = 7,
    max_concurrency: int = 256,
) -> dict:
    """One campaign (clean when ``byzantine_fraction`` is 0) with the
    full containment stack armed; returns metrics + the report JSON."""
    build_start = time.perf_counter()
    fleet = FleetTestbed(
        endpoint_count=endpoint_count, topology="star", seed=seed
    )
    build_s = time.perf_counter() - build_start
    plan = FaultPlan(seed=seed).install(fleet.sim)
    if byzantine_fraction > 0:
        plan.byzantine(fleet.endpoints, fraction=byzantine_fraction)
    # Unpinned measurement load plus one pinned audit per endpoint:
    # cross-validation replicates every audit against a
    # quorum of other endpoints, so each endpoint's results are
    # spot-checked deterministically — fabricators cannot hide in the
    # unsampled majority.
    jobs = [
        ping_job(f"ping-{index}", count=4, interval=0.5)
        for index in range(endpoint_count)
    ]
    jobs += [
        ping_job(f"audit-ep{index}", count=8, interval=0.25,
                 endpoint=f"ep{index}")
        for index in range(endpoint_count)
    ]
    run_start = time.perf_counter()
    report = fleet.run_campaign(
        jobs,
        max_concurrency=min(max_concurrency, endpoint_count),
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                 jitter=0.1),
        # Fail over fast: one transport retry, short reacquire, then the
        # job moves to an alternate endpoint.
        pool_policy=RetryPolicy(max_attempts=1, base_delay=0.5,
                                jitter=0.1),
        reacquire_timeout=2.0,
        rpc_timeout=2.0,
        timeout=1_000_000.0,
        session_budget=SessionBudget(),
        misbehavior=True,
        cross_validate=CrossValidation(fraction=0.1, k=4),
    )
    wall_s = time.perf_counter() - run_start
    makespan = max(report.makespan, 1e-9)
    counters = report.aggregator.total.counters
    probes = counters.get("probes_received")
    adversaries = set(plan.byzantine_assignments)
    mis = report.misbehavior or {"totals": {}, "departed": []}
    undetected = sorted(
        name for name in adversaries
        if mis["totals"].get(name, 0.0) <= 0.0
    )
    honest_departed = sorted(
        name for name in mis["departed"] if name not in adversaries
    )
    return {
        "endpoints": endpoint_count,
        "byzantine_fraction": byzantine_fraction,
        "adversaries": len(adversaries),
        "behaviors": dict(sorted(
            (name, behavior)
            for name, behavior in plan.byzantine_assignments.items()
        )),
        "seed": seed,
        "jobs_completed": report.jobs_completed,
        "jobs_failed": report.jobs_failed,
        "retries": report.retries,
        "probes_received": probes,
        "adversaries_detected": len(adversaries) - len(undetected),
        "undetected": undetected,
        "honest_departed": honest_departed,
        "misbehavior_departed": len(mis["departed"]),
        "cross_validation_outliers": counters.get(
            "cross_validation_outliers"
        ),
        "build_s": round(build_s, 3),
        "wall_s": round(wall_s, 3),
        "sim_makespan_s": round(report.makespan, 3),
        "goodput_probes_per_sim_s": round(probes / makespan, 3),
        "report_json": report.to_json(),
    }


def _strip(point: dict) -> dict:
    """JSON-friendly view (the raw report is only for replay checks)."""
    return {k: v for k, v in point.items() if k != "report_json"}


def run_suite(endpoint_count: int, fraction: float, seed: int = 7,
              **kwargs) -> tuple[list[dict], dict]:
    """Clean baseline, adversarial run, and a same-seed replay of the
    adversarial run; returns (points, summary)."""
    points = []
    clean = run_point(endpoint_count, 0.0, seed=seed, **kwargs)
    points.append(_strip(clean))
    print(f"  clean: ok {clean['jobs_completed']} "
          f"probes {clean['probes_received']} "
          f"sim {clean['sim_makespan_s']:.1f}s "
          f"wall {clean['wall_s']:.1f}s "
          f"goodput {clean['goodput_probes_per_sim_s']:.2f}/s")
    byz = run_point(endpoint_count, fraction, seed=seed, **kwargs)
    points.append(_strip(byz))
    print(f"  byzantine {fraction * 100:.0f}%: "
          f"ok {byz['jobs_completed']} fail {byz['jobs_failed']} "
          f"detected {byz['adversaries_detected']}/{byz['adversaries']} "
          f"honest-departed {len(byz['honest_departed'])} "
          f"sim {byz['sim_makespan_s']:.1f}s "
          f"wall {byz['wall_s']:.1f}s "
          f"probes {byz['probes_received']}")
    replay = run_point(endpoint_count, fraction, seed=seed, **kwargs)
    baseline = clean["probes_received"]
    ratio = byz["probes_received"] / baseline if baseline else 0.0
    makespan_stretch = (
        byz["sim_makespan_s"] / clean["sim_makespan_s"]
        if clean["sim_makespan_s"] else 0.0
    )
    summary = {
        "endpoints": endpoint_count,
        "byzantine_fraction": fraction,
        "adversaries": byz["adversaries"],
        "adversaries_detected": byz["adversaries_detected"],
        "undetected": byz["undetected"],
        "honest_departed": byz["honest_departed"],
        "baseline_goodput_probes": baseline,
        "byzantine_goodput_probes": byz["probes_received"],
        "goodput_ratio": round(ratio, 4),
        "min_goodput_ratio": MIN_GOODPUT_RATIO,
        # Containment latency, not yield: how much longer the campaign
        # ran while timeouts/retries/quarantines worked around the
        # adversaries.
        "makespan_stretch": round(makespan_stretch, 4),
        "replay_byte_identical":
            replay["report_json"] == byz["report_json"],
    }
    return points, summary


def check_summary(summary: dict) -> int:
    print(f"detection: {summary['adversaries_detected']}/"
          f"{summary['adversaries']} adversaries scored, "
          f"{len(summary['honest_departed'])} honest departures")
    print(f"yield under attack: {summary['byzantine_goodput_probes']} vs "
          f"{summary['baseline_goodput_probes']} clean probes "
          f"(ratio {summary['goodput_ratio']:.2f}, "
          f">= {summary['min_goodput_ratio']:.2f} required; "
          f"makespan stretch {summary['makespan_stretch']:.2f}x)")
    print(f"same-seed replay byte-identical: "
          f"{summary['replay_byte_identical']}")
    status = 0
    if summary["undetected"]:
        print(f"FAIL: undetected adversaries {summary['undetected']}")
        status = 1
    if summary["honest_departed"]:
        print("FAIL: honest endpoints departed for misbehavior: "
              f"{summary['honest_departed']}")
        status = 1
    if summary["goodput_ratio"] < summary["min_goodput_ratio"]:
        print("FAIL: adversarial goodput below target ratio")
        status = 1
    if not summary["replay_byte_identical"]:
        print("FAIL: same-seed adversarial campaign was not byte-identical")
        status = 1
    return status


# -- pytest entry point ---------------------------------------------------


def test_b1_byzantine_smoke(benchmark):
    """Smoke-size adversarial campaign holds every containment bar."""
    points, summary = benchmark.pedantic(
        run_suite,
        args=(SMOKE_ENDPOINTS, SMOKE_FRACTION),
        kwargs=dict(max_concurrency=24),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(summary)
    assert summary["undetected"] == []
    assert summary["honest_departed"] == []
    assert summary["goodput_ratio"] >= MIN_GOODPUT_RATIO
    assert summary["replay_byte_identical"]


# -- standalone driver ----------------------------------------------------


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    seed = 7
    for arg in argv:
        if arg.startswith("--seed="):
            seed = int(arg.split("=", 1)[1])

    if smoke:
        points, summary = run_suite(
            SMOKE_ENDPOINTS, SMOKE_FRACTION, seed=seed, max_concurrency=24,
        )
        return check_summary(summary)

    points, summary = run_suite(FULL_ENDPOINTS, FULL_FRACTION, seed=seed)
    status = check_summary(summary)
    output = {
        # regenerate: python benchmarks/bench_b1_byzantine.py
        "bench": "b1_byzantine",
        "points": points,
        "summary": summary,
    }
    out_path = os.path.join(_BENCH_DIR, "..", "BENCH_b1.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(output, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
