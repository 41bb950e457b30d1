"""K1 — kernel scale-out: event-engine throughput and the fleet size curve.

Two claims from the kernel scale-out refactor:

1. **Kernel event throughput** — the refactored kernel (deque-backed
   Queue, batched event resume, lazy cancelled-timer purge) sustains
   >= 5x the event throughput of the seed kernel on fleet-shaped
   workloads: deep queues, broadcast wakeups, and timer churn. A
   faithful miniature of the seed kernel (list-based Queue with
   ``pop(0)``, one resume timer per waiter, heap that never drops
   cancelled entries) is embedded here as the baseline so the comparison
   survives future kernel changes.

2. **Endpoints-vs-wall-clock curve** — ping campaigns over
   :func:`~repro.fleet.testbed.FleetTestbed` at 200 / 1k / 5k / 10k
   endpoints (star and tree) complete in minutes of host time, with the
   results recorded in ``BENCH_k1.json`` at the repo root.

Run standalone:

    python benchmarks/bench_k1_scale.py --smoke     # CI: 1k campaign
    python benchmarks/bench_k1_scale.py             # full curve + JSON
"""

from __future__ import annotations

import json
import os
import sys
import time

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_BENCH_DIR, "..", "src"))

from repro.netsim.kernel import Event, Queue, Simulator

SMOKE_ENDPOINTS = 1000
SMOKE_BUDGET_S = 300.0
FULL_SIZES = [200, 1000, 5000, 10000]
MIN_KERNEL_SPEEDUP = 5.0

# -- a faithful seed-kernel baseline --------------------------------------
#
# The baseline swaps back exactly the data structures the refactor
# changed, on top of the *same* process machinery, so the measured delta
# is the kernel change and nothing else:
#
# - Queue backed by a plain list with O(n) head pops,
# - Event.fire scheduling one resume timer per waiter,
# - a heap that never compacts cancelled entries.


class _SeedQueue(Queue):
    """The seed Queue: plain list, O(n) ``pop(0)`` per get."""

    def __init__(self, sim, name=""):
        super().__init__(sim, name)
        self._items = []
        self._getters = []

    def put(self, item):
        if self._getters:
            self._getters.pop(0).fire(item)
        else:
            self._items.append(item)

    def get(self):
        event = Event(self._sim)
        if self._items:
            event.fire(self._items.pop(0))
        else:
            self._getters.append(event)
        return event


class _SeedEvent(Event):
    """The seed Event: one resume timer scheduled per waiter."""

    def fire(self, value=None):
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._resume_soon(proc, value)


class _NoPurgeSimulator(Simulator):
    """The seed heap: cancelled timers ride along until their deadline."""

    def _note_cancel(self):
        self._cancelled += 1


# -- fleet-shaped kernel workloads ----------------------------------------
#
# Each workload returns the number of kernel-level operations performed
# and runs in a seed flavor and a current flavor doing identical logical
# work. The shapes mirror what a 10k-endpoint campaign does to the
# kernel: completion wakes flooding one scheduler queue, cohort wakeups,
# and armed-then-cancelled timeout timers.

QUEUE_DEPTH = 120000
BROADCAST_WAITERS = 2000
BROADCAST_ROUNDS = 12
CHURN_TIMERS = 30000


def _deep_queue(seed: bool):
    """A burst of puts drained by one consumer — the campaign
    scheduler's wake queue when a dispatch wave completes.

    The seed flavor is the pre-refactor wake path verbatim: one blocking
    ``yield queue.get()`` per item (a resume timer through the scheduler
    each time) over the list-backed Queue whose head pop is O(n). The
    current flavor is the post-refactor path: block once, then drain the
    backlog with ``try_get`` over the deque-backed Queue.
    """
    sim = Simulator()
    queue = _SeedQueue(sim) if seed else sim.queue()
    done = [0]
    for index in range(QUEUE_DEPTH):
        queue.put(index)

    def seed_consumer():
        while done[0] < QUEUE_DEPTH:
            yield queue.get()
            done[0] += 1

    def batch_consumer():
        while done[0] < QUEUE_DEPTH:
            yield queue.get()
            done[0] += 1
            while queue.try_get() is not None:
                done[0] += 1

    sim.spawn(seed_consumer() if seed else batch_consumer())
    sim.run()
    assert done[0] == QUEUE_DEPTH
    return QUEUE_DEPTH * 2


def _broadcast(seed: bool):
    """Rounds of firing an event under a large waiter cohort — the
    pool-populated / barrier pattern."""
    sim = Simulator()
    woken = [0]

    def waiter(event):
        yield event
        woken[0] += 1

    def round_fire(round_index):
        event = _SeedEvent(sim) if seed else sim.event()
        for _ in range(BROADCAST_WAITERS):
            sim.spawn(waiter(event))
        sim.schedule(0.5, event.fire, round_index)

    for index in range(BROADCAST_ROUNDS):
        sim.schedule(float(index), round_fire, index)
    sim.run()
    assert woken[0] == BROADCAST_WAITERS * BROADCAST_ROUNDS
    return woken[0]


def _churn(seed: bool):
    """Timers armed and mostly cancelled — the RPC-timeout pattern. The
    seed heap carries every cancelled entry to its deadline."""
    sim = _NoPurgeSimulator() if seed else Simulator()
    fired = [0]

    def tick(_index):
        fired[0] += 1

    for round_index in range(10):
        timers = [
            sim.schedule(1.0 + round_index + index * 1e-5, tick, index)
            for index in range(CHURN_TIMERS // 10)
        ]
        for index, timer in enumerate(timers):
            if index % 10 != 0:
                timer.cancel()
    sim.run()
    assert fired[0] == CHURN_TIMERS // 10
    return CHURN_TIMERS


_WORKLOADS = [
    ("deep-queue", _deep_queue),
    ("broadcast", _broadcast),
    ("timer-churn", _churn),
]


def _time_workload(fn, repeats=3):
    best = float("inf")
    ops = 0
    for _ in range(repeats):
        start = time.perf_counter()
        ops = fn()
        best = min(best, time.perf_counter() - start)
    return ops, best


def kernel_micro_comparison() -> tuple[list[list], dict]:
    rows = []
    seed_total_s = 0.0
    current_total_s = 0.0
    total_ops = 0
    for name, workload in _WORKLOADS:
        ops, seed_s = _time_workload(lambda: workload(True))
        _, current_s = _time_workload(lambda: workload(False))
        seed_total_s += seed_s
        current_total_s += current_s
        total_ops += ops
        rows.append([
            name, ops, seed_s * 1e3, current_s * 1e3,
            seed_s / current_s if current_s > 0 else float("inf"),
        ])
    speedup = seed_total_s / current_total_s if current_total_s else float("inf")
    summary = {
        "kernel_ops": total_ops,
        "seed_s": round(seed_total_s, 6),
        "current_s": round(current_total_s, 6),
        "speedup": round(speedup, 2),
        "events_per_s": round(total_ops / current_total_s)
        if current_total_s else 0,
    }
    return rows, summary


# -- the fleet size curve -------------------------------------------------


def run_campaign_point(endpoint_count: int, kind: str) -> dict:
    from repro.experiments.campaign import ping_job
    from repro.fleet.testbed import FleetTestbed

    build_start = time.perf_counter()
    testbed = FleetTestbed(
        endpoint_count=endpoint_count,
        topology=kind,
        seed=7,
    )
    build_s = time.perf_counter() - build_start
    jobs = [ping_job(f"ping-{index}", count=3)
            for index in range(endpoint_count)]
    run_start = time.perf_counter()
    report = testbed.run_campaign(
        jobs,
        max_concurrency=min(256, endpoint_count),
        timeout=1_000_000.0,
    )
    wall_s = time.perf_counter() - run_start
    return {
        "endpoints": endpoint_count,
        "topology": kind,
        "jobs_completed": report.jobs_completed,
        "jobs_failed": report.jobs_failed,
        "build_s": round(build_s, 3),
        "wall_s": round(wall_s, 3),
        "sim_makespan_s": round(report.makespan, 3),
        "endpoints_per_wall_s": round(endpoint_count / wall_s, 1)
        if wall_s else 0.0,
    }


# -- pytest entry points --------------------------------------------------


def test_k1_kernel_throughput(benchmark):
    """Refactored kernel >= 5x seed on fleet-shaped workloads."""
    from conftest import print_table

    rows, summary = benchmark.pedantic(
        kernel_micro_comparison, rounds=1, iterations=1,
    )
    benchmark.extra_info.update(summary)
    print_table(
        "K1: kernel event throughput vs seed kernel",
        ["workload", "ops", "seed ms", "current ms", "speedup"],
        rows,
    )
    print(f"composite speedup {summary['speedup']:.1f}x "
          f"(>= {MIN_KERNEL_SPEEDUP}x required), "
          f"{summary['events_per_s']:,} events/s")
    assert summary["speedup"] >= MIN_KERNEL_SPEEDUP


def test_k1_curve_point(benchmark):
    """One mid-size curve point stays healthy under pytest."""
    from conftest import print_table

    point = benchmark.pedantic(
        run_campaign_point, args=(200, "star"), rounds=1, iterations=1,
    )
    benchmark.extra_info.update(point)
    print_table(
        "K1: 200-endpoint star campaign",
        ["endpoints", "topology", "wall s", "sim s", "ok"],
        [[point["endpoints"], point["topology"], point["wall_s"],
          point["sim_makespan_s"], point["jobs_completed"]]],
    )
    assert point["jobs_completed"] == 200


# -- standalone driver ----------------------------------------------------


def _print_table(title, headers, rows):
    try:
        from conftest import print_table
    except ImportError:  # standalone: benchmarks/ not on sys.path
        sys.path.insert(0, _BENCH_DIR)
        from conftest import print_table
    print_table(title, headers, rows)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    micro_rows, micro_summary = kernel_micro_comparison()
    _print_table(
        "K1: kernel event throughput vs seed kernel",
        ["workload", "ops", "seed ms", "current ms", "speedup"],
        micro_rows,
    )
    print(f"composite speedup {micro_summary['speedup']:.1f}x "
          f"(>= {MIN_KERNEL_SPEEDUP}x required)")
    if micro_summary["speedup"] < MIN_KERNEL_SPEEDUP:
        print("FAIL: kernel speedup below target")
        return 1

    if smoke:
        point = run_campaign_point(SMOKE_ENDPOINTS, "star")
        _print_table(
            f"K1 (smoke): {SMOKE_ENDPOINTS}-endpoint star campaign",
            ["endpoints", "topology", "wall s", "sim s", "ok", "failed"],
            [[point["endpoints"], point["topology"], point["wall_s"],
              point["sim_makespan_s"], point["jobs_completed"],
              point["jobs_failed"]]],
        )
        if point["jobs_completed"] != SMOKE_ENDPOINTS:
            print("FAIL: smoke campaign lost jobs")
            return 1
        if point["wall_s"] > SMOKE_BUDGET_S:
            print(f"FAIL: smoke campaign exceeded {SMOKE_BUDGET_S:.0f}s budget")
            return 1
        return 0

    curve = []
    for kind in ("star", "tree"):
        for size in FULL_SIZES:
            point = run_campaign_point(size, kind)
            curve.append(point)
            print(f"  {kind} n={size}: wall {point['wall_s']:.1f}s "
                  f"sim {point['sim_makespan_s']:.1f}s "
                  f"ok {point['jobs_completed']}/{size}")
    _print_table(
        "K1: endpoints vs wall-clock",
        ["topology", "endpoints", "build s", "wall s", "sim s", "ok"],
        [[p["topology"], p["endpoints"], p["build_s"], p["wall_s"],
          p["sim_makespan_s"], p["jobs_completed"]] for p in curve],
    )
    output = {
        "bench": "k1_scale",  # regenerate: python benchmarks/bench_k1_scale.py
        "kernel_micro": {
            "workloads": [
                {"name": row[0], "ops": row[1],
                 "seed_ms": round(row[2], 3),
                 "current_ms": round(row[3], 3),
                 "speedup": round(row[4], 2)}
                for row in micro_rows
            ],
            "summary": micro_summary,
        },
        "curve": curve,
    }
    out_path = os.path.join(_BENCH_DIR, "..", "BENCH_k1.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(output, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
