#!/usr/bin/env python3
"""Perf ledger: the one benchmark every performance claim is measured with.

    python3 perf/run.py [--workload W] [--seed 7] [--reps 3] [--trace] [--out F]
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --smoke
    python3 perf/run.py --compare A.json B.json

Every repetition runs in its own fresh child interpreter, one after
another, each single-threaded. End-to-end numbers are medians of the
untraced repetitions; per-layer numbers come from one extra repetition
recorded by cProfile (``perf/trace.py``). See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perf/run.py: no program to measure at {SRC}/repro")
sys.path[:0] = [SRC, PERF_DIR]

import trace as tracing  # noqa: E402  (perf/trace.py, not the stdlib's)

WORKLOADS = ("star_ping", "tree_trace_monitor", "bulk_bandwidth",
             "lossy_reuse", "warehouse_rw")
MIN_BUDGET_REPS = 3
CALIB_ITERATIONS = 25_000_000

END_TO_END = ("wall_s", "jobs_per_wall_s", "setup_s", "peak_rss_mib")
# Measured on the untraced repetitions like the four above, but defined
# on some workloads only (0 elsewhere), so BENCHMARK.json lists them per
# layer; --compare gates them with these bounds.
EXTRA_BOUNDS = {
    "failed_share": ("abs", 0.0),
    "sim_makespan_s": ("rel", 0.001),
    "probe_loss_share": ("abs", 0.0),
    "uplink_rel_err": ("abs", 0.001),
    "ingest_rows_per_s": ("rel", 0.10),
    "query_p50_s": ("rel", 0.10),
    "query_p90_s": ("rel", 0.15),
}
# Read from always-on program state after every repetition.
STATE_COUNTS = (
    "kernel.timers_scheduled", "links.tx_packets", "links.tx_bytes",
    "links.drops", "links.deliveries_per_job", "ip.forwards",
    "fleet.retries", "fleet.peak_inflight", "warehouse.bytes_written",
    "warehouse.segments_scanned", "warehouse.segments_pruned",
)
EXACT = STATE_COUNTS + tuple(tracing.CALL_PROBES)
# Phase spans of the untraced repetitions, by metric name.
PHASE_METRICS = {
    "fleet.populate_wall_s": "populate",
    "fleet.schedule_wall_s": "schedule",
    "warehouse.ingest_s": "ingest",
    "warehouse.commit_s": "commit",
    "warehouse.query_s": "query",
    "warehouse.rollup_s": "rollup",
}
TRACE_METRICS = ("trace.overhead_ratio", "trace.unattributed_share",
                 "trace.traced_wall_s", "trace.untraced_wall_s")
PER_LAYER = (
    tuple(EXTRA_BOUNDS)
    + tuple(f"{layer}.{kind}" for layer in tracing.LAYERS
            for kind in ("self_s", "share", "calls_in"))
    + EXACT + ("links.wall_us_per_delivery",)
    + tuple(PHASE_METRICS) + TRACE_METRICS
)


def load_benchmark() -> dict:
    """BENCHMARK.json is the one place units, directions and bounds
    live; its names must be exactly the names this file prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for section, produced in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
        declared = [metric["name"] for metric in spec[section]]
        if sorted(declared) != sorted(produced):
            odd = sorted(set(declared) ^ set(produced))
            sys.exit(f"BENCHMARK.json {section} and perf/run.py disagree "
                     f"on: {odd}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        sys.exit("BENCHMARK.json workloads and perf/run.py disagree")
    return spec


# -- one repetition, in the child ------------------------------------------


def child_main(name: str, seed: int, shrink: int, traced: bool,
               spawned_at: float) -> None:
    import cProfile
    import resource

    spans = tracing.Spans()
    with spans.span("setup"):
        import workloads

        probes = tracing.resolve_call_probes()
        size = max(1, workloads.SIZES[name] // shrink)
        world = workloads.BUILDERS[name](seed, size)
    # Child start -> world built, interpreter boot and imports included.
    setup_s = time.time() - spawned_at
    profiler = cProfile.Profile() if traced else None
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    with spans.span("run"):
        raw = world.run(spans)
    wall_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = world.outcome(raw)
    result.update(
        size=size, wall_s=wall_s, setup_s=setup_s, peak_rss_mib=peak_kib / 1024.0,
        spans=spans.spans,
        phases={phase: spans.duration(phase)
                for phase in {s["name"] for s in spans.spans}},
        profile=(tracing.attribute(profiler.getstats(), probes, wall_s)
                 if profiler is not None else None),
    )
    print(json.dumps(result))


def run_child(name: str, seed: int, shrink: int, traced: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child", name,
               str(seed), str(shrink), str(int(traced)), repr(time.time())]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        sys.exit(f"perf/run.py: repetition of {name} exited "
                 f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- one workload, in the parent -------------------------------------------


def spread(samples: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (high - low) / middle if middle else 0.0


def measure(name: str, seed: int, shrink: int, reps: int, seconds: float,
            traced: bool) -> dict:
    """Run the repetitions of one workload and fold them into metrics.

    ``seconds`` > 0 replaces the repetition count with a time budget:
    repetitions are started while another one still fits, and at least
    MIN_BUDGET_REPS are made. A traced run under a budget makes one
    untraced and one traced repetition, since a profile needs a whole
    campaign whatever the budget.
    """
    started = time.perf_counter()
    untraced = []
    while True:
        untraced.append(run_child(name, seed, shrink, traced=False))
        spent = time.perf_counter() - started
        if seconds > 0:
            if traced or (len(untraced) >= MIN_BUDGET_REPS and
                          spent + spent / len(untraced) > seconds):
                break
        elif len(untraced) >= reps:
            break
    profiled = run_child(name, seed, shrink, traced=True) if traced else None
    every = untraced + ([profiled] if profiled else [])

    problems = [v for rep in every for v in rep["violations"]]
    if len({rep["digest"] for rep in every}) != 1:
        problems.append("digest differs between repetitions")
    for count in STATE_COUNTS:
        if len({rep["counts"].get(count, 0) for rep in every}) != 1:
            problems.append(f"{count} differs between repetitions")
    if profiled and profiled["profile"]["closure_err"] > 0.02:
        problems.append("profiler self times do not sum to the traced wall")

    samples = {
        "wall_s": [rep["wall_s"] for rep in untraced],
        "jobs_per_wall_s": [rep["attempted"] / rep["wall_s"]
                            for rep in untraced],
        "setup_s": [rep["setup_s"] for rep in untraced],
        "peak_rss_mib": [rep["peak_rss_mib"] for rep in untraced],
    }
    for extra in EXTRA_BOUNDS:
        samples[extra] = [rep["values"].get(extra, 0.0) for rep in untraced]
    samples["failed_share"] = [rep["failed"] / rep["attempted"]
                               for rep in untraced]
    for metric, phase in PHASE_METRICS.items():
        samples[metric] = [rep["phases"].get(phase, 0.0) for rep in untraced]
    first = untraced[0]
    tx_packets = first["counts"].get("links.tx_packets", 0)
    samples["links.wall_us_per_delivery"] = [
        1e6 * rep["wall_s"] / tx_packets if tx_packets else 0.0
        for rep in untraced
    ]
    metrics = {metric: statistics.median(values)
               for metric, values in samples.items()}
    for count in STATE_COUNTS:
        metrics[count] = first["counts"].get(count, 0)
    if profiled:
        profile = profiled["profile"]
        wall = profile["traced_wall_s"]
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = profile["self_s"][layer]
            metrics[f"{layer}.share"] = profile["self_s"][layer] / wall
            metrics[f"{layer}.calls_in"] = profile["calls_in"][layer]
        metrics.update(profile["counts"])
        metrics["trace.overhead_ratio"] = wall / metrics["wall_s"]
        metrics["trace.unattributed_share"] = profile["unattributed_s"] / wall
        metrics["trace.traced_wall_s"] = wall
        metrics["trace.untraced_wall_s"] = metrics["wall_s"]
    return {
        "workload": name, "seed": seed, "size": first["size"],
        "reps": len(untraced),
        "digest": first["digest"],
        "attempted": sum(rep["attempted"] for rep in untraced),
        "failed": sum(rep["failed"] for rep in untraced),
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
        "trace": profiled and {
            "workload": name, "seed": seed, "size": profiled["size"],
            "digest": profiled["digest"], "spans": profiled["spans"],
            **profiled["profile"],
        },
    }


# -- output ----------------------------------------------------------------


def header(seed: int, reps: int, calibrate: bool) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"  # the driver's checkout is not a git repository
    info = {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "reps": reps}
    if calibrate:
        # Informational, not gated: lets numbers from different boxes be
        # normalised. A fixed pure-Python loop, about 1 s here.
        started = time.perf_counter()
        total = 0
        for index in range(CALIB_ITERATIONS):
            total += index & 7
        info["calib_score"] = CALIB_ITERATIONS / (
            time.perf_counter() - started) / 1e6
    return info


def print_record(record: dict, spec: dict) -> None:
    units = {m["name"]: m for section in ("end_to_end", "per_layer")
             for m in spec[section]}
    print(f"== {record['workload']}  seed={record['seed']} "
          f"size={record['size']} reps={record['reps']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"   digest {record['digest']}")
    for name in END_TO_END + PER_LAYER:
        if name not in record["metrics"]:
            continue
        values = record["samples"].get(name)
        noise = (f"  spread {100 * spread(values):5.2f}%  n={len(values)}"
                 if values else "")
        print(f"   {name:32s} {record['metrics'][name]:16.6f} "
              f"{units[name]['unit']:8s}{noise}")
    for problem in record["problems"]:
        print(f"   CHECK FAILED: {problem}")


def contract_line(record: dict, spec: dict, traced: bool) -> str:
    """The last line the driver reads."""
    section = "per_layer" if traced else "end_to_end"
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- compare ---------------------------------------------------------------


def verdict(old: list, new: list, better: str, bound: tuple) -> str:
    """same / better / worse / unresolved for one metric on one workload.

    ``unresolved``: the run-to-run spread is wider than the bound, and
    the two sides' samples overlap, so the medians decide nothing.
    """
    kind, limit = bound
    a, b = statistics.median(old), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b - a)
    noise = max(spread(old), spread(new))
    if kind == "rel":
        worsening = (worsening / abs(a) if a
                     else math.copysign(math.inf, worsening) if worsening
                     else 0.0)
    else:
        noise *= abs(a)
    apart = (min(new) > max(old) or max(new) < min(old))
    if noise > limit and not apart:
        return "unresolved"
    if worsening > limit:
        return "worse"
    if worsening < -limit:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as fh:
        run_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        run_b = json.load(fh)
    better = {m["name"]: m["better"] for section in ("end_to_end", "per_layer")
              for m in spec[section]}
    bounds = {m["name"]: ("rel", m["bound"]) for m in spec["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    bounds.update(dict.fromkeys(EXACT, ("abs", 0.0)))
    worse = 0
    print(f"{'workload':20s} {'metric':32s} {'A':>16s} {'B':>16s} "
          f"{'bound':>10s}  verdict")
    for name in WORKLOADS:
        a, b = run_a["workloads"].get(name), run_b["workloads"].get(name)
        if a is None or b is None:
            continue
        rows = [("digest", a["digest"][:12], b["digest"][:12], "exact",
                 "same" if a["digest"] == b["digest"] else "worse")]
        for metric in END_TO_END + PER_LAYER:
            if metric not in a["metrics"] or metric not in b["metrics"]:
                continue
            old = a["samples"].get(metric) or [a["metrics"][metric]]
            new = b["samples"].get(metric) or [b["metrics"][metric]]
            if metric in bounds:
                kind, limit = bounds[metric]
                shown = f"{100 * limit:g}%" if kind == "rel" else f"{limit:g}"
                outcome = verdict(old, new, better[metric], bounds[metric])
            else:
                shown, outcome = "-", "-"  # single traced sample: no gate
            rows.append((metric, f"{a['metrics'][metric]:.6g}",
                         f"{b['metrics'][metric]:.6g}", shown, outcome))
        for metric, left, right, shown, outcome in rows:
            worse += outcome == "worse"
            print(f"{name:20s} {metric:32s} {left:>16s} {right:>16s} "
                  f"{shown:>10s}  {outcome}")
    print(f"{worse} worse")
    return 1 if worse else 0


# -- entry -----------------------------------------------------------------


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        name, seed, shrink, traced, spawned_at = argv[1:]
        child_main(name, int(seed), int(shrink), traced == "1",
                   float(spawned_at))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget replacing --reps")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the run record here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/10 size, 1 rep + trace")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    spec = load_benchmark()
    if args.compare:
        return compare(*args.compare, spec)

    names = [args.workload] if args.workload else list(WORKLOADS)
    reps, traced = (1, True) if args.smoke else (args.reps, bool(args.trace))
    info = header(args.seed, reps, calibrate=args.seconds <= 0)
    print("run " + " ".join(f"{k}={v}" for k, v in info.items()))
    records = {}
    for name in names:
        record = measure(name, args.seed, 10 if args.smoke else 1, reps,
                         args.seconds, traced)
        expected = set(END_TO_END + PER_LAYER) if traced else set(END_TO_END)
        missing = expected - set(record["metrics"])
        if missing:
            sys.exit(f"perf/run.py: {name} produced no {sorted(missing)}")
        trace_record = record.pop("trace")
        if trace_record:
            write_json(os.path.join(tracing.OUT_DIR, f"trace-{name}.json"),
                       trace_record)
        print_record(record, spec)
        records[name] = record
    if args.out:
        write_json(args.out, {"header": info, "workloads": records})
    ok = not any(record["problems"] for record in records.values())
    if args.workload:
        print(contract_line(records[args.workload], spec, traced))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
