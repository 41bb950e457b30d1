"""``python -m repro`` — a self-contained demonstration run, plus tools.

With no arguments, builds the default testbed and runs the paper's two §4
experiments plus a clock-sync pass, printing what a first-time user
should see. The richer scenarios live in ``examples/``.

``python -m repro --help`` lists the subcommands (``demo``,
``observability``, ``fleet``, ``analysis``, ``warehouse``); the parser
built in :func:`main` is the one place they are defined.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

# Subcommands whose whole command line belongs to another module's
# ``main(argv)``.
DELEGATED = {"analysis": "repro.analysis.cli",
             "warehouse": "repro.warehouse.cli"}


def observability_main(args: argparse.Namespace) -> int:
    """Run an instrumented experiment (or format an existing JSONL export)
    and print the per-layer telemetry report."""
    from repro.obs.report import format_report
    from repro.obs.sinks import read_jsonl

    jsonl_path = args.jsonl_path
    if jsonl_path is not None:
        try:
            records = read_jsonl(jsonl_path)
        except OSError as exc:
            print(f"error: cannot read {jsonl_path}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {jsonl_path} is not valid JSONL: {exc}",
                  file=sys.stderr)
            return 1
        print(format_report(records, title=f"Telemetry report ({jsonl_path})"))
        return 0

    from repro.controller.clocksync import estimate_clock
    from repro.core import Testbed
    from repro.experiments import ping

    testbed = Testbed(endpoint_clock_offset=7.5)

    def experiment(handle):
        yield from estimate_clock(
            handle, testbed.controller_host.clock, probes=4
        )
        yield from ping(handle, testbed.target_address, count=3)
        return None

    _, snapshot = testbed.run_experiment(
        experiment, "observability-demo", collect_telemetry=True
    )
    if args.export:
        snapshot.export_jsonl(args.export)
        print(f"exported {len(snapshot.to_jsonl_lines())} records "
              f"to {args.export}\n")
    print(format_report(snapshot, title="Telemetry report (demo experiment)"))
    return 0


def positive_rate(text: str) -> float:
    """argparse type for ``--rate``; `not value > 0` also refuses NaN."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


def positive_int(text: str) -> int:
    """argparse type for a count that cannot be zero (``--endpoints``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for ``--jobs``, where 0 means one job per endpoint."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoints", type=positive_int, default=20,
                        help="fleet size (default 20)")
    parser.add_argument("--jobs", type=non_negative_int, default=0,
                        help="campaign jobs (default: one per endpoint)")
    parser.add_argument("--shards", type=positive_int, default=2,
                        help="rendezvous shard count (default 2)")
    parser.add_argument("--operators", type=positive_int, default=4,
                        help="endpoint operator keys (default 4)")
    parser.add_argument("--topology", default="star",
                        choices=("star", "tree", "mesh"))
    parser.add_argument("--concurrency", type=positive_int, default=16,
                        help="max concurrent sessions (default 16)")
    parser.add_argument("--rate", type=positive_rate, default=None,
                        help="session starts per simulated second "
                             "(default unlimited)")
    parser.add_argument("--count", type=positive_int, default=3,
                        help="probes per ping job (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--export", metavar="PATH", default=None,
                        help="write per-endpoint rollups as JSONL")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical JSON report instead of "
                             "the summary")
    parser.add_argument("--warehouse", metavar="DIR", default=None,
                        help="persist the campaign (per-job rows, raw "
                             "samples, rollups) into this warehouse")


def fleet_main(args: argparse.Namespace) -> int:
    """Run a ping campaign over a generated fleet and print the report."""
    from repro.experiments.campaign import ping_job
    from repro.fleet import FleetTestbed

    fleet = FleetTestbed(
        endpoint_count=args.endpoints,
        topology=args.topology,
        shards=args.shards,
        operator_count=args.operators,
        seed=args.seed,
    )
    job_count = args.jobs or args.endpoints
    jobs = [ping_job(f"ping-{index}", count=args.count)
            for index in range(job_count)]
    report = fleet.run_campaign(
        jobs,
        campaign_name="fleet-demo",
        max_concurrency=args.concurrency,
        rate=args.rate,
        warehouse=args.warehouse,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        print(f"  rendezvous: {args.shards} shard(s), "
              f"{fleet.rendezvous.experiments_delivered} offers delivered")
    if args.export:
        lines = report.export_jsonl(args.export)
        print(f"  exported {lines} rollup records to {args.export}")
    if args.warehouse:
        print(f"  persisted campaign 'fleet-demo' to {args.warehouse} "
              f"(try: python -m repro warehouse --root {args.warehouse} ls)")
    return 0


def demo_main(args: argparse.Namespace) -> int:
    from repro.controller.clocksync import estimate_clock
    from repro.core import Testbed
    from repro.experiments import measure_uplink_bandwidth, ping, traceroute
    from repro.util.inet import format_ip

    print("PacketLab reproduction demo")
    print("===========================")
    testbed = Testbed(
        uplink_bandwidth_bps=4e6,
        endpoint_clock_offset=42.0,
        endpoint_clock_skew=80e-6,
    )
    print("testbed: endpoint behind a 10/4 Mbps access link; its clock is")
    print("         42 s off and 80 ppm fast (the controller won't mind)\n")

    def experiment(handle):
        estimate = yield from estimate_clock(
            handle, testbed.controller_host.clock, probes=6
        )
        print(f"clock sync: endpoint offset {estimate.offset:+.3f} s, "
              f"skew {estimate.skew * 1e6:+.0f} ppm "
              f"(min RTT {estimate.rtt_min * 1000:.1f} ms)")

        pings = yield from ping(handle, testbed.target_address, count=3)
        print(f"ping:       {pings.received}/{pings.sent} replies, "
              f"min RTT {pings.rtt_min * 1000:.2f} ms")

        route = yield from traceroute(handle, testbed.target_address, sktid=1)
        hops = " -> ".join(
            format_ip(hop.responder) if hop.responder else "*"
            for hop in route.hops
        )
        print(f"traceroute: {hops}")

        bandwidth = yield from measure_uplink_bandwidth(
            handle, testbed.controller_host, packet_count=40, sktid=2
        )
        print(f"uplink:     measured {bandwidth.measured_bps / 1e6:.2f} Mbps "
              f"(configured 4.00 Mbps)")
        return None

    testbed.run_experiment(experiment, "demo")
    print("\nall experiment logic ran on the controller; the endpoint only")
    print("executed nopen/ncap/nsend/npoll/mread commands (Table 1).")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PacketLab reproduction: demo run and tools.",
    )
    parser.set_defaults(run=demo_main)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.add_parser(
        "demo", help="the demonstration run (the default with no COMMAND)")
    observability = commands.add_parser(
        "observability",
        help="run a short instrumented experiment and print the per-layer "
             "telemetry report, or format an existing JSONL export",
    )
    observability.set_defaults(run=observability_main)
    source = observability.add_mutually_exclusive_group()
    source.add_argument("--export", metavar="PATH",
                        help="also write the run's telemetry as JSONL")
    source.add_argument("jsonl_path", metavar="JSONL_PATH", nargs="?",
                        help="format this export instead of running anything")
    fleet = commands.add_parser(
        "fleet",
        help="run a ping campaign over a simulated fleet (sharded "
             "rendezvous) and print the aggregate report",
    )
    fleet.set_defaults(run=fleet_main)
    add_fleet_arguments(fleet)
    # No arguments of their own (not even -h): everything after the name
    # comes back unparsed and goes to the module's main(argv).
    commands.add_parser(
        "analysis", add_help=False,
        help="run the simlint determinism & sim-safety static analyzer "
             "(exit 1 on any unsuppressed finding)")
    commands.add_parser(
        "warehouse", add_help=False,
        help="operate the durable results warehouse: "
             "{ls,ingest,query,rollup,compact}")

    args, rest = parser.parse_known_args(argv)
    if args.command in DELEGATED:
        return import_module(DELEGATED[args.command]).main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
