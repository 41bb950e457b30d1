"""The five workloads: seeded inputs, the timed call, the output checks.

Each builder makes a world from ``(seed, size)`` during set-up; ``run``
is the timed region and hands the program only those inputs. ``SIZES``
holds the one scale constant per workload (``--smoke`` divides it by
ten). Why each workload exists is recorded in ``perf/README.md`` and in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from random import Random

from trace import OUT_DIR  # perf/trace.py

from repro.cpf import figure2_monitor
from repro.crypto.certificate import Restrictions
from repro.experiments.campaign import bandwidth_job, ping_job, traceroute_job
from repro.fleet.pool import EndpointPool
from repro.fleet.scheduler import CampaignScheduler
from repro.fleet.testbed import FleetTestbed
from repro.netsim.faults import FaultPlan
from repro.warehouse import (
    Query,
    Warehouse,
    build_rollups,
    persist_campaign,
    rollup_percentiles,
)

# One repetition takes 3-5 s on the 2-core reference box at these sizes.
SIZES = {
    "star_ping": 500,           # endpoints, one ping job each
    "tree_trace_monitor": 200,  # endpoints, one traceroute job each
    "bulk_bandwidth": 50,       # endpoints, one 100 x 1400 B burst each
    "lossy_reuse": 20,          # ping jobs per endpoint, 32 endpoints
    "warehouse_rw": 250_000,    # sample rows ingested
}

ACCESS_BPS = 10e6          # FleetTestbed's configured uplink: ground truth
LOSSY_ENDPOINTS = 32
LOSSY_JOB_SIM_S = 2.9      # sim seconds one reused-session ping job takes
WAREHOUSE_ENDPOINTS = 64
WAREHOUSE_SEGMENTS = 16
SKETCH_GROWTH = 1.1        # QuantileSketch bucket ratio: its error bound


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _directions(fleet):
    for link in fleet.net.links:
        yield link.forward
        yield link.reverse


class Campaign:
    """A closed-loop fleet campaign: ``max_concurrency`` jobs in flight,
    the next dispatched when one completes."""

    def __init__(self, fleet, jobs, fault_free=True, **run_kwargs) -> None:
        self.fleet = fleet
        self.jobs = jobs
        self.fault_free = fault_free
        self.run_kwargs = run_kwargs
        # Resolve the always-on state the counts are read from before
        # anything is measured: a rename under src/ fails here, loudly.
        stats = next(_directions(fleet)).stats
        for owner, attribute in (
            (fleet.sim, "_seq"),
            (fleet.controller_host.ip, "packets_forwarded"),
            (stats, "packets_sent"), (stats, "bytes_sent"),
            (stats, "packets_dropped_queue"), (stats, "packets_dropped_loss"),
            (stats, "packets_dropped_fault"),
        ):
            getattr(owner, attribute)

    def run(self, spans):
        """The timed region: publish, populate, schedule, tear down."""
        originals = (EndpointPool.populate, CampaignScheduler.run)
        EndpointPool.populate = spans.timed_generator(
            "populate", originals[0])
        CampaignScheduler.run = spans.timed_generator(
            "schedule", originals[1])
        try:
            return self.fleet.run_campaign(
                self.jobs, timeout=1_000_000.0, **self.run_kwargs
            )
        finally:
            EndpointPool.populate, CampaignScheduler.run = originals

    def outcome(self, report) -> dict:
        counters = report.aggregator.total.counters.to_dict()
        sketches = report.aggregator.total.sketches
        stats = [direction.stats for direction in _directions(self.fleet)]
        tx_packets = sum(s.packets_sent for s in stats)
        drops = sum(s.packets_dropped_queue + s.packets_dropped_loss
                    + s.packets_dropped_fault for s in stats)
        violations = []
        if report.jobs_completed + report.jobs_failed != report.jobs_total:
            violations.append("completed + failed != total")
        sent = counters.get("probes_sent", 0)
        if sent != (counters.get("probes_received", 0)
                    + counters.get("probes_lost", 0)):
            violations.append("probes_sent != received + lost")
        if counters.get("traceroutes", 0) != counters.get(
                "destinations_reached", 0):
            violations.append("a traceroute did not reach its destination")
        if self.fault_free and drops:
            violations.append(f"{drops} link drops on a fault-free campaign")
        values = {"sim_makespan_s": report.makespan}
        if sent:
            values["probe_loss_share"] = counters["probes_lost"] / sent
        if "uplink_bps" in sketches:
            values["uplink_rel_err"] = abs(
                sketches["uplink_bps"].mean() - ACCESS_BPS) / ACCESS_BPS
        return {
            "attempted": report.jobs_total,
            "failed": report.jobs_failed,
            "digest": _sha256(report.to_json()),
            "violations": violations,
            "values": values,
            "counts": {
                "kernel.timers_scheduled": self.fleet.sim._seq,
                "links.tx_packets": tx_packets,
                "links.tx_bytes": sum(s.bytes_sent for s in stats),
                "links.drops": drops,
                "links.deliveries_per_job": tx_packets / report.jobs_total,
                "ip.forwards": sum(node.ip.packets_forwarded
                                   for node in self.fleet.net.nodes.values()),
                "fleet.retries": report.retries,
                "fleet.peak_inflight": report.peak_inflight,
            },
        }


def star_ping(seed: int, size: int) -> Campaign:
    fleet = FleetTestbed(endpoint_count=size, seed=seed, scheduler="heap")
    jobs = [ping_job(f"ping-{index}", count=3) for index in range(size)]
    return Campaign(fleet, jobs, max_concurrency=256)


def tree_trace_monitor(seed: int, size: int) -> Campaign:
    fleet = FleetTestbed(
        endpoint_count=size, topology="tree", fanout=8, shards=2,
        operator_count=4, seed=seed, scheduler="heap",
    )
    jobs = [traceroute_job(f"trace-{index}") for index in range(size)]
    monitor = figure2_monitor(corrected=True).encode()
    return Campaign(
        fleet, jobs, max_concurrency=128,
        experiment_restrictions=Restrictions(monitor=monitor),
    )


def bulk_bandwidth(seed: int, size: int) -> Campaign:
    fleet = FleetTestbed(endpoint_count=size, seed=seed, scheduler="heap")
    # lead_time must exceed 100 control round-trips, or the burst
    # degenerates into RPC pacing and measures the control channel.
    jobs = [
        bandwidth_job(f"bw-{index}", packet_count=100, payload_size=1400,
                      lead_time=8.0, settle_time=5.0)
        for index in range(size)
    ]
    return Campaign(fleet, jobs, max_concurrency=25)


def lossy_reuse(seed: int, size: int) -> Campaign:
    fleet = FleetTestbed(endpoint_count=LOSSY_ENDPOINTS, seed=seed,
                         scheduler="heap")
    jobs = [ping_job(f"ping-{index}", count=3)
            for index in range(LOSSY_ENDPOINTS * size)]
    # Faults are spread over the campaign's expected makespan.
    horizon = LOSSY_JOB_SIM_S * size
    plan = FaultPlan(seed=seed + 1)
    for link in fleet.net.links:
        plan.link_impairment(link, corrupt=0.03, duplicate=0.02,
                             reorder=0.05, reorder_delay=0.02)
    access_links = fleet.net.links[-LOSSY_ENDPOINTS:]
    for slot, link in enumerate(access_links[::8]):
        plan.link_outage(link, start=horizon * (0.1 + 0.2 * slot),
                         duration=8.0)
    for slot, endpoint in enumerate(fleet.endpoints[3::8]):
        plan.endpoint_crash(endpoint, at=horizon * (0.15 + 0.2 * slot),
                            downtime=4.0)
    plan.install(fleet.sim)
    return Campaign(fleet, jobs, fault_free=False, max_concurrency=32)


# -- warehouse ------------------------------------------------------------


def _band(endpoint: int) -> float:
    """Lower edge of an endpoint's value band (bands do not overlap)."""
    return 0.010 + endpoint * 0.005


def _endpoint_name(endpoint: int) -> str:
    return f"ep{endpoint:03d}"


class WarehouseRW:
    """Writes beside reads on the storage layer; one closed-loop client.

    Rows are endpoint-partitioned with banded values, so both the
    ``endpoint`` and the ``value`` zone maps can prune. Queries are
    ~100 point-selective (1/16 segments), 10 quarter-range and 2 full
    scans, each with group-by + p99.
    """

    CAMPAIGN = "perf-samples"

    def __init__(self, seed: int, size: int) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="warehouse-", dir=OUT_DIR)
        self.root = os.path.join(self.scratch, "measured")
        rng = Random(seed)
        per_endpoint = size // WAREHOUSE_ENDPOINTS
        self.segment_rows = max(1, size // WAREHOUSE_SEGMENTS)
        self.rows = []
        self.by_endpoint: dict[str, list[float]] = {}
        for endpoint in range(WAREHOUSE_ENDPOINTS):
            name = _endpoint_name(endpoint)
            values = [_band(endpoint) + rng.random() * 0.004
                      for _ in range(per_endpoint)]
            self.by_endpoint[name] = values
            base = endpoint * per_endpoint
            self.rows.extend(
                {"campaign": self.CAMPAIGN, "job": f"job-{endpoint}-{k % 97}",
                 "endpoint": name, "stream": "rtt_s", "seq": base + k,
                 "value": value}
                for k, value in enumerate(values)
            )
        # Each query is its list of predicates: a point query names one
        # endpoint, a range query a quarter of them (by name or by value
        # band), a full scan none.
        points = [[("endpoint", "==",
                    _endpoint_name(rng.randrange(WAREHOUSE_ENDPOINTS)))]
                  for _ in range(100)]
        quarter = WAREHOUSE_ENDPOINTS // 4
        ranges = []
        for index in range(10):
            low = rng.randrange(WAREHOUSE_ENDPOINTS - quarter + 1)
            if index % 2:
                ranges.append([("value", ">=", _band(low)),
                               ("value", "<", _band(low + quarter))])
            else:
                ranges.append([("endpoint", ">=", _endpoint_name(low)),
                               ("endpoint", "<",
                                _endpoint_name(low + quarter))])
        self.queries = points + ranges + [[], []]
        rng.shuffle(self.queries)
        # The campaign report persisted in the timed region is produced
        # here, into a throwaway warehouse, so no simulator runs there.
        endpoints = max(2, size // 2500)
        fleet = FleetTestbed(endpoint_count=endpoints, seed=seed,
                             scheduler="heap")
        self.ping_report = fleet.run_campaign(
            [ping_job(f"ping-{index}", count=3) for index in range(endpoints)],
            campaign_name="perf-ping", max_concurrency=32,
            warehouse=os.path.join(self.scratch, "setup"),
        )

    # Brute-force reference over the generated rows, not the segments.
    def _reference(self, predicates) -> dict[str, list[float]]:
        # Value predicates sit on band edges, so one value of an endpoint
        # decides for all of its rows.
        def keep(name: str, values: list[float]) -> bool:
            for column, op, bound in predicates:
                probe = name if column == "endpoint" else values[0]
                if op == "==" and probe != bound:
                    return False
                if op == ">=" and not probe >= bound:
                    return False
                if op == "<" and not probe < bound:
                    return False
            return True

        return {name: values for name, values in self.by_endpoint.items()
                if keep(name, values)}

    @staticmethod
    def _p99_ok(got: float, values: list[float]) -> bool:
        exact = sorted(values)[max(1, math.ceil(0.99 * len(values))) - 1]
        return exact / SKETCH_GROWTH <= got <= exact * SKETCH_GROWTH

    def _check_query(self, predicates, rows) -> bool:
        expected = self._reference(predicates)
        if [row["endpoint"] for row in rows] != sorted(expected):
            return False
        return all(
            row["n"] == len(expected[row["endpoint"]])
            and self._p99_ok(row["p99"], expected[row["endpoint"]])
            for row in rows
        )

    def _disk_bytes(self, seen: set) -> int:
        """Bytes of files created or rewritten since the last call."""
        fresh = 0
        for directory, _, names in os.walk(self.root):
            for name in names:
                path = os.path.join(directory, name)
                info = os.stat(path)
                key = (path, info.st_size, info.st_mtime_ns)
                if key not in seen:
                    seen.add(key)
                    fresh += info.st_size
        return fresh

    def run(self, spans) -> dict:
        """The timed region: the op sequence of one closed-loop client."""
        warehouse = Warehouse(self.root)
        seen: set = set()
        written = 0
        with spans.span("ingest"):
            writer = warehouse.begin_campaign(
                self.CAMPAIGN, segment_rows=self.segment_rows)
            writer.add_rows("samples", self.rows)
        with spans.span("commit"):
            manifest = writer.commit(close=True)
        fingerprints = [segment.sha256
                        for segment in manifest.tables["samples"]]
        written += self._disk_bytes(seen)
        latencies, results = [], []
        with spans.span("query"):
            for predicates in self.queries:
                query = Query(warehouse, "samples", [self.CAMPAIGN])
                for predicate in predicates:
                    query.where(*predicate)
                query.group_by("endpoint").agg(
                    n="count", p99=("p99", "value"))
                started = time.perf_counter()
                try:
                    results.append(query.run())
                except Exception:  # a raised query is a failed operation
                    results.append(None)
                latencies.append(time.perf_counter() - started)
        with spans.span("rollup"):
            build_rollups(warehouse, self.CAMPAIGN)
        written += self._disk_bytes(seen)
        with spans.span("compact"):
            warehouse.compact(self.CAMPAIGN,
                              segment_rows=4 * self.segment_rows)
        written += self._disk_bytes(seen)
        with spans.span("persist"):
            persist_campaign(warehouse, self.ping_report)
        written += self._disk_bytes(seen)
        return {
            "warehouse": warehouse, "rows_committed":
                manifest.total_rows("samples"),
            "latencies": latencies, "results": results,
            "fingerprints": fingerprints, "written": written,
            "ingest_s": spans.duration("ingest"),
        }

    def outcome(self, raw: dict) -> dict:
        try:
            return self._outcome(raw)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def _outcome(self, raw: dict) -> dict:
        warehouse, results = raw["warehouse"], raw["results"]
        violations = []
        failed = sum(
            1 for predicates, result in zip(self.queries, results)
            if result is None
            or not self._check_query(predicates, result.rows)
        )
        if raw["rows_committed"] != len(self.rows):
            violations.append("ingested row count != generated row count")
        scan = (Query(warehouse, "samples", [self.CAMPAIGN])
                .group_by("stream").agg(p99=("p99", "value")).run())
        rollup = rollup_percentiles(warehouse, self.CAMPAIGN, "rtt_s")
        if scan.rows[0]["p99"] != rollup["p99"]:
            violations.append("rollup p99 != scan p99")
        persisted = (Query(warehouse, "samples", ["perf-ping"])
                     .agg(n="count").run())
        if persisted.rows[0]["n"] != \
                self.ping_report.aggregator.total.sketches["rtt_s"].count:
            violations.append("persisted campaign lost sample rows")
        answered = [r for r in results if r is not None]
        ordered = sorted(raw["latencies"])
        return {
            # Operations: the queries plus ingest, commit, rollup,
            # compact and persist.
            "attempted": len(self.queries) + 5,
            "failed": failed,
            "digest": _sha256(json.dumps(
                [raw["fingerprints"], [r.rows for r in answered]],
                sort_keys=True)),
            "violations": violations,
            "values": {
                "ingest_rows_per_s": len(self.rows) / raw["ingest_s"],
                "query_p50_s": statistics.median(ordered),
                # With >= 110 samples, p90 is the highest percentile that
                # still has ten samples beyond it.
                "query_p90_s": ordered[math.ceil(0.9 * len(ordered)) - 1],
            },
            "counts": {
                "warehouse.bytes_written": raw["written"],
                "warehouse.segments_scanned": sum(
                    r.stats.segments_scanned for r in answered),
                "warehouse.segments_pruned": sum(
                    r.stats.segments_pruned for r in answered),
            },
        }


BUILDERS = {
    "star_ping": star_ping,
    "tree_trace_monitor": tree_trace_monitor,
    "bulk_bandwidth": bulk_bandwidth,
    "lossy_reuse": lossy_reuse,
    "warehouse_rw": WarehouseRW,
}
