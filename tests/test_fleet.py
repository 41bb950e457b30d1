"""Fleet orchestration tests: pool, scheduler, sharding, aggregation.

Covers the campaign path end to end (sharded rendezvous -> endpoint
pool -> scheduler -> aggregate report), plus the satellite concerns:
multi-controller contention between two campaigns sharing an endpoint,
port-allocation collisions with multiple rendezvous servers, and
deferred ``nsend_nowait`` errors surfacing in campaign results.
"""

import gc
import hashlib
import inspect
import json
import math

import pytest
from footprint import bandwidth_census, star_ping_census

import repro.core
import repro.endpoint
import repro.fleet
import repro.netsim
import repro.obs
from repro.controller.client import SessionBudget, SessionClosed
from repro.controller.session import Experimenter
from repro.core.testbed import Testbed
from repro.cpf import figure2_monitor
from repro.crypto.certificate import Restrictions
from repro.experiments.campaign import bandwidth_job, ping_job, traceroute_job
from repro.fleet import (
    CampaignJob,
    CampaignScheduler,
    CounterSet,
    EndpointPool,
    CrossValidation,
    FleetTestbed,
    QuantileSketch,
    TokenBucket,
    shard_for,
)
from repro.netsim.faults import ByzantineAdversary, FaultPlan
from repro.netsim.kernel import Process, Simulator
from repro.netsim.topology import fleet_topology
from repro.util.retry import RetryPolicy


# -- unit pieces --------------------------------------------------------------


class TestQuantileSketch:
    def test_quantiles_and_merge(self):
        a = QuantileSketch()
        b = QuantileSketch()
        for value in range(1, 51):
            a.observe(float(value))
        for value in range(51, 101):
            b.observe(float(value))
        a.merge(b)
        assert a.count == 100
        assert a.min == 1.0 and a.max == 100.0
        # ~5% relative error from the log-bucketing.
        assert a.quantile(0.5) == pytest.approx(50.0, rel=0.11)
        assert a.quantile(0.99) == pytest.approx(99.0, rel=0.11)

    def test_underflow_bucket(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(-1.0)
        sketch.observe(5.0)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.99) == pytest.approx(5.0, rel=0.11)

    def test_infinite_value(self):
        sketch = QuantileSketch()
        for value in (1.0, 2.0, math.inf, 3.0):
            sketch.observe(value)
        # Counted in count, sum and max, but in no bucket: a rank past
        # the last bucket reports max.
        assert sketch.count == 4
        assert sketch.sum == sketch.max == math.inf
        assert sum(sketch.buckets.values()) == 3
        assert sketch.quantile(0.5) == pytest.approx(2.0, rel=0.11)
        assert sketch.quantile(1.0) == math.inf

    def test_counterset_merge(self):
        a = CounterSet()
        b = CounterSet()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y")
        a.merge(b)
        assert a.to_dict() == {"x": 5, "y": 1}


class TestTokenBucket:
    def test_unlimited(self):
        bucket = TokenBucket(None, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(100))

    def test_rate_limits_and_refills(self):
        bucket = TokenBucket(2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        delay = bucket.delay_until_token(0.0)
        assert delay == pytest.approx(0.5, abs=1e-6)
        assert bucket.try_take(delay)

    def test_burst_capacity(self):
        """The bucket holds one token: a long idle spell buys no burst."""
        bucket = TokenBucket(1.0, now=0.0)
        assert sum(bucket.try_take(10.0) for _ in range(5)) == 1

    @pytest.mark.parametrize("rate", [0, -1, float("nan")])
    def test_rate_must_be_positive(self, rate):
        """0 divides by zero, a negative rate never refills, and NaN
        turns every delay into a NaN event time."""
        with pytest.raises(ValueError):
            TokenBucket(rate, 0.0)


class TestSharding:
    def test_shard_for_stable_and_in_range(self):
        channels = [bytes([i]) * 32 for i in range(40)]
        for count in (1, 2, 3, 5):
            indexes = [shard_for(ch, count) for ch in channels]
            assert all(0 <= idx < count for idx in indexes)
            assert indexes == [shard_for(ch, count) for ch in channels]
        assert len({shard_for(ch, 5) for ch in channels}) > 1


class TestFleetTopology:
    @pytest.mark.parametrize("kind", ["star", "tree", "mesh"])
    def test_generates_routable_fleet(self, kind):
        net, endpoints, controller, target = fleet_topology(
            10, kind=kind, fanout=3, seed=1
        )
        assert len(endpoints) == 10
        # Every endpoint can route to controller and target.
        for host in endpoints:
            assert net.path_to(host, controller)[-1] == "controller"
            assert net.path_to(host, target)[-1] == "target"

    def test_access_delays_vary_deterministically(self):
        net1, *_ = fleet_topology(6, seed=9)
        net2, *_ = fleet_topology(6, seed=9)
        delays1 = [link.forward.delay for link in net1.links]
        delays2 = [link.forward.delay for link in net2.links]
        assert delays1 == delays2
        assert len(set(delays1)) > 2  # actually spread out


# -- the campaign path --------------------------------------------------------


def _noop_job(name, endpoint=None, hold=0.0):
    """A trivial campaign job: one read_clock (plus an optional hold)."""

    def run(handle, ctx):
        ticks = yield from handle.read_clock()
        if hold:
            yield hold
            yield from handle.read_clock()
        return ticks

    return CampaignJob(
        name=name, run=run, endpoint=endpoint,
        metrics=lambda ticks: {"counters": {"runs": 1}},
    )


class TestFleetCampaign:
    def test_sharded_campaign_completes(self):
        fleet = FleetTestbed(
            endpoint_count=8, shards=2, operator_count=4, seed=2
        )
        report = fleet.run_campaign(
            [ping_job(f"ping-{i}", count=2) for i in range(8)],
            max_concurrency=8,
        )
        assert report.jobs_completed == 8
        assert report.jobs_failed == 0
        assert report.endpoint_count == 8
        # All 8 endpoints subscribed across the shards and every offer
        # stream merged into one pool.
        assert fleet.rendezvous.experiments_delivered == 8
        agg = report.aggregator.total
        assert agg.counters.get("probes_received") == 16
        assert agg.sketches["rtt_s"].count == 16
        assert len(report.aggregator.per_endpoint) == 8

    def test_same_seed_reports_byte_identical(self):
        def one_run():
            fleet = FleetTestbed(
                endpoint_count=6, shards=2, operator_count=3, seed=5
            )
            return fleet.run_campaign(
                [ping_job(f"ping-{i}", count=2) for i in range(6)],
                max_concurrency=4,
            )

        first, second = one_run(), one_run()
        assert first.to_json() == second.to_json()
        assert first.aggregator.jsonl_lines() == second.aggregator.jsonl_lines()

    def test_concurrency_cap_respected(self):
        fleet = FleetTestbed(endpoint_count=6, seed=1)
        report = fleet.run_campaign(
            [_noop_job(f"job-{i}", hold=1.0) for i in range(6)],
            max_concurrency=2,
        )
        assert report.jobs_completed == 6
        assert report.peak_inflight <= 2

    def test_failure_rescheduling(self):
        """A job that fails twice then succeeds is retried with backoff
        and still completes."""
        testbed = Testbed()
        attempts = []

        def run(handle, ctx):
            attempts.append(ctx.attempt)
            if len(attempts) < 3:
                raise SessionClosed("synthetic fleet fault")
            ticks = yield from handle.read_clock()
            return ticks

        job = CampaignJob(
            name="flaky", run=run,
            metrics=lambda t: {"counters": {"runs": 1}},
        )
        report = testbed.run_campaign(
            [job],
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.1,
                                     jitter=0.0),
        )
        assert attempts == [0, 1, 2]
        assert report.jobs_completed == 1
        assert report.retries == 2
        assert report.jobs_failed == 0

    def test_exhausted_retries_fail_job(self):
        testbed = Testbed()

        def run(handle, ctx):
            raise SessionClosed("always down")
            yield  # pragma: no cover

        report = testbed.run_campaign(
            [CampaignJob(name="doomed", run=run), _noop_job("fine")],
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.05,
                                     jitter=0.0),
        )
        assert report.jobs_failed == 1
        assert report.jobs_completed == 1
        assert report.retries == 2
        assert report.aggregator.total.failures == 1

    def test_pinned_job_to_unknown_endpoint_fails_cleanly(self):
        testbed = Testbed()
        report = testbed.run_campaign(
            [_noop_job("ok"), _noop_job("lost", endpoint="no-such-ep")],
        )
        assert report.jobs_completed == 1
        assert report.jobs_failed == 1
        assert report.unschedulable == ["lost"]

    def test_rate_limited_admission(self):
        """rate=1/s spaces 4 session starts ~1 s apart."""
        testbed = Testbed()
        report = testbed.run_campaign(
            [_noop_job(f"job-{i}") for i in range(4)],
            rate=1.0, max_concurrency=4,
        )
        assert report.jobs_completed == 4
        assert report.makespan >= 2.9  # 3 refill waits at 1 token/s

    def test_deferred_nsend_errors_surface_in_report(self):
        """S2: late nsend_nowait failures land in campaign rollups."""
        from repro.proto.constants import SOCK_UDP, ST_OK

        testbed = Testbed()

        def run(handle, ctx):
            status = yield from handle.nopen(0, SOCK_UDP, locport=0,
                                            remaddr=ctx.target_address,
                                            remport=9)
            assert status == ST_OK
            # Fire-and-forget on a socket that was never opened: the
            # endpoint's failure Result arrives with no waiter.
            handle.nsend_nowait(7, 0, b"into the void")
            yield from handle.nclose(0)
            return True

        report = testbed.run_campaign(
            [CampaignJob(name="leaky", run=run,
                         metrics=lambda r: {"counters": {"runs": 1}})],
        )
        assert report.jobs_completed == 1
        agg = report.aggregator
        assert agg.total.counters.get("deferred_send_errors") == 1
        (endpoint_rollup,) = agg.per_endpoint.values()
        assert endpoint_rollup.counters.get("deferred_send_errors") == 1

    def test_late_failure_on_an_endpoints_last_job_reaches_the_report(self):
        """The failed Result lands after ``quick`` — ep0's only job — has
        completed, so no job completion on ep0 is left to harvest it; the
        end-of-campaign sweep must, with or without misbehavior scoring."""
        fleet = FleetTestbed(endpoint_count=2, seed=1)

        def quick(handle, ctx):
            status = yield from handle.nopen_udp(
                0, remaddr=ctx.target_address, remport=9
            )
            assert status == 0
            handle.nsend_nowait(7, 0, b"x")  # sktid 7 was never opened
            return True

        def slow(handle, ctx):
            yield 5.0
            return (yield from handle.read_clock())

        report = fleet.run_campaign([
            CampaignJob(name="quick", run=quick, endpoint="ep0"),
            CampaignJob(name="slow", run=slow, endpoint="ep1"),
        ])
        assert report.jobs_completed == 2
        agg = report.aggregator
        assert agg.total.counters.get("deferred_send_errors") == 1
        assert agg.per_endpoint["ep0"].counters.get(
            "deferred_send_errors") == 1
        assert agg.per_endpoint["ep1"].counters.get(
            "deferred_send_errors") == 0


# -- one driver, pinned --------------------------------------------------------

# sha256(report.to_json()) of one small seeded campaign per shape the
# campaign driver serves, recorded before the two testbeds' drivers were
# folded into World.run_campaign. A change to the driver, the pool or
# the world assembly that moves any of these changed behaviour.

# Fail over fast: one transport retry, short reacquire, then the job
# moves to another endpoint.
_FAILOVER = dict(
    pool_policy=RetryPolicy(max_attempts=1, base_delay=0.5, jitter=0.1),
    reacquire_timeout=2.0, rpc_timeout=2.0,
)


def _golden_sharded_star():
    fleet = FleetTestbed(endpoint_count=8, shards=2, operator_count=3, seed=3)
    return fleet.run_campaign(
        [ping_job(f"ping-{i}", count=2) for i in range(8)], max_concurrency=4,
    )


def _golden_heartbeat_churn():
    fleet = FleetTestbed(endpoint_count=12, seed=4, heartbeat_interval=1.0)
    FaultPlan(seed=4).install(fleet.sim).endpoint_churn(
        fleet.endpoints, rate_per_min=6.0, start=1.0, duration=60.0,
        downtime=(2.0, 4.0),
    )
    return fleet.run_campaign(
        [ping_job(f"ping-{i}", count=3, interval=0.5) for i in range(24)],
        max_concurrency=6,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.1),
        **_FAILOVER,
    )


def _golden_byzantine():
    fleet = FleetTestbed(endpoint_count=16, seed=7)
    FaultPlan(seed=7).install(fleet.sim).byzantine(fleet.endpoints, count=3)
    jobs = [ping_job(f"ping-{i}", count=2, interval=0.25) for i in range(16)]
    jobs += [ping_job(f"audit-ep{i}", count=2, interval=0.25,
                      endpoint=f"ep{i}") for i in range(16)]
    return fleet.run_campaign(
        jobs, max_concurrency=8,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.1),
        **_FAILOVER,
        session_budget=SessionBudget(), misbehavior=True,
        cross_validate=CrossValidation(fraction=0.25, k=3),
    )


def _golden_single_endpoint_retry():
    attempts = []

    def run(handle, ctx):
        attempts.append(ctx.attempt)
        if len(attempts) < 3:
            raise SessionClosed("synthetic fleet fault")
        return (yield from handle.read_clock())

    flaky = CampaignJob(name="flaky", run=run,
                        metrics=lambda ticks: {"counters": {"runs": 1}})
    return Testbed().run_campaign(
        [flaky, ping_job("ping", count=2)], max_concurrency=4,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0),
    )


# The three below were recorded before the packet path was rewritten
# (folded checksum, copy-free L4 codecs): between them they cover
# 1400-byte segments of odd and even length, ICMP time-exceeded quoting
# under the Figure-2 monitor with raw ncap, and retransmission, duplicate
# and out-of-order handling under link faults and an outage.


def _golden_bandwidth():
    fleet = FleetTestbed(endpoint_count=4, seed=5)
    sizes = (1400, 1399, 1400, 333)
    return fleet.run_campaign(
        [bandwidth_job(f"bw-{i}", packet_count=12, payload_size=size,
                       lead_time=2.0, settle_time=2.0)
         for i, size in enumerate(sizes)],
        max_concurrency=2,
    )


def _golden_traceroute_monitor():
    fleet = FleetTestbed(endpoint_count=6, topology="tree", fanout=2,
                         shards=2, operator_count=2, seed=6)
    monitor = figure2_monitor(corrected=True).encode()
    return fleet.run_campaign(
        [traceroute_job(f"trace-{i}") for i in range(6)], max_concurrency=3,
        experiment_restrictions=Restrictions(monitor=monitor),
    )


def _golden_lossy_reuse():
    fleet = FleetTestbed(endpoint_count=4, seed=8)
    plan = FaultPlan(seed=9)
    for link in fleet.net.links:
        plan.link_impairment(link, corrupt=0.03, duplicate=0.02,
                             reorder=0.05, reorder_delay=0.02)
    plan.link_outage(fleet.net.links[-1], start=3.0, duration=4.0)
    plan.install(fleet.sim)
    return fleet.run_campaign(
        [ping_job(f"ping-{i}", count=3) for i in range(24)],
        max_concurrency=4,
    )


RETIRED_OPTIONS = {
    "populate_count", "populate_timeout", "heartbeat_stale_after",
    "heartbeat_sweep_interval", "warehouse_segment_rows",
    "max_concurrent_per_endpoint", "access_delay_spread", "send_bye",
    "recovery_policy", "endpoint_reconnect_policy",
}

# Settings no caller set, or only tests did, retired into module
# constants or values derived from the world, as (function, parameters)
# pairs: names such as `priority`, `network`, `access_delay` and `start`
# live on in other signatures. The pool takes none of the fields the
# retired MisbehaviorPolicy had.
RETIRED_PARAMETERS = {
    "EndpointConfig.__init__": {
        "max_sockets", "auth_timeout", "reconnect_policy", "reconnect_seed",
        "session_violation_budget", "session_decode_budget"},
    "SessionBudget.__init__": {
        "max_streamed_bytes", "max_violations", "max_decode_errors",
        "max_streamed_records"},
    "EndpointPool.__init__": {
        "quarantine_backoff", "half_life", "weights", "default_weight",
        "quarantine_score", "depart_score"},
    "EndpointPool.report_misbehavior": {"weight"},
    "HeartbeatMonitor.__init__": {"stale_after", "depart_after"},
    "CrossValidation.__init__": {"fingerprint", "audit_pinned"},
    "CampaignContext.__init__": {"extras"},
    "World.run_campaign": {
        "priority", "quarantine_backoff", "burst", "heartbeat_depart_after",
        "warehouse_events"},
    "CampaignScheduler.__init__": {"burst"},
    "TokenBucket.__init__": {"burst"},
    "World.make_controller": {"controller_host"},
    "World.enable_telemetry": {"ring_capacity"},
    "Observability.ensure_ring_sink": {"capacity"},
    "RingBufferSink.__init__": {"capacity"},
    "Testbed.start_rendezvous": {"host"},
    "Testbed.run_experiment": {"priority"},
    "FleetTestbed.__init__": {
        "access_bandwidth_bps", "access_delay", "allow_raw",
        "capture_buffer_bytes", "endpoint_reconnect"},
    "fleet_topology": {
        "access_bandwidth_bps", "access_delay", "access_delay_spread",
        "core_delay", "core_bandwidth_bps", "network"},
    "access_topology": {"core_bandwidth_bps", "network"},
    "linear_topology": {"network"},
    "Network.__init__": {"sim"},
    "FaultPlan.link_impairment": {"duration"},
    "FaultPlan.byzantine": {"start", "tuning"},
    "ByzantineAdversary.__init__": {
        "start", "flood_interval", "flood_records", "fabricate_records",
        "desequence_interval", "stall_prob", "flood_record_bytes"},
}


def _public_functions(package):
    """Every public function, method and constructor a package exports."""
    for name in package.__all__:
        member = getattr(package, name)
        if inspect.isfunction(member):
            yield name, member
        elif inspect.isclass(member):
            for attr, function in inspect.getmembers(
                    member, inspect.isfunction):
                if not attr.startswith("_") or attr == "__init__":
                    yield f"{name}.{attr}", function


class TestOneCampaignDriver:
    @pytest.mark.parametrize("campaign, digest", [
        (_golden_sharded_star,
         "ecb060a4a55b2967bc147a9891f23070e45fe07706d7e1e0943f46f906a627e8"),
        (_golden_heartbeat_churn,
         "d1c8d9d5425f62325fd8fc4f16049c756a05a9f07cb0902bf870ad98ba29c9bf"),
        (_golden_byzantine,
         "4ff6fbb7a24aa4a9cf548351259d8d1183e78c0fd0fc02995554ee1a3ba18d44"),
        (_golden_single_endpoint_retry,
         "2800f7c9026dcd55ef33ff1b68095df01a5e06d1cd6b9f975dce7639eb8736d2"),
        (_golden_bandwidth,
         "704b4a38bc08e74a95f2539865f66dfadcd6dbd3d0cac4786fbbe47feaa01346"),
        (_golden_traceroute_monitor,
         "c720bf773f6de30435562835518d2108445bc67486b9c17c8db6c2f58f04f40f"),
        (_golden_lossy_reuse,
         "1435d1e6e083e2f293a03243fcccd7da0ebf0c20cc7c96a67b74955bde958ec4"),
    ], ids=["sharded-star", "heartbeat-churn", "byzantine", "single-retry",
            "bandwidth", "traceroute-monitor", "lossy-reuse"])
    def test_golden_report_digests(self, campaign, digest):
        report = campaign()
        assert hashlib.sha256(
            report.to_json().encode()).hexdigest() == digest

    def test_lossy_reuse_takes_no_reply_older_than_its_probe(self):
        """A reused session can hold an earlier job's echo reply for the
        same seq; taking it gave ep2 an RTT of -0.806 s."""
        values = json.loads(_golden_lossy_reuse().to_json())[
            "results"]["aggregate"]["values"]
        assert values["rtt_s"]["min"] >= 0

    def test_testbeds_share_the_driver_and_retired_options_stay_gone(self):
        assert Testbed.run_campaign is FleetTestbed.run_campaign
        # <= 15 campaign parameters, plus self.
        assert len(inspect.signature(Testbed.run_campaign).parameters) <= 16
        # Misbehavior scoring is a bool now; its policy object is gone.
        assert not hasattr(repro.fleet, "MisbehaviorPolicy")
        assert not hasattr(repro.fleet.pool, "MisbehaviorPolicy")
        # Not exported by their packages, so named here.
        functions = {
            function.__qualname__: function
            for function in (SessionBudget.__init__,
                             ByzantineAdversary.__init__)
        }
        for package in (repro.core, repro.fleet, repro.endpoint,
                        repro.netsim, repro.obs):
            for name, function in _public_functions(package):
                parameters = set(inspect.signature(function).parameters)
                assert not parameters & RETIRED_OPTIONS, name
                functions[function.__qualname__] = function
        for qualname, retired in RETIRED_PARAMETERS.items():
            parameters = set(inspect.signature(functions[qualname]).parameters)
            assert not parameters & retired, qualname
        config = inspect.signature(repro.endpoint.Endpoint).parameters["config"]
        assert config.default is inspect.Parameter.empty
        # One event queue: only the ledger-pinned spelling is accepted.
        assert "scheduler" not in inspect.signature(Simulator).parameters
        FleetTestbed(endpoint_count=1, scheduler="heap")
        with pytest.raises(ValueError, match="scheduler"):
            FleetTestbed(endpoint_count=1, scheduler="calendar")

    def test_single_endpoint_campaign_persists_to_a_warehouse(self, tmp_path):
        from repro.warehouse import Query, Warehouse

        report = Testbed().run_campaign(
            [ping_job(f"ping-{i}", count=2) for i in range(3)],
            campaign_name="solo", warehouse=tmp_path,
        )
        assert report.jobs_completed == report.jobs_total == 3
        rows = (Query(Warehouse(str(tmp_path)), "results", ["solo"])
                .agg(n="count").run().rows)
        assert rows[0]["n"] == report.jobs_total


class TestCampaignContention:
    def test_two_campaigns_share_endpoint_via_arbitration(self):
        """S4: two campaigns on one endpoint — the higher-priority
        campaign preempts, the lower one resumes and still finishes."""
        testbed = Testbed()
        urgent = Experimenter("urgent-team")
        urgent.granted_endpoint_access(testbed.operator)
        low_server, low_desc = testbed.make_controller(
            "bg-campaign", priority=1
        )
        high_server, high_desc = testbed.make_controller(
            "urgent-campaign", priority=5, experimenter=urgent
        )
        low_pool = EndpointPool(low_server, seed=1)
        high_pool = EndpointPool(high_server, seed=2)
        low_sched = CampaignScheduler(
            low_pool, [_noop_job("bg-0", hold=6.0)], name="bg",
        )
        high_sched = CampaignScheduler(
            high_pool, [_noop_job("urgent-0", hold=3.0)], name="urgent",
        )

        def low_driver():
            yield from low_pool.populate(1)
            report = yield from low_sched.run()
            low_pool.shutdown()
            return report

        def high_driver():
            yield 2.0  # arrive while the background campaign holds it
            testbed.connect_endpoint(high_desc)
            yield from high_pool.populate(1)
            report = yield from high_sched.run()
            high_pool.shutdown()  # bye releases the endpoint to bg
            return report

        testbed.connect_endpoint(low_desc)
        low_proc = testbed.sim.spawn(low_driver(), name="bg-campaign")
        high_proc = testbed.sim.spawn(high_driver(), name="urgent-campaign")
        testbed.sim.run(until=300.0)

        assert not low_proc.alive and low_proc.error is None, low_proc.error
        assert not high_proc.alive and high_proc.error is None, high_proc.error
        assert low_proc.result.jobs_completed == 1
        assert high_proc.result.jobs_completed == 1
        # The endpoint's arbitration actually engaged.
        assert testbed.endpoint.contention.preemptions >= 1
        assert testbed.endpoint.contention.resumptions >= 1
        # The background campaign was held across the urgent one.
        assert low_proc.result.finished >= high_proc.result.finished


class TestPortAllocation:
    def test_allocator_skips_rendezvous_ports(self):
        """S3: many controllers + rendezvous servers never collide."""
        testbed = Testbed()
        rdz1 = testbed.start_rendezvous()
        rdz2 = testbed.start_rendezvous(port=None)
        assert rdz1.port != rdz2.port
        ports = [testbed.allocate_port() for _ in range(150)]
        assert len(set(ports)) == 150
        assert rdz1.port not in ports
        assert rdz2.port not in ports
        assert testbed.rendezvous_servers == [rdz1, rdz2]

    def test_duplicate_rendezvous_port_rejected(self):
        testbed = Testbed()
        testbed.start_rendezvous()
        with pytest.raises(RuntimeError):
            testbed.start_rendezvous()  # same default port

    @pytest.mark.parametrize("make_testbed", [
        Testbed, lambda: FleetTestbed(endpoint_count=2),
    ], ids=["Testbed", "FleetTestbed"])
    def test_explicit_controller_port_reserved(self, make_testbed):
        testbed = make_testbed()
        server, _ = testbed.make_controller(port=7010)
        try:
            ports = [testbed.allocate_port() for _ in range(50)]
            assert 7010 not in ports
        finally:
            server.stop()


# -- what a finished campaign leaves running ----------------------------------


def _finished_star_campaign(count: int = 20) -> FleetTestbed:
    fleet = FleetTestbed(endpoint_count=count, topology="star")
    report = fleet.run_campaign(
        [ping_job(f"ping-{i}", count=2) for i in range(count)],
        max_concurrency=count,
    )
    assert report.jobs_completed == count
    return fleet


def _live_processes(fleet: FleetTestbed) -> list[str]:
    gc.collect()
    return sorted(
        obj.name for obj in gc.get_objects()
        if isinstance(obj, Process) and obj.alive and obj._sim is fleet.sim
    )


class TestProcessCensus:
    def test_no_writer_process_outlives_a_campaign(self):
        """Processes run experiments and nothing else. Control frames go
        straight into TCP; every control-plane consumer has frames pushed
        to it; the endpoint's dials, subscription and heartbeat, both
        accept loops, the pool's router and the heartbeat monitor are
        continuations. So once the campaign driver and its job workers
        finish, no process is left alive."""
        fleet = _finished_star_campaign(20)
        assert _live_processes(fleet) == []

    def test_no_sink_outlives_a_bandwidth_campaign(self):
        """A bandwidth job's UDP sink runs in no process and lives as long
        as its job: a finished campaign leaves no process alive and no
        UDP port bound on the controller host."""
        fleet = FleetTestbed(endpoint_count=4, topology="star")
        report = fleet.run_campaign(
            [bandwidth_job(f"bw-{i}") for i in range(6)], max_concurrency=2,
        )
        assert report.jobs_completed == 6
        assert _live_processes(fleet) == []
        assert sorted(fleet.controller_host.udp._sockets) == []


class TestDroppedWorld:
    def test_collecting_a_dropped_world_schedules_nothing(self):
        """A finished world dropped without closing runs no simulated code
        when the collector frees it: no suspended generator's ``finally``
        closes a connection or fires an event on the dead simulator."""
        fleet = _finished_star_campaign()
        scheduled = []
        schedule_at = Simulator.schedule_at

        def counted(sim, time, callback, *args):
            scheduled.append(getattr(callback, "__qualname__", callback))
            return schedule_at(sim, time, callback, *args)

        Simulator.schedule_at = counted
        try:
            del fleet
            for _ in range(10):  # until a pass finds nothing
                if not gc.collect():
                    break
        finally:
            Simulator.schedule_at = schedule_at
        assert scheduled == []


class TestFootprint:
    """What a finished campaign leaves per endpoint (``tests/footprint.py``
    prints the whole census)."""

    # A finished send, a closed raw socket and their closures: each is
    # made per job, so a cycle among them grows with the campaign.
    PER_JOB = (
        "repro.endpoint.sendqueue.ScheduledSend",
        "repro.netsim.kernel.Timer",
        "repro.endpoint.netio.RawEndpointSocket",
        "repro.filtervm.vm.FilterVM",
        "cell",
    )
    # One of each per endpoint, which the pool's shutdown frees.
    PER_ENDPOINT = (
        "repro.fleet.pool.PooledEndpoint",
        "repro.controller.recovery.ResilientHandle",
    )

    def test_jobs_are_freed_without_the_collector(self):
        """With the collector off during the run, nothing a job or the
        endpoint pool made waits for a collector pass, and the world
        keeps at most 160 tracked objects per endpoint."""
        census = star_ping_census(20)
        left = {name: census.garbage[name]
                for name in self.PER_JOB + self.PER_ENDPOINT
                if census.garbage[name]}
        assert left == {}
        assert census.tracked_per_endpoint <= 160

    def test_a_finished_bandwidth_job_leaves_nothing(self):
        """Memory scales with a campaign's concurrency, not its job count:
        once the world is quiet, six bandwidth jobs leave it holding
        exactly what two leave, so no sink, socket or arrival list of a
        finished job is still reached."""
        assert bandwidth_census(6) == bandwidth_census(2)
