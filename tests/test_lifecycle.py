"""Endpoint lifecycle tests: heartbeats, churn tolerance, rebalancing.

The fleet-side lifecycle machinery under test:

- ``EndpointPool.populate()`` disarms its population event/target on
  every exit path (a timeout used to leave both armed, poisoning the
  next populate call);
- quarantine is a backoff-readmission state machine, not a permanent
  exile, and every pool move is one row of a transition table (checked
  against a model in ``TestPoolModel``);
- jobs that crash mid-flight are retried on an *alternate* endpoint
  (retry-on-alternate, not spin-on-dead);
- pinned jobs whose endpoint departed fail fast with a distinguishable
  ``ENDPOINT_DEPARTED`` error instead of burning retry budget;
- the heartbeat monitor drains stale endpoints, undrains fresh ones,
  and removes the long-silent — all visible in telemetry;
- a same-seed churn campaign is byte-identical across the heap and
  calendar event-scheduler engines (the determinism contract survives
  the whole lifecycle layer).
"""

import hashlib
import json
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.client import SessionBudget, SessionClosed
from repro.core.testbed import Testbed
from repro.experiments.campaign import ping_job
from repro.fleet import (
    CampaignJob,
    CampaignScheduler,
    EndpointPool,
    FleetTestbed,
    PoolError,
)
from repro.fleet.pool import (
    ACTIVE,
    DEFAULT_QUARANTINE_BACKOFF,
    DEPART_SCORE,
    DEPARTED,
    DRAINING,
    MISBEHAVIOR_WEIGHTS,
    QUARANTINE_SCORE,
    QUARANTINED,
    SCORE_HALF_LIFE,
    TRANSITIONS,
)
from repro.netsim.faults import FaultPlan
from repro.netsim.kernel import Simulator
from repro.util.retry import RetryPolicy


def _backoff_rng(pool):
    """A copy of the pool's seeded backoff RNG: it draws the jitter of
    the pool's next readmission penalties."""
    rng = Random()
    rng.setstate(pool._rng.getstate())
    return rng


def _noop_job(name, endpoint=None, hold=0.0):
    """One read_clock, an optional hold, then another read_clock."""

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


# -- populate() state reset ---------------------------------------------------


class TestPopulateReset:
    def test_timeout_disarms_population_state(self):
        """A timed-out populate() must not poison the next call."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller("pop")
        pool = EndpointPool(server, seed=0)

        def driver():
            timed_out = False
            try:
                yield from pool.populate(1, timeout=0.5)
            except PoolError:
                timed_out = True
            assert timed_out
            # Both armed fields reset on the error path.
            assert pool._population_event is None
            assert pool._population_target == 0
            # A second populate starts clean and succeeds once the
            # endpoint actually joins.
            testbed.connect_endpoint(descriptor)
            count = yield from pool.populate(1, timeout=30.0)
            assert pool._population_event is None
            assert pool._population_target == 0
            return count

        proc = testbed.sim.spawn(driver(), name="driver")
        testbed.sim.run(until=120.0)
        assert not proc.alive and proc.error is None, proc.error
        assert proc.result == 1
        pool.shutdown()
        server.stop()

    def test_shard_restart_during_populate(self):
        """A rendezvous shard restarting mid-populate delays, not kills,
        the campaign: endpoints resubscribe and the pool fills."""
        fleet = FleetTestbed(endpoint_count=4, shards=1, seed=7)
        plan = FaultPlan(seed=1).install(fleet.sim)
        plan.rendezvous_restart(
            fleet.rendezvous.servers[0], at=0.5, downtime=1.0
        )
        report = fleet.run_campaign(
            [_noop_job(f"job-{i}") for i in range(4)],
            max_concurrency=4,
        )
        assert report.jobs_completed == 4
        assert report.jobs_failed == 0


# -- quarantine backoff readmission -------------------------------------------


class TestQuarantineReadmission:
    def test_quarantined_endpoint_is_readmitted_after_backoff(self):
        """quarantine_after=1 on a 1-endpoint pool: the old permanent
        quarantine stranded the retry forever; now the backoff timer
        readmits and the retry completes."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller("quarantine")
        pool = EndpointPool(server, seed=4, quarantine_after=1)
        penalty = DEFAULT_QUARANTINE_BACKOFF.delay_for(0, _backoff_rng(pool))
        attempts = []

        def run(handle, ctx):
            attempts.append(testbed.sim.now)
            if len(attempts) == 1:
                raise SessionClosed("synthetic first-attempt fault")
            ticks = yield from handle.read_clock()
            return ticks

        job = CampaignJob(
            name="comeback", run=run,
            metrics=lambda t: {"counters": {"runs": 1}},
        )
        scheduler = CampaignScheduler(
            pool, [job], name="quarantine",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05,
                                     jitter=0.0),
            seed=4,
        )

        def driver():
            yield from pool.populate(1)
            report = yield from scheduler.run()
            return report

        testbed.connect_endpoint(descriptor)
        proc = testbed.sim.spawn(driver(), name="campaign")
        testbed.sim.run(until=120.0)
        assert not proc.alive and proc.error is None, proc.error
        report = proc.result
        assert report.jobs_completed == 1
        assert report.jobs_failed == 0
        assert report.retries == 1
        # The retry had to wait out the readmission penalty.
        assert attempts[1] - attempts[0] >= penalty - 1e-9
        (pooled,) = pool.endpoints.values()
        assert pooled.quarantines == 1
        assert pooled.state == "active"
        assert pooled.failures == 0  # reset on readmission
        # Readmission gave the slot back: the endpoint takes work again.
        assert pooled.available
        assert pool.has_available()
        assert pool.can_ever_run(None)
        pool.shutdown()
        server.stop()

    def test_relapse_backs_off_harder(self):
        """Each quarantine doubles the readmission delay."""
        testbed = Testbed()
        server, descriptor = testbed.make_controller("relapse")
        pool = EndpointPool(server, seed=4, quarantine_after=1)
        rng = _backoff_rng(pool)
        penalties = [DEFAULT_QUARANTINE_BACKOFF.delay_for(quarantine, rng)
                     for quarantine in range(2)]
        failures_wanted = 2
        attempts = []

        def run(handle, ctx):
            attempts.append(testbed.sim.now)
            if len(attempts) <= failures_wanted:
                raise SessionClosed("synthetic relapse")
            ticks = yield from handle.read_clock()
            return ticks

        job = CampaignJob(name="relapser", run=run)
        scheduler = CampaignScheduler(
            pool, [job], name="relapse",
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.05,
                                     jitter=0.0),
            seed=4,
        )

        def driver():
            yield from pool.populate(1)
            return (yield from scheduler.run())

        testbed.connect_endpoint(descriptor)
        proc = testbed.sim.spawn(driver(), name="campaign")
        testbed.sim.run(until=300.0)
        assert not proc.alive and proc.error is None, proc.error
        assert proc.result.jobs_completed == 1
        (pooled,) = pool.endpoints.values()
        assert pooled.quarantines == 2
        # The second penalty is about twice the first (exponential
        # schedule). The gaps are differences of absolute sim times, so
        # allow for rounding.
        assert penalties[1] > 1.5 * penalties[0]
        for quarantine in range(2):
            gap = attempts[quarantine + 1] - attempts[quarantine]
            assert gap >= penalties[quarantine] - 1e-9
        pool.shutdown()
        server.stop()


# -- crash mid-job: retry on an alternate endpoint ----------------------------


class TestRetryOnAlternate:
    def test_crashed_endpoint_job_retries_elsewhere(self):
        """An endpoint dying mid-job (and never returning) costs one
        retry; the retry lands on a different endpoint and succeeds."""
        fleet = FleetTestbed(endpoint_count=3, seed=3)
        plan = FaultPlan(seed=1).install(fleet.sim)
        plan.endpoint_crash(fleet.endpoints[0], at=3.0)  # ep0, no return
        report = fleet.run_campaign(
            [_noop_job("migrant", hold=5.0)],
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1,
                                     jitter=0.0),
            pool_policy=RetryPolicy(max_attempts=1, base_delay=0.1,
                                    jitter=0.0),
            rpc_timeout=1.0,
        )
        assert report.jobs_completed == 1
        assert report.jobs_failed == 0
        assert report.retries == 1
        # Name-ordered dispatch put the first attempt on ep0; the retry
        # was steered to an alternate.
        success = [
            name for name, rollup in report.aggregator.per_endpoint.items()
            if rollup.counters.get("runs")
        ]
        assert success == ["ep1"]
        # The handle gave up on ep0 and the pool dropped it.
        assert report.endpoint_count == 2


# -- pinned jobs and departed endpoints ---------------------------------------


class TestDepartedEndpoints:
    def test_pinned_jobs_fail_fast_with_departed_error(self):
        """Both fail-fast paths: a pinned job in flight when its
        endpoint departs, and a pinned job still queued behind it."""
        fleet = FleetTestbed(endpoint_count=2, seed=6,
                             heartbeat_interval=0.5)
        plan = FaultPlan(seed=2).install(fleet.sim)
        plan.endpoint_crash(fleet.endpoints[1], at=1.0)  # ep1 never returns
        inflight = _noop_job("inflight", endpoint="ep1", hold=3.0)
        queued = _noop_job("queued", endpoint="ep1")
        healthy = _noop_job("healthy")
        report = fleet.run_campaign(
            [inflight, queued, healthy],
            max_concurrency=3,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1,
                                     jitter=0.0),
            pool_policy=RetryPolicy(max_attempts=1, base_delay=0.1,
                                    jitter=0.0),
            rpc_timeout=1.0,
            timeout=600.0,
        )
        assert report.jobs_completed == 1  # the unpinned job, on ep0
        assert report.jobs_failed == 2
        assert inflight.error is not None
        assert inflight.error.startswith("ENDPOINT_DEPARTED: ep1")
        assert queued.error == "ENDPOINT_DEPARTED: ep1"
        assert "queued" in report.unschedulable
        # Fail-fast, not retry-burn: no retries were spent on the pin
        # once the endpoint was known gone, and the campaign finished
        # far inside its timeout.
        assert report.retries == 0
        assert report.makespan < 120.0


# -- heartbeat monitor: drain, undrain, remove --------------------------------


class TestHeartbeatMonitor:
    def test_silent_endpoint_is_drained_then_removed(self):
        fleet = FleetTestbed(endpoint_count=3, seed=2,
                             heartbeat_interval=0.5)
        fleet.enable_telemetry()
        plan = FaultPlan(seed=3).install(fleet.sim)
        plan.endpoint_crash(fleet.endpoints[2], at=1.0)  # silent forever
        report = fleet.run_campaign(
            [_noop_job(f"job-{i}", hold=8.0) for i in range(2)],
            max_concurrency=2,
        )
        assert report.jobs_completed == 2
        # ep2 left the pool without any RPC ever timing out on it.
        assert report.endpoint_count == 2
        snapshot = fleet.sim.obs.telemetry_snapshot()
        assert snapshot.counter_total("endpoint.heartbeats_sent") > 0
        assert snapshot.counter_total("fleet.heartbeats") > 0
        assert snapshot.counter_total("fleet.heartbeat_sweeps") > 0
        assert snapshot.counter_total("fleet.endpoints_drained") >= 1
        assert snapshot.counter_total("fleet.endpoints_removed") >= 1

    def test_churning_endpoint_is_undrained_on_return(self):
        """A short outage drains the endpoint; resumed beacons undrain
        it (counted as a readmission) instead of removing it."""
        fleet = FleetTestbed(endpoint_count=2, seed=8,
                             heartbeat_interval=0.5)
        fleet.enable_telemetry()
        plan = FaultPlan(seed=4).install(fleet.sim)
        plan.endpoint_crash(fleet.endpoints[1], at=1.0, downtime=2.5)
        # The 2.5 s outage is 5 beats: past the 3 that drain, short of
        # the 10 that remove.
        report = fleet.run_campaign(
            [_noop_job(f"job-{i}", hold=10.0) for i in range(2)],
            max_concurrency=2,
            rpc_timeout=2.0,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.1,
                                     jitter=0.0),
        )
        assert report.jobs_completed == 2
        assert report.endpoint_count == 2  # nobody removed
        snapshot = fleet.sim.obs.telemetry_snapshot()
        assert snapshot.counter_total("fleet.endpoints_drained") >= 1
        assert snapshot.counter_total("fleet.readmissions") >= 1
        assert snapshot.counter_total("fleet.endpoints_removed") == 0


# -- Poisson churn generator --------------------------------------------------


class TestEndpointChurn:
    def test_schedule_is_seed_deterministic(self):
        fleet = FleetTestbed(endpoint_count=4, seed=1)

        def schedule(seed):
            plan = FaultPlan(seed=seed)
            plan.endpoint_churn(fleet.endpoints, rate_per_min=30.0,
                                duration=20.0, downtime=(1.0, 3.0))
            return [(at, ep.config.name, down)
                    for at, ep, down in plan.churn_events]

        first, second = schedule(9), schedule(9)
        assert first == second
        assert len(first) > 0
        assert schedule(10) != first
        for at, _, down in first:
            assert 0.0 <= at < 20.0
            assert 1.0 <= down <= 3.0

    def test_permanent_fraction_and_validation(self):
        fleet = FleetTestbed(endpoint_count=3, seed=1)
        plan = FaultPlan(seed=2)
        plan.endpoint_churn(fleet.endpoints, rate_per_min=60.0,
                            duration=10.0, permanent_fraction=1.0)
        assert plan.churn_events
        assert all(down is None for _, _, down in plan.churn_events)
        with pytest.raises(ValueError):
            plan.endpoint_churn([], rate_per_min=1.0)
        with pytest.raises(ValueError):
            plan.endpoint_churn(fleet.endpoints, rate_per_min=-1.0)
        with pytest.raises(ValueError):
            plan.endpoint_churn(fleet.endpoints, downtime=(3.0, 1.0))
        with pytest.raises(ValueError):
            plan.endpoint_churn(fleet.endpoints, permanent_fraction=2.0)


# -- determinism under churn --------------------------------------------------


class TestChurnDeterminism:
    def _run(self):
        fleet = FleetTestbed(endpoint_count=8, seed=11,
                             heartbeat_interval=0.5)
        plan = FaultPlan(seed=5).install(fleet.sim)
        plan.endpoint_churn(fleet.endpoints, rate_per_min=6.0,
                            duration=12.0, downtime=(0.5, 2.0))
        return fleet.run_campaign(
            [ping_job(f"ping-{i}", count=2) for i in range(16)],
            max_concurrency=6,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.2,
                                     jitter=0.0),
            rpc_timeout=2.0,
            timeout=1200.0,
        )

    def test_same_seed_reruns_byte_identical(self):
        """Same seed, same churn, run twice: the full lifecycle layer
        (heartbeats, drains, readmissions, retries-on-alternate) must
        not perturb the determinism contract."""
        first = self._run()
        second = self._run()
        assert first.jobs_total == 16
        assert (first.jobs_completed + first.jobs_failed) == 16
        assert first.to_json() == second.to_json()


# -- telemetry golden: every pool move, pinned --------------------------------

# sha256 of the telemetry JSONL (metrics, then ring-sink events, each line
# as export_jsonl writes it) of one campaign that drives every pool move:
# adopt, quarantine (job failures and misbehavior), readmit, drain,
# undrain, removal from ACTIVE, DRAINING and QUARANTINED, and a banned
# re-dial. Recorded before the pool's moves became one transition table;
# a change to a lifecycle metric, event, field or call order moves it.
TELEMETRY_GOLDEN = (
    "3356403816ac93a22db7285bd0529b6b7fd54a9aebaac784283c84d34c9e7f77"
)


def _telemetry_golden_campaign():
    fleet = FleetTestbed(endpoint_count=10, seed=29, heartbeat_interval=1.0)
    fleet.enable_telemetry()
    plan = FaultPlan(seed=29).install(fleet.sim)
    plan.endpoint_churn(fleet.endpoints, rate_per_min=4.0, start=1.0,
                        duration=40.0, downtime=(2.0, 5.0))
    plan.endpoint_crash(fleet.endpoints[-1], at=2.0)  # never returns
    plan.byzantine(fleet.endpoints[:-1], count=2)
    fleet.run_campaign(
        [ping_job(f"ping-{i}", count=3, interval=0.5) for i in range(30)],
        max_concurrency=5,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.1),
        pool_policy=RetryPolicy(max_attempts=1, base_delay=0.5, jitter=0.1),
        reacquire_timeout=2.0,
        rpc_timeout=2.0,
        quarantine_after=2,
        session_budget=SessionBudget(),
        misbehavior=True,
    )
    return fleet.telemetry_snapshot()


class TestTelemetryGolden:
    def test_every_pool_move_fires_and_the_stream_is_pinned(self):
        snapshot = _telemetry_golden_campaign()
        for counter in (
            "fleet.endpoints_adopted", "fleet.endpoints_quarantined",
            "fleet.readmissions", "fleet.endpoints_drained",
            "fleet.endpoints_removed", "fleet.banned_rejected",
        ):
            assert snapshot.counter_total(counter) > 0, counter
        removed = [event for event in snapshot.events
                   if event.name == "endpoint-removed"]
        assert {event.fields["reason"] for event in removed} == {
            "heartbeat-departed", "handle-gone", "chronic-misbehavior",
        }
        assert {event.fields["state"] for event in removed} == {
            ACTIVE, DRAINING, QUARANTINED,
        }
        # filtervm.verify_wall_s times the verifier in wall-clock seconds;
        # everything else is a function of the seed.
        lines = [line for line in snapshot.to_jsonl_lines()
                 if line.get("name") != "filtervm.verify_wall_s"]
        stream = "".join(json.dumps(line, separators=(",", ":")) + "\n"
                         for line in lines)
        assert hashlib.sha256(stream.encode()).hexdigest() == \
            TELEMETRY_GOLDEN


# -- the transition table against a model -------------------------------------

NAMES = ("ep0", "ep1", "ep2")
QUARANTINE_AFTER = 2


class _Session:
    """What adoption reads of an accepted EndpointHandle."""

    def __init__(self, sim, name):
        self.sim = sim
        self.endpoint_name = name

    def bye(self):
        pass


def _stub_pool():
    """An EndpointPool on a bare simulator: no network, no router."""
    server = SimpleNamespace(node=SimpleNamespace(sim=Simulator()))
    return EndpointPool(server, seed=3, quarantine_after=QUARANTINE_AFTER,
                        misbehavior=True)


class _Slot:
    """The model of one adopted endpoint."""

    def __init__(self):
        self.state = ACTIVE
        self.inflight = 0
        self.failures = 0
        self.quarantines = 0
        self.score = 0.0
        self.score_at = 0.0
        self.readmit_at = None


class PoolModel:
    """A dict of slots that every pool operation is checked against."""

    def __init__(self):
        self.pool = _stub_pool()
        self.sim = self.pool.sim
        # Quarantines draw their jitter in the order they happen, from
        # the pool's seeded RNG; this copy draws the same sequence.
        self.backoff_rng = _backoff_rng(self.pool)
        self.live = {}  # name -> _Slot, what the pool should hold
        self.banned = set()
        self.held = []  # (PooledEndpoint, _Slot) per acquired job slot
        # on_change fires for every move but quarantine.
        self.pokes = self.expected_pokes = 0
        self.pool.on_change = self._poked

    def _poked(self):
        self.pokes += 1

    def _quarantine(self, slot):
        slot.quarantines += 1
        slot.state = QUARANTINED
        slot.readmit_at = self.sim.now + DEFAULT_QUARANTINE_BACKOFF.delay_for(
            slot.quarantines - 1, self.backoff_rng)

    def _remove(self, name):
        self.live.pop(name).state = DEPARTED
        self.expected_pokes += 1

    def adopt(self, name):
        self.pool._adopt(_Session(self.sim, name))
        if name not in self.banned and name not in self.live:
            self.live[name] = _Slot()
            self.expected_pokes += 1

    def acquire(self, pinned):
        free = [name for name, slot in sorted(self.live.items())
                if slot.state == ACTIVE and slot.inflight == 0]
        if pinned is not None:
            free = [name for name in free if name == pinned]
        pooled = self.pool.acquire(pinned)
        assert (pooled and pooled.name) == (free[0] if free else None)
        if pooled is not None:
            slot = self.live[pooled.name]
            slot.inflight += 1
            self.held.append((pooled, slot))

    def release(self, index, failed):
        if not self.held:
            return
        pooled, slot = self.held.pop(index % len(self.held))
        self.pool.release(pooled, failed=failed)
        slot.inflight -= 1
        if failed:
            slot.failures += 1
            if slot.failures >= QUARANTINE_AFTER and slot.state == ACTIVE:
                self._quarantine(slot)

    def job(self, pinned, failed):
        """One whole job: acquire, then release at once."""
        held = len(self.held)
        self.acquire(pinned)
        if len(self.held) > held:
            self.release(held, failed)

    def drain(self, name):
        slot = self.live.get(name)
        allowed = slot is not None and slot.state == ACTIVE
        assert self.pool.drain(name) is allowed
        if allowed:
            slot.state = DRAINING
            self.expected_pokes += 1

    def undrain(self, name):
        slot = self.live.get(name)
        allowed = slot is not None and slot.state == DRAINING
        assert self.pool.undrain(name) is allowed
        if allowed:
            slot.state = ACTIVE
            self.expected_pokes += 1

    def remove(self, name):
        allowed = name in self.live
        assert self.pool.remove(name) is allowed
        if allowed:
            self._remove(name)

    def misbehave(self, name, kind, count):
        score = self.pool.report_misbehavior(name, kind, count=count)
        slot = self.live.get(name)
        if slot is None:
            assert score == 0.0
            return
        # The score halves every SCORE_HALF_LIFE seconds since the last
        # offence, then takes the new one at its kind's weight.
        elapsed = self.sim.now - slot.score_at
        if slot.score > 0.0 and elapsed > 0.0:
            slot.score *= 0.5 ** (elapsed / SCORE_HALF_LIFE)
        slot.score_at = self.sim.now
        slot.score += MISBEHAVIOR_WEIGHTS[kind] * count
        assert score == slot.score
        if slot.score >= DEPART_SCORE:
            self.banned.add(name)
            self._remove(name)
        elif slot.score >= QUARANTINE_SCORE and slot.state == ACTIVE:
            self._quarantine(slot)

    def run(self, seconds):
        until = self.sim.now + seconds
        self.sim.run(until=until)
        for slot in self.live.values():
            if slot.state == QUARANTINED and slot.readmit_at <= until:
                slot.state, slot.failures = ACTIVE, 0
                self.expected_pokes += 1

    def check(self):
        pool = self.pool
        assert {
            name: (pooled.state, pooled.inflight, pooled.failures,
                   pooled.quarantines)
            for name, pooled in pool.endpoints.items()
        } == {
            name: (slot.state, slot.inflight, slot.failures, slot.quarantines)
            for name, slot in self.live.items()
        }
        assert pool.can_ever_run(None) == bool(self.live)
        assert pool.has_available() == any(
            slot.state == ACTIVE and slot.inflight == 0
            for slot in self.live.values())
        assert pool.banned == self.banned
        assert self.pokes == self.expected_pokes
        for pooled in pool.endpoints.values():
            state = pooled.state
            for to in (ACTIVE, DRAINING, QUARANTINED, DEPARTED):
                if (state, to) not in TRANSITIONS:
                    with pytest.raises(PoolError):
                        pool._transition(pooled, to)
                    assert pooled.state == state


_NAME = st.sampled_from(NAMES)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("adopt"), _NAME),
    st.tuples(st.just("acquire"), st.one_of(st.none(), _NAME)),
    st.tuples(st.just("release"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("job"), st.one_of(st.none(), _NAME), st.booleans()),
    st.tuples(st.just("drain"), _NAME),
    st.tuples(st.just("undrain"), _NAME),
    st.tuples(st.just("remove"), _NAME),
    st.tuples(st.just("misbehave"), _NAME,
              st.sampled_from(sorted(MISBEHAVIOR_WEIGHTS)),
              st.integers(1, 5)),
    st.tuples(st.just("run"), st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0])),
), min_size=20, max_size=80)


class TestPoolModel:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_pool_matches_the_model(self, ops):
        model = PoolModel()
        for name in NAMES:
            model.adopt(name)
        for name, *args in ops:
            getattr(model, name)(*args)
            model.check()

    def test_only_table_moves_are_legal(self):
        """Every (from, to) pair, including "not pooled yet" and
        DEPARTED as the source: a row moves, anything else raises."""
        states = (None, ACTIVE, DRAINING, QUARANTINED, DEPARTED)
        for source in states:
            for to in states[1:]:
                model = PoolModel()
                model.adopt("ep0")
                pooled = model.pool.endpoints["ep0"]
                pooled.state = source
                if (source, to) in TRANSITIONS:
                    model.pool._transition(pooled, to)
                    assert pooled.state == to
                else:
                    with pytest.raises(PoolError):
                        model.pool._transition(pooled, to)
                    assert pooled.state == source
