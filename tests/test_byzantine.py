"""Byzantine endpoint containment: budgets, scoring, and the full pipeline.

Four layers under test, bottom-up:

1. Session budgets on :class:`EndpointHandle` — a flooding or stalling
   endpoint severs its own session with a typed
   :class:`MisbehaviorError` instead of exhausting controller memory or
   hanging a campaign slot.
2. The farewell-vs-silent-abandon distinction in ``_close_pending`` —
   dying politely (SessionEnd, any reason) is legal churn; dying with
   RPCs in flight and no explanation is scoring evidence.
3. Pool misbehavior scoring — seeded decay, quarantine, permanent
   departure with a ban on re-adoption.
4. The end-to-end campaign: a seeded adversarial fleet
   (:meth:`FaultPlan.byzantine`) where every adversary is detected,
   no honest endpoint is expelled, and the whole run replays
   byte-identically from its seed.
"""

from random import Random

import pytest

from repro.controller.client import (
    ControllerServer,
    MAX_STREAMED_RECORDS,
    MisbehaviorError,
    SessionBudget,
    SessionClosed,
)
from repro.core.testbed import Testbed
from repro.experiments.campaign import ping_job
from repro.fleet.pool import (
    ACTIVE,
    EndpointPool,
    QUARANTINED,
    SCORE_HALF_LIFE,
)
from repro.fleet.scheduler import CrossValidation
from repro.fleet.testbed import FleetTestbed
from repro.netsim.faults import (
    BYZANTINE_BEHAVIORS,
    ByzantineAdversary,
    FaultPlan,
    FLOOD_RECORDS,
)
from repro.proto.messages import SessionEnd
from repro.util.retry import RetryPolicy


def _budget_server(testbed, budget, rpc_timeout=None):
    """A ControllerServer with a session budget (core Testbed lacks one)."""
    host = testbed.controller_host
    port = testbed.allocate_port()
    descriptor = testbed.experimenter.make_descriptor(host, port, "byz")
    identity = testbed.experimenter.identity(descriptor)
    server = ControllerServer(
        host, port, identity, rpc_timeout=rpc_timeout, budget=budget
    ).start()
    return server, descriptor


def _adversary(testbed, behavior, seed=1):
    plan = FaultPlan(seed=seed).install(testbed.sim)
    testbed.endpoint.adversary = ByzantineAdversary(
        plan, testbed.endpoint.config.name, behavior, Random(seed)
    )
    return plan


class TestSessionBudgets:
    def test_flood_trips_stream_record_budget(self):
        """A reqid-0 PollData flood severs the session, typed. The
        endpoint's buffer holds more than the record cap's worth of
        flood, so the record cap is the one that trips."""
        testbed = Testbed(capture_buffer_bytes=4 * 1024 * 1024)
        plan = _adversary(testbed, "flood")
        server, descriptor = _budget_server(testbed, SessionBudget())

        def driver():
            handle = yield server.endpoints.get()
            yield 30.0  # idle: the flood alone must trip the budget
            return handle

        proc = testbed.sim.spawn(driver(), name="driver")
        testbed.connect_endpoint(descriptor)
        testbed.sim.run(until=60.0)
        assert not proc.alive and proc.error is None, proc.error
        handle = proc.result
        assert handle.misbehavior is not None
        assert handle.misbehavior.kind == "stream-overflow"
        assert handle.closed
        assert handle.budget_exhaustions == 1
        # Overflow records were dropped, never buffered: the backlog
        # stopped within one burst of the record cap, inside the buffer.
        assert (MAX_STREAMED_RECORDS - FLOOD_RECORDS
                < len(handle.streamed_records) <= MAX_STREAMED_RECORDS)
        assert handle._streamed_bytes < handle.buffer_limit
        assert plan.byzantine_activations[
            (testbed.endpoint.config.name, "flood")
        ] >= 1

    def test_stream_byte_budget_defaults_to_buffer_limit(self):
        """With no explicit byte cap, the negotiated AuthOk.buffer_limit
        bounds unconsumed streamed capture."""
        testbed = Testbed()
        _adversary(testbed, "flood")
        server, descriptor = _budget_server(testbed, SessionBudget())

        def driver():
            handle = yield server.endpoints.get()
            yield 30.0
            return handle

        proc = testbed.sim.spawn(driver(), name="driver")
        testbed.connect_endpoint(descriptor)
        testbed.sim.run(until=60.0)
        handle = proc.result
        assert handle.misbehavior is not None
        assert handle.misbehavior.kind == "stream-overflow"
        assert handle.buffer_limit > 0
        # The buffered backlog never exceeded the endpoint's own
        # advertised buffer, which tripped long before the record cap.
        assert handle._streamed_bytes <= handle.buffer_limit
        assert len(handle.streamed_records) < MAX_STREAMED_RECORDS

    def test_stall_trips_pending_age_watchdog(self):
        """A swallowed RPC with no per-RPC timeout still surfaces as a
        typed rpc-stalled verdict via max_pending_age."""
        testbed = Testbed()
        plan = _adversary(testbed, "stall")
        server, descriptor = _budget_server(
            testbed, SessionBudget(max_pending_age=2.0)
        )

        def driver():
            handle = yield server.endpoints.get()
            with pytest.raises(MisbehaviorError) as exc:
                while True:  # until the adversary swallows one
                    started = testbed.sim.now
                    yield from handle.read_clock()
            return handle, exc.value, testbed.sim.now - started

        proc = testbed.sim.spawn(driver(), name="driver")
        testbed.connect_endpoint(descriptor)
        testbed.sim.run(until=60.0)
        assert not proc.alive and proc.error is None, proc.error
        handle, error, waited = proc.result
        assert error.kind == "rpc-stalled"
        assert handle.closed and handle.misbehavior is error
        assert plan.byzantine_activations[
            (testbed.endpoint.config.name, "stall")
        ] == 1
        # The watchdog fired at the cap, not at the run timeout.
        assert waited == pytest.approx(2.0, abs=0.5)


class TestFarewellVsAbandon:
    def _run_pending_rpc(self, farewell):
        """Stall an RPC, then kill the session — politely or not."""
        testbed = Testbed()
        plan = _adversary(testbed, "stall")
        server, descriptor = _budget_server(testbed, SessionBudget())

        def driver():
            handle = yield server.endpoints.get()
            try:
                while True:  # until a swallowed one is left pending
                    yield from handle.read_clock()
            except MisbehaviorError:
                return handle, "misbehavior"
            except SessionClosed:
                return handle, "closed"
            return handle, "ok"

        proc = testbed.sim.spawn(driver(), name="driver")
        testbed.connect_endpoint(descriptor)
        if farewell:
            def say_goodbye():
                for session in testbed.endpoint.sessions.values():
                    session.send_message(SessionEnd(reason="maintenance"))
            testbed.sim.schedule_at(5.0, say_goodbye)
        testbed.sim.schedule_at(6.0, testbed.endpoint.crash)
        testbed.sim.run(until=60.0)
        assert not proc.alive and proc.error is None, proc.error
        assert plan.byzantine_activations[
            (testbed.endpoint.config.name, "stall")
        ] == 1
        return proc.result

    def test_farewell_is_legal_churn(self):
        handle, outcome = self._run_pending_rpc(farewell=True)
        assert outcome == "closed"
        assert handle.end_reason == "maintenance"
        assert handle.abandoned is False
        assert handle.misbehavior is None

    def test_silent_death_with_pending_rpc_is_abandon(self):
        handle, outcome = self._run_pending_rpc(farewell=False)
        assert outcome == "closed"
        assert handle.end_reason is None
        assert handle.abandoned is True
        assert handle.misbehavior is None  # no budget tripped — just rude


class TestMisbehaviorScoring:
    def _pool(self):
        testbed = Testbed()
        server, descriptor = testbed.make_controller()
        pool = EndpointPool(server, seed=1, misbehavior=True)
        testbed.connect_endpoint(descriptor)

        def populate():
            yield from pool.populate(1)

        proc = testbed.sim.spawn(populate(), name="populate")
        testbed.sim.run(until=30.0)
        assert not proc.alive and proc.error is None, proc.error
        return testbed, pool, testbed.endpoint.config.name

    def test_scores_accumulate_with_kind_weights(self):
        _, pool, name = self._pool()
        assert pool.report_misbehavior(name, "sequence-violation") == 1.0
        assert pool.report_misbehavior(name, "result-mismatch") == 5.0
        totals = pool.misbehavior_summary()
        assert totals["totals"][name] == 5.0
        assert totals["offenses"][name] == {
            "result-mismatch": 1, "sequence-violation": 1,
        }

    def test_scores_decay_with_half_life(self):
        testbed, pool, name = self._pool()
        pool.report_misbehavior(name, "sequence-violation", count=4)
        observed = {}

        def later():
            observed["decayed"] = pool.misbehavior_score(name)

        testbed.sim.schedule(SCORE_HALF_LIFE, later)
        testbed.sim.run(until=testbed.sim.now + SCORE_HALF_LIFE + 20.0)
        assert observed["decayed"] == pytest.approx(2.0)
        # Lifetime evidence does not decay.
        assert pool.misbehavior_summary()["totals"][name] == 4.0

    def test_quarantine_then_depart_then_ban(self):
        _, pool, name = self._pool()
        pooled = pool.endpoints[name]
        assert pooled.state == ACTIVE
        pool.report_misbehavior(name, "stream-overflow", count=2)  # 6.0
        assert pooled.state == QUARANTINED
        pool.report_misbehavior(name, "result-mismatch", count=4)  # 22.0
        assert name not in pool.endpoints
        assert name in pool.banned
        assert pool.misbehavior_summary()["departed"] == [name]

    def test_unknown_endpoint_evidence_still_logged(self):
        _, pool, name = self._pool()
        score = pool.report_misbehavior("ghost", "auth-failure")
        assert score == 0.0
        assert pool.misbehavior_summary()["totals"]["ghost"] == 2.0


class TestByzantineCampaign:
    """E2E: seeded adversaries, full containment stack, deterministic."""

    ENDPOINTS = 16
    ADVERSARIES = 5  # one of each behavior, round-robin

    def _run(self, seed):
        n = self.ENDPOINTS
        fleet = FleetTestbed(endpoint_count=n, topology="star", seed=seed)
        plan = FaultPlan(seed=seed).install(fleet.sim)
        plan.byzantine(fleet.endpoints, count=self.ADVERSARIES)
        jobs = [ping_job(f"ping-{i}", count=4, interval=0.5)
                for i in range(n)]
        # One pinned audit per endpoint: cross-validation
        # replicates each deterministically, so every endpoint's results
        # face a quorum at least once.
        jobs += [ping_job(f"audit-ep{i}", count=8, interval=0.25,
                          endpoint=f"ep{i}")
                 for i in range(n)]
        report = fleet.run_campaign(
            jobs,
            max_concurrency=12,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                     jitter=0.1),
            pool_policy=RetryPolicy(max_attempts=1, base_delay=0.5,
                                    jitter=0.1),
            reacquire_timeout=5.0,
            rpc_timeout=5.0,
            timeout=1_000_000.0,
            session_budget=SessionBudget(),
            misbehavior=True,
            cross_validate=CrossValidation(fraction=0.1, k=4),
        )
        return plan, report

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_adversary_detected_no_honest_harm(self, seed):
        plan, report = self._run(seed)
        adversaries = set(plan.byzantine_assignments)
        assert len(adversaries) == self.ADVERSARIES
        # Round-robin assignment covered every behavior.
        assert set(plan.byzantine_assignments.values()) == set(
            BYZANTINE_BEHAVIORS
        )
        mis = report.misbehavior
        assert mis is not None
        # Every adversary accumulated evidence.
        undetected = {
            name: plan.byzantine_assignments[name]
            for name in adversaries
            if mis["totals"].get(name, 0.0) <= 0.0
        }
        assert not undetected, f"seed {seed}: undetected {undetected}"
        # No honest endpoint was expelled.
        honest_departed = [
            name for name in mis["departed"] if name not in adversaries
        ]
        assert honest_departed == [], (
            f"seed {seed}: honest departures {honest_departed}"
        )
        # Departures are deduplicated even across re-dials (ban set).
        assert len(mis["departed"]) == len(set(mis["departed"]))
        # Honest work still completed despite the adversaries.
        assert report.jobs_completed > 0

    def test_same_seed_reports_byte_identical(self):
        first = self._run(seed=3)[1].to_json()
        second = self._run(seed=3)[1].to_json()
        assert first == second

    def test_byzantine_plan_bookkeeping(self):
        plan, _ = self._run(seed=1)
        # Events are first-activation records: one per activated pair,
        # matching the activation counters.
        activated = {(name, behavior)
                     for _, name, behavior in plan.byzantine_events}
        assert activated == set(plan.byzantine_activations)
        assert all(count >= 1
                   for count in plan.byzantine_activations.values())
        for name, behavior in plan.byzantine_activations:
            assert plan.byzantine_assignments[name] == behavior

    def test_double_assignment_rejected(self):
        fleet = FleetTestbed(endpoint_count=4, topology="star", seed=0)
        plan = FaultPlan(seed=0).install(fleet.sim)
        plan.byzantine(fleet.endpoints, count=4)
        with pytest.raises(RuntimeError):
            plan.byzantine(fleet.endpoints, count=4)

    def test_bad_arguments_rejected(self):
        fleet = FleetTestbed(endpoint_count=2, topology="star", seed=0)
        plan = FaultPlan(seed=0)
        with pytest.raises(ValueError):
            plan.byzantine([])
        with pytest.raises(ValueError):
            plan.byzantine(fleet.endpoints, behaviors=())
        with pytest.raises(ValueError):
            plan.byzantine(fleet.endpoints, behaviors=("gaslight",))
        with pytest.raises(ValueError):
            plan.byzantine(fleet.endpoints, fraction=1.5)
