"""Determinism of the one event queue.

The kernel contract is that :class:`~repro.netsim.kernel.Simulator`
drains pending timers in strict ``(time, seq)`` order, so a same-seed
simulation is byte-identical from run to run. Two angles:

- an end-to-end fault-injected fleet campaign re-run with the same seed
  and compared event-trace for event-trace and report-byte for
  report-byte,
- a hypothesis property driving adversarial schedule/cancel/run
  sequences through the simulator and comparing the fired order with a
  plain sort of the live entries.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import ping_job
from repro.fleet.testbed import FleetTestbed
from repro.netsim.faults import FaultPlan
from repro.netsim.kernel import Simulator

ENDPOINTS = 12


def _run_campaign() -> tuple[str, list]:
    """One seeded fault-injected campaign; returns (report json, trace)."""
    testbed = FleetTestbed(
        endpoint_count=ENDPOINTS,
        topology="tree",
        fanout=3,
        shards=2,
        operator_count=2,
        seed=11,
    )
    ring = testbed.enable_telemetry()
    plan = FaultPlan(seed=5)
    # Impair a couple of access links and knock one out mid-campaign so
    # retries, reorders, and duplicates all exercise the event queue.
    plan.link_impairment(testbed.net.links[-1], corrupt=0.1, duplicate=0.1,
                         reorder=0.2, reorder_delay=0.02)
    plan.link_impairment(testbed.net.links[-3], corrupt=0.05)
    plan.link_outage(testbed.net.links[-2], start=2.0, duration=3.0)
    plan.install(testbed.sim)

    jobs = [ping_job(f"ping-{index}", count=3)
            for index in range(ENDPOINTS * 2)]
    report = testbed.run_campaign(jobs, max_concurrency=6, timeout=10000.0)
    trace = [
        (event.time, event.layer, event.name,
         json.dumps(event.fields, sort_keys=True, default=str))
        for event in ring.events()
    ]
    return report.to_json(), trace


def test_same_scheduler_reruns_are_byte_identical():
    first_report, first_trace = _run_campaign()
    second_report, second_trace = _run_campaign()
    assert first_trace == second_trace
    assert first_report == second_report
    # The campaign must have actually done something worth comparing.
    report = json.loads(first_report)
    assert report["jobs"]["completed"] + report["jobs"]["failed"] \
        == ENDPOINTS * 2
    assert len(first_trace) > 100


# -- property: arbitrary schedule/cancel sequences ------------------------

_times = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 0.001, 0.0010000000000000002]),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=300,
)


def _apply(ops) -> tuple[list, list]:
    """Run a schedule/cancel/pop script; returns (fired, expected).

    ``pop`` is ``run(until=<earliest pending time>)``: it fires that
    entry and its ties and exercises the push-back of the next one. The
    oracle is a dict of pending entries kept beside the simulator and
    sorted by ``(time, seq)`` whenever the clock is moved past them.
    """
    sim = Simulator()
    fired = []
    expected = []
    timers = []  # Timer handles; index + 1 is the scheduling sequence
    pending = {}  # seq -> time: what the oracle says is still queued

    def release(until: float) -> None:
        due = sorted((time, seq) for seq, time in pending.items()
                     if time <= until)
        expected.extend(due)
        for _, seq in due:
            del pending[seq]

    for op, value in ops:
        if op == "push":
            time = max(value, sim.now)  # never schedule into the past
            seq = len(timers) + 1
            timers.append(sim.schedule_at(time, fired.append, (time, seq)))
            pending[seq] = time
        elif op == "cancel":
            if timers:
                index = value % len(timers)
                timers[index].cancel()
                # No-op when the oracle has already released the entry.
                pending.pop(index + 1, None)
        elif pending:  # pop
            until = min(pending.values())
            sim.run(until=until)
            release(until)
    sim.run()
    release(float("inf"))
    return fired, expected


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_drain_order_matches_sorted_oracle(ops):
    fired, expected = _apply(ops)
    assert fired == expected
    # Sanity: the drain order itself is strictly sorted.
    assert fired == sorted(fired)
