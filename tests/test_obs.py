"""Tests for the unified observability layer (repro.obs).

Covers metric semantics under virtual time, the event bus + sinks, the
JSONL export round-trip, disabled-mode no-op behavior, the PacketTrace
compatibility shim over unified observer registration, and end-to-end
telemetry from a full Testbed experiment spanning every layer.
"""

from __future__ import annotations

import pytest

from repro.controller.clocksync import estimate_clock
from repro.core import Testbed
from repro.core.testbed import DEFAULT_RENDEZVOUS_PORT
from repro.experiments import ping
from repro.netsim.kernel import Simulator
from repro.netsim.topology import Network
from repro.netsim.trace import PacketTrace
from repro.obs import (
    Observability,
    RingBufferSink,
    TelemetrySnapshot,
    read_jsonl,
)
from repro.obs.report import format_report
from repro.obs.sinks import DEFAULT_RING_CAPACITY
from repro.packet.ipv4 import IPv4Packet, PROTO_RAW_TEST


# -- metric semantics under virtual time ----------------------------------


def test_counter_timestamps_follow_virtual_time():
    sim = Simulator()
    sim.obs.enabled = True
    counter = sim.obs.counter("kernel.test_ticks")
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, counter.inc)
    sim.run()
    assert counter.value == 3
    assert counter.first_time == 1.0
    assert counter.last_time == 3.0
    # 3 increments over 2 virtual seconds.
    assert counter.rate() == pytest.approx(1.5)


def test_gauge_watermarks_and_histogram_buckets():
    obs = Observability(enabled=True)
    gauge = obs.gauge("endpoint.test_depth")
    for value in (3.0, 7.0, 2.0):
        gauge.set(value)
    assert gauge.value == 2.0
    assert gauge.min == 2.0
    assert gauge.max == 7.0
    gauge.set_max(5.0)  # not a new high-water mark: value unchanged
    assert gauge.value == 2.0
    gauge.set_max(9.0)
    assert gauge.value == 9.0

    hist = obs.histogram("controller.test_latency", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(5.555)
    assert hist.min == 0.005
    assert hist.max == 5.0
    assert hist.mean() == pytest.approx(5.555 / 4)
    assert hist.bucket_counts == [1, 1, 1, 1]
    assert hist.quantile(0.25) == 0.01
    assert hist.quantile(1.0) == 5.0


def test_registry_memoizes_and_separates_labels():
    obs = Observability(enabled=True)
    a = obs.counter("links.tx", link="l1")
    b = obs.counter("links.tx", link="l2")
    assert a is not b
    assert obs.counter("links.tx", link="l1") is a
    a.inc(2)
    b.inc(3)
    assert obs.metrics.total("links.tx") == 5
    assert obs.metrics.find("links.tx", link="l2") is b
    assert obs.metrics.layers() == {"links"}


# -- event bus, sinks, spans ----------------------------------------------


def test_event_bus_ring_sink_and_select():
    sim = Simulator()
    obs = sim.obs
    obs.enabled = True
    ring = obs.ensure_ring_sink()
    assert obs.ensure_ring_sink() is ring  # idempotent
    sim.schedule(0.5, lambda: obs.emit("links", "drop", link="l0", reason="queue"))
    sim.schedule(1.5, lambda: obs.emit("endpoint", "auth-fail", reason="expired"))
    sim.run()
    assert len(ring) == 2
    drops = ring.select(layer="links", name="drop")
    assert len(drops) == 1
    assert drops[0].time == 0.5
    assert drops[0].fields["reason"] == "queue"
    assert ring.select(predicate=lambda e: e.time > 1.0)[0].layer == "endpoint"


def test_ring_sink_is_bounded():
    ring = RingBufferSink()
    obs = Observability(enabled=True)
    obs.add_sink(ring)
    emitted = DEFAULT_RING_CAPACITY + 6
    for index in range(emitted):
        obs.emit("kernel", "tick", index=index)
    assert len(ring) == DEFAULT_RING_CAPACITY
    assert ring.total_recorded == emitted
    kept = [event.fields["index"] for event in ring.events()]
    assert kept == list(range(6, emitted))


def test_span_records_duration_and_events():
    sim = Simulator()
    obs = sim.obs
    obs.enabled = True
    ring = obs.ensure_ring_sink()

    def process():
        span = obs.span("core", "experiment", experiment="demo")
        yield 2.5
        span.end(status="ok")
        assert span.end() == 0.0  # idempotent

    sim.run_process(process())
    hist = obs.metrics.find("core.experiment_duration_s")
    assert hist.count == 1
    assert hist.sum == pytest.approx(2.5)
    names = [event.name for event in ring.events()]
    assert names == ["experiment.begin", "experiment.end"]
    end = ring.select(name="experiment.end")[0]
    assert end.fields["duration"] == pytest.approx(2.5)
    assert end.fields["status"] == "ok"


# -- JSONL round-trip ------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    sim = Simulator()
    obs = sim.obs
    obs.enabled = True
    obs.ensure_ring_sink()
    obs.counter("kernel.events").inc(7)
    obs.gauge("endpoint.capture_occupancy").set(0.25)
    obs.histogram("controller.rpc_rtt_s").observe(0.042)
    # bytes fields must survive JSON encoding (coerced to hex).
    obs.emit("rendezvous", "publish-accepted", digest=b"\x01\xff", ok=True)

    path = str(tmp_path / "telemetry.jsonl")
    lines = obs.export_jsonl(path)
    records = read_jsonl(path)
    assert len(records) == lines
    assert records[0]["kind"] == "snapshot"

    by_kind: dict[str, list[dict]] = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    counters = {r["name"]: r for r in by_kind["counter"]}
    assert counters["kernel.events"]["value"] == 7
    assert by_kind["gauge"][0]["value"] == 0.25
    assert by_kind["histogram"][0]["count"] == 1
    events = by_kind["event"]
    assert events[0]["layer"] == "rendezvous"
    assert events[0]["fields"]["digest"] == "01ff"
    assert events[0]["fields"]["ok"] is True


# -- JsonlSink durability (warehouse ingestion depends on these) -----------


def _event(i: float) -> "ObsEvent":
    from repro.obs.bus import ObsEvent

    return ObsEvent(time=i, layer="kernel", name="tick", fields={"i": i})


def test_jsonl_sink_close_flushes_and_is_idempotent(tmp_path):
    from repro.obs.sinks import JsonlSink

    path = str(tmp_path / "events.jsonl")
    sink = JsonlSink(path)
    sink.record(_event(1.0))
    sink.record(_event(2.0))
    assert not sink.closed
    sink.close()
    assert sink.closed
    sink.close()  # second close is a no-op, not an error
    assert sink.lines_written == 2
    assert len(read_jsonl(path)) == 2


def test_jsonl_sink_reopen_for_append(tmp_path):
    from repro.obs.sinks import JsonlSink

    path = str(tmp_path / "events.jsonl")
    first = JsonlSink(path)
    first.record(_event(1.0))
    first.close()
    second = JsonlSink(path, mode="a")
    second.record(_event(2.0))
    second.close()
    times = [record["time"] for record in read_jsonl(path)]
    assert times == [1.0, 2.0]
    with pytest.raises(ValueError):
        JsonlSink(path, mode="r+")


def test_jsonl_sink_wraps_text_handles(tmp_path):
    import io

    from repro.obs.sinks import JsonlSink

    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.record(_event(3.0))
    sink.close()  # must not close (or fsync) a handle it doesn't own
    assert not buffer.closed
    assert buffer.getvalue().count("\n") == 1


def test_read_jsonl_tolerates_truncated_tail(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as fh:
        fh.write('{"kind":"event","time":1.0}\n')
        fh.write('{"kind":"event","time":2.0}\n')
        fh.write('{"kind":"event","ti')  # writer killed mid-append
    with pytest.raises(ValueError):
        read_jsonl(path)
    records = read_jsonl(path, strict=False)
    assert [record["time"] for record in records] == [1.0, 2.0]


def test_read_jsonl_interior_corruption_still_raises(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as fh:
        fh.write('{"kind":"event","ti\n')  # corrupt, but not the tail
        fh.write('{"kind":"event","time":2.0}\n')
    with pytest.raises(ValueError):
        read_jsonl(path, strict=False)


# -- disabled-mode no-op ---------------------------------------------------


def test_disabled_mode_creates_no_telemetry():
    testbed = Testbed()
    assert not testbed.sim.obs.enabled

    def experiment(handle):
        ticks = yield from handle.read_clock()
        assert ticks > 0
        return ticks

    testbed.run_experiment(experiment, "quiet")
    # No metrics were ever registered and no events emitted: the guarded
    # fast paths never touched the registry or the bus.
    assert len(testbed.sim.obs.metrics) == 0
    assert testbed.sim.obs.bus.events_emitted == 0
    assert testbed.sim.obs.ring is None


def test_enabling_midway_starts_collection():
    sim = Simulator()
    counter_holder = {}

    def tick():
        obs = sim.obs
        if obs.enabled:
            counter_holder["c"] = obs.counter("kernel.manual")
            counter_holder["c"].inc()

    sim.schedule(1.0, tick)
    sim.run()
    assert len(sim.obs.metrics) == 0  # disabled: nothing registered
    sim.obs.enabled = True
    sim.schedule(1.0, tick)
    sim.run()
    assert counter_holder["c"].value == 1


# -- PacketTrace shim / unified observer registration ----------------------


def _two_hosts():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.link(a, b, bandwidth_bps=1e9, delay=0.001)
    net.compute_routes()
    return net, a, b, link


def test_packettrace_attach_direction_via_add_observer():
    net, a, b, link = _two_hosts()
    direction = link.forward
    assert not hasattr(direction, "observers")  # the raw list is private now
    trace = PacketTrace().attach_direction(direction)
    assert direction.observed
    packet = IPv4Packet(src=a.primary_address(), dst=b.primary_address(),
                        proto=PROTO_RAW_TEST, payload=b"hi")
    a.send_ip(packet)
    net.sim.run()
    outcomes = {record.outcome for record in trace.records}
    assert outcomes == {"sent", "delivered"}
    trace.detach_direction(direction)
    assert not direction.observed
    a.send_ip(packet)
    net.sim.run()
    assert len(trace.records) == 2  # nothing new after detach


def test_link_metrics_match_trace_ground_truth():
    net, a, b, link = _two_hosts()
    obs = net.sim.obs
    obs.enabled = True
    trace = PacketTrace().attach(link)
    packet = IPv4Packet(src=a.primary_address(), dst=b.primary_address(),
                        proto=PROTO_RAW_TEST, payload=b"x" * 100)
    for _ in range(5):
        a.send_ip(packet)
    net.sim.run()
    delivered = len(trace.select(outcome="delivered"))
    assert delivered == 5
    assert obs.metrics.total("links.delivered") == delivered
    assert obs.metrics.total("links.tx") == 5


# -- full-stack telemetry --------------------------------------------------


def test_full_experiment_telemetry_spans_five_layers(tmp_path):
    testbed = Testbed()
    testbed.enable_telemetry()

    # Exercise the rendezvous layer with the real §3.2 flow: the endpoint
    # subscribes, the experimenter publishes, delivery triggers a session.
    rdz = testbed.start_rendezvous()
    rdz_addr = testbed.controller_host.primary_address()
    server, descriptor = testbed.make_controller("via-rendezvous")
    testbed.endpoint.start_rendezvous(rdz_addr, DEFAULT_RENDEZVOUS_PORT)

    def rendezvous_driver():
        ok, reason = yield from testbed.experimenter.publish(
            testbed.controller_host, rdz_addr, DEFAULT_RENDEZVOUS_PORT,
            descriptor,
        )
        assert ok, reason
        handle = yield server.wait_endpoint()
        ticks = yield from handle.read_clock()
        assert ticks > 0
        handle.bye()

    testbed.sim.run_process(rendezvous_driver(), name="rdz-driver")
    server.stop()
    assert rdz.publications_accepted == 1

    # Now a regular experiment with telemetry collection: clock sync plus
    # a raw-socket ping (touching the filter VM on the capture path).
    def experiment(handle):
        estimate = yield from estimate_clock(
            handle, testbed.controller_host.clock, probes=3
        )
        assert estimate.rtt_min > 0
        result = yield from ping(handle, testbed.target_address, count=2)
        return result

    result, snapshot = testbed.run_experiment(
        experiment, "telemetry", collect_telemetry=True
    )
    assert result.received == 2
    assert isinstance(snapshot, TelemetrySnapshot)

    layers = snapshot.layers()
    assert {"kernel", "links", "endpoint", "controller", "rendezvous"} <= layers
    assert snapshot.counter_total("kernel.events") > 0
    assert snapshot.counter_total("links.delivered") > 0
    assert snapshot.counter_total("endpoint.sessions_accepted") == 2
    assert snapshot.counter_total("controller.rpcs") > 0
    assert snapshot.counter_total("rendezvous.publish_accepted") == 1
    assert snapshot.counter_total("rendezvous.delivered") == 1
    assert snapshot.counter_total("filtervm.invocations") > 0
    assert snapshot.metric("controller.clock_offset_s") is not None
    span_hist = snapshot.metric("core.experiment_duration_s")
    assert span_hist is not None and span_hist["count"] == 1

    # Export, reload, and sanity-check the JSONL.
    path = str(tmp_path / "run.jsonl")
    lines = snapshot.export_jsonl(path)
    records = read_jsonl(path)
    assert len(records) == lines > 10
    kinds = {record["kind"] for record in records}
    assert {"snapshot", "counter", "event"} <= kinds
    event_layers = {r["layer"] for r in records if r["kind"] == "event"}
    assert "rendezvous" in event_layers and "endpoint" in event_layers

    # The formatted report renders every layer section.
    report = format_report(records, title="test report")
    for layer in ("kernel", "links", "endpoint", "controller", "rendezvous"):
        assert f"[{layer}]" in report


def test_sendqueue_latency_histogram():
    testbed = Testbed()
    testbed.enable_telemetry()

    def experiment(handle):
        status = yield from handle.nopen_udp(
            0, remaddr=testbed.target_address, remport=7
        )
        handle.expect_ok(status, "nopen")
        ticks = yield from handle.read_clock()
        # One future-scheduled send, one past-due send.
        status = yield from handle.nsend(0, ticks + 50_000_000, b"future")
        handle.expect_ok(status, "nsend")
        status = yield from handle.nsend(0, ticks - 1_000_000, b"past")
        handle.expect_ok(status, "nsend")
        yield 0.2
        return None

    _, snapshot = testbed.run_experiment(
        experiment, "sendq", collect_telemetry=True
    )
    hist = snapshot.metric("endpoint.sendqueue_lag_s")
    assert hist is not None
    assert hist["count"] == 2
    assert snapshot.counter_total("endpoint.sends_completed") == 2
