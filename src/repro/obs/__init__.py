"""Unified observability: one hub per simulator for metrics, events, spans.

Every :class:`~repro.netsim.kernel.Simulator` owns an
:class:`Observability` instance (``sim.obs``), disabled by default.
Components reach their layer's telemetry through it:

    obs = sim.obs
    if obs.enabled:
        obs.counter("links.delivered", link=self.name).inc()
        obs.emit("links", "drop", link=self.name, reason="queue")

The ``enabled`` guard is the contract: with observability off, the only
cost at any instrumentation point is one attribute load and one branch —
no dict construction, no string formatting, no metric lookups. With it
on, counters/gauges/histograms accumulate under virtual time, events fan
out to sinks, and :meth:`Observability.telemetry_snapshot` bundles the
whole state for export (see ``Testbed.run_experiment(collect_telemetry=
True)``).

Layer prefixes used across the repo: ``kernel``, ``links``, ``endpoint``,
``controller``, ``rendezvous``, ``filtervm``, ``core``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.bus import EventBus, ObsEvent, Sink
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.obs.sinks import (
    JsonlSink,
    RingBufferSink,
    event_to_json_dict,
    json_safe,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "Observability",
    "Span",
    "TelemetrySnapshot",
    "EventBus",
    "ObsEvent",
    "Sink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "RingBufferSink",
    "JsonlSink",
    "read_jsonl",
    "write_jsonl",
    "json_safe",
    "event_to_json_dict",
]


class Span:
    """A begin/end pair around a logical operation (an experiment session).

    Emits ``<name>.begin`` / ``<name>.end`` events and records the duration
    in a ``<layer>.<name>_duration_s`` histogram. Create via
    :meth:`Observability.span`; idempotent ``end``.
    """

    __slots__ = ("_obs", "layer", "name", "fields", "start", "ended")

    def __init__(self, obs: "Observability", layer: str, name: str,
                 fields: dict[str, Any]) -> None:
        self._obs = obs
        self.layer = layer
        self.name = name
        self.fields = fields
        self.start = obs.now()
        self.ended = False
        obs.emit(layer, f"{name}.begin", **fields)

    def end(self, **extra: Any) -> float:
        """Close the span; returns its duration in virtual seconds."""
        if self.ended:
            return 0.0
        self.ended = True
        duration = self._obs.now() - self.start
        self._obs.emit(
            self.layer, f"{self.name}.end",
            duration=duration, **{**self.fields, **extra},
        )
        self._obs.histogram(f"{self.layer}.{self.name}_duration_s").observe(
            duration
        )
        return duration


class TelemetrySnapshot:
    """Bundled metrics + events from one observed run.

    Returned by ``Testbed.run_experiment(..., collect_telemetry=True)``.
    """

    def __init__(self, time: float, metrics: list[dict],
                 events: list[ObsEvent]) -> None:
        self.time = time
        self.metrics = metrics
        self.events = events

    def layers(self) -> set[str]:
        """Layer prefixes with at least one active metric."""
        active: set[str] = set()
        for metric in self.metrics:
            if metric["kind"] == "counter" and metric["value"] == 0:
                continue
            if metric["kind"] == "histogram" and metric["count"] == 0:
                continue
            if metric["kind"] == "gauge" and metric["last_time"] is None:
                continue
            active.add(metric["name"].split(".", 1)[0])
        return active

    def metric(self, name: str, **labels: str) -> Optional[dict]:
        for metric in self.metrics:
            if metric["name"] != name:
                continue
            if labels and metric["labels"] != labels:
                continue
            return metric
        return None

    def counter_total(self, name: str) -> float:
        """Sum a counter across label sets (0.0 when absent)."""
        return sum(
            metric["value"]
            for metric in self.metrics
            if metric["kind"] == "counter" and metric["name"] == name
        )

    def to_jsonl_lines(self) -> list[dict]:
        lines: list[dict] = [
            {"kind": "snapshot", "time": self.time,
             "metrics": len(self.metrics), "events": len(self.events)}
        ]
        for metric in self.metrics:
            lines.append(json_safe(metric))
        for event in self.events:
            lines.append(event_to_json_dict(event))
        return lines

    def export_jsonl(self, path: str) -> int:
        """Write the snapshot to ``path`` as JSONL; returns line count."""
        return write_jsonl(path, self.to_jsonl_lines())


class Observability:
    """Per-simulator observability hub: metric registry + event bus.

    ``enabled`` starts False; flipping it on makes every guarded
    instrumentation point across the stack live. The clock is bound by the
    owning simulator so all telemetry is stamped with virtual time.
    """

    def __init__(self, enabled: bool = False,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self._time_fn: Callable[[], float] = time_fn or (lambda: 0.0)
        self.metrics = MetricsRegistry(self.now)
        self.bus = EventBus(self.now)
        self._ring: Optional[RingBufferSink] = None

    # -- clock ------------------------------------------------------------

    def now(self) -> float:
        return self._time_fn()

    def bind_clock(self, time_fn: Callable[[], float]) -> None:
        """Late-bind the virtual clock (called by the owning Simulator)."""
        self._time_fn = time_fn

    # -- metrics ----------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self.metrics.histogram(name, buckets, **labels)

    # -- events -----------------------------------------------------------

    def emit(self, layer: str, name: str, **fields: Any) -> None:
        self.bus.emit(layer, name, **fields)

    def span(self, layer: str, name: str, **fields: Any) -> Span:
        return Span(self, layer, name, fields)

    def add_sink(self, sink: Sink) -> Sink:
        return self.bus.add_sink(sink)

    def remove_sink(self, sink: Sink) -> None:
        self.bus.remove_sink(sink)

    def ensure_ring_sink(self) -> RingBufferSink:
        """Idempotently attach the default in-memory ring buffer sink."""
        if self._ring is None:
            self._ring = RingBufferSink()
            self.bus.add_sink(self._ring)
        return self._ring

    @property
    def ring(self) -> Optional[RingBufferSink]:
        return self._ring

    # -- snapshots --------------------------------------------------------

    def telemetry_snapshot(self) -> TelemetrySnapshot:
        events = self._ring.events() if self._ring is not None else []
        return TelemetrySnapshot(self.now(), self.metrics.snapshot(), events)

    def export_jsonl(self, path: str) -> int:
        return self.telemetry_snapshot().export_jsonl(path)
