"""Point-to-point duplex links with bandwidth, delay, queueing, and loss.

Each direction of a link models:

- **serialization delay** — ``bytes * 8 / bandwidth_bps``, with back-to-back
  packets queueing behind each other (tracked by a per-direction
  ``busy_until`` time),
- **drop-tail queueing** — the backlog implied by ``busy_until`` is
  converted to bytes; a packet that would push the backlog past
  ``queue_bytes`` is dropped,
- **propagation delay** — a constant added after serialization completes,
- **random loss** — an independent Bernoulli drop with a seeded RNG, applied
  to packets that survived the queue.

This fluid-backlog model is deterministic and cheap while still producing
the phenomena the paper's experiments depend on: bandwidth-limited bursts,
queueing delay under load, and contention between control and measurement
traffic sharing an access link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from collections import deque

from repro.netsim.kernel import Simulator, Timer
from repro.packet.ipv4 import IPv4Packet
from repro.util.rng import LazyRandom

if TYPE_CHECKING:
    from repro.netsim.faults import DirectionFaults
    from repro.netsim.node import Interface

# Fixed per-packet link-layer overhead (approximates an Ethernet header).
LINK_OVERHEAD_BYTES = 14

LinkObserver = Callable[[float, "LinkDirection", IPv4Packet, str], None]

# Outcome string -> obs counter suffix (see repro.obs naming convention).
_OUTCOME_METRIC = {
    "sent": "tx",
    "delivered": "delivered",
    "drop-queue": "dropped_queue",
    "drop-loss": "dropped_loss",
    "drop-fault": "dropped_fault",
}


@dataclass
class LinkStats:
    """Per-direction counters."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_loss: int = 0
    packets_dropped_fault: int = 0


class LinkDirection:
    """One direction of a duplex link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        delay: float,
        queue_bytes: int,
        loss_rate: float,
        rng: LazyRandom,
        jitter: float = 0.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self._sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.jitter = jitter
        self.queue_bytes = queue_bytes
        self.loss_rate = loss_rate
        self._rng = rng
        self._busy_until = 0.0
        # In-flight packets awaiting delivery, ordered by arrival time.
        # One armed timer covers the head of the queue; a timer firing
        # drains every due arrival in a batch, so a bulk transfer costs
        # one scheduler entry per wave instead of one per packet.
        self._pending: deque[tuple[float, IPv4Packet]] = deque()
        self._timer: Optional[Timer] = None
        self._delivering = False
        self.dst_iface: Optional["Interface"] = None
        self.stats = LinkStats()
        self._observers: list[LinkObserver] = []
        self._obs = sim.obs
        # Armed by repro.netsim.faults.FaultPlan; None keeps the hot
        # transmit path at one attribute load + branch.
        self.faults: Optional["DirectionFaults"] = None

    def add_observer(self, observer: LinkObserver) -> LinkObserver:
        """Register a ground-truth observer for this direction.

        The only sanctioned way to watch a direction (PacketTrace and the
        obs layer both come through here); the observer list itself is
        private.
        """
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: LinkObserver) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def observed(self) -> bool:
        return bool(self._observers)

    def _notify(self, packet: IPv4Packet, outcome: str) -> None:
        # Slow path — entered only when observed or telemetry is enabled.
        for observer in self._observers:
            observer(self._sim.now, self, packet, outcome)
        obs = self._obs
        if obs.enabled:
            obs.counter(f"links.{_OUTCOME_METRIC[outcome]}", link=self.name).inc()
            if outcome == "sent":
                obs.counter("links.bytes_sent", link=self.name).inc(
                    packet.total_length + LINK_OVERHEAD_BYTES
                )
            elif outcome in ("drop-queue", "drop-loss"):
                obs.emit(
                    "links", "drop", link=self.name, reason=outcome,
                    proto=packet.proto, src=packet.src, dst=packet.dst,
                    size=packet.total_length,
                )

    def backlog_bytes(self) -> float:
        """Bytes currently queued for serialization (fluid approximation)."""
        backlog_time = max(0.0, self._busy_until - self._sim.now)
        return backlog_time * self.bandwidth_bps / 8.0

    def transmit(self, packet: IPv4Packet) -> bool:
        """Attempt to transmit; returns False if dropped at the queue."""
        if self.dst_iface is None:
            raise RuntimeError(f"link direction {self.name} not attached")
        size = packet.total_length + LINK_OVERHEAD_BYTES
        watched = self._observers or self._obs.enabled
        faults = self.faults
        if faults is not None and faults.down > 0:
            # Link outage window: the frame never reaches the wire.
            self.stats.packets_dropped_fault += 1
            faults.plan.note_packet_fault("packet-outage-drop", self, packet)
            if watched:
                self._notify(packet, "drop-fault")
            return False
        if self.backlog_bytes() + size > self.queue_bytes:
            self.stats.packets_dropped_queue += 1
            if watched:
                self._notify(packet, "drop-queue")
            return False
        now = self._sim.now
        tx_start = max(now, self._busy_until)
        tx_time = size * 8.0 / self.bandwidth_bps
        self._busy_until = tx_start + tx_time
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.packets_dropped_loss += 1
            if watched:
                self._notify(packet, "drop-loss")
            return True  # consumed link time, but lost in flight
        if (
            faults is not None
            and faults.corrupt_prob > 0
            and faults.rng.random() < faults.corrupt_prob
        ):
            # Corruption: the frame occupies the link, then fails its
            # checksum at the receiver — consume link time and discard.
            self.stats.packets_dropped_fault += 1
            faults.plan.note_packet_fault("packet-corrupted", self, packet)
            if watched:
                self._notify(packet, "drop-fault")
            return True
        arrival = self._busy_until + self.delay
        if self.jitter > 0:
            # Uniform per-packet jitter; may reorder packets (realistic).
            arrival += self._rng.uniform(0.0, self.jitter)
        if faults is not None:
            if (
                faults.reorder_prob > 0
                and faults.rng.random() < faults.reorder_prob
            ):
                # Hold this packet back so later ones overtake it.
                arrival += faults.reorder_delay
                faults.plan.note_packet_fault("packet-reordered", self, packet)
            if (
                faults.duplicate_prob > 0
                and faults.rng.random() < faults.duplicate_prob
            ):
                # A back-to-back second copy of the frame.
                faults.plan.note_packet_fault("packet-duplicated", self, packet)
                self._enqueue_delivery(arrival + tx_time, packet)
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size
        if watched:
            self._notify(packet, "sent")
        self._enqueue_delivery(arrival, packet)
        return True

    def _enqueue_delivery(self, arrival: float, packet: IPv4Packet) -> None:
        """Queue a packet for arrival, keeping the queue arrival-sorted.

        Arrivals are monotonic on the common path (``busy_until`` only
        advances), so this is an O(1) append; jitter and fault reordering
        occasionally require a short linear insert from the tail.
        """
        pending = self._pending
        if pending and arrival < pending[-1][0]:
            index = len(pending) - 1
            while index > 0 and pending[index - 1][0] > arrival:
                index -= 1
            pending.insert(index, (arrival, packet))
        else:
            pending.append((arrival, packet))
        if not self._delivering:
            head = pending[0][0]
            timer = self._timer
            if timer is None or timer.cancelled:
                self._timer = self._sim.schedule_at(head, self._deliver_due)
            elif head < timer.time:
                # New head arrives before the armed timer: re-arm earlier.
                timer.cancel()
                self._timer = self._sim.schedule_at(head, self._deliver_due)

    def _deliver_due(self) -> None:
        """Deliver every packet whose arrival time has been reached."""
        assert self.dst_iface is not None
        pending = self._pending
        now = self._sim.now
        deliver = self.dst_iface.deliver
        # Reentrancy guard: a delivery can synchronously forward onto this
        # same direction; new arrivals are strictly in the future (positive
        # serialization time), so they wait for the re-arm below.
        self._delivering = True
        try:
            while pending and pending[0][0] <= now:
                packet = pending.popleft()[1]
                if self._observers or self._obs.enabled:
                    self._notify(packet, "delivered")
                deliver(packet)
        finally:
            self._delivering = False
        if pending:
            self._timer = self._sim.schedule_at(pending[0][0], self._deliver_due)
        else:
            self._timer = None


class Link:
    """A duplex point-to-point link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        iface_a: "Interface",
        iface_b: "Interface",
        bandwidth_bps: float = 100e6,
        delay: float = 0.001,
        queue_bytes: int = 256 * 1024,
        loss_rate: float = 0.0,
        seed: int = 0,
        bandwidth_up_bps: Optional[float] = None,
        delay_up: Optional[float] = None,
        jitter: float = 0.0,
    ) -> None:
        """Connect two interfaces.

        The a->b direction uses ``bandwidth_bps``/``delay``; the b->a
        direction uses ``bandwidth_up_bps``/``delay_up`` when given
        (asymmetric access links), else the same values.
        """
        name = f"{iface_a.full_name}<->{iface_b.full_name}"
        rng = LazyRandom(seed)
        self.forward = LinkDirection(
            sim, f"{name}:fwd", bandwidth_bps, delay, queue_bytes, loss_rate,
            rng, jitter=jitter,
        )
        self.reverse = LinkDirection(
            sim,
            f"{name}:rev",
            bandwidth_up_bps if bandwidth_up_bps is not None else bandwidth_bps,
            delay_up if delay_up is not None else delay,
            queue_bytes,
            loss_rate,
            rng,
            jitter=jitter,
        )
        self.forward.dst_iface = iface_b
        self.reverse.dst_iface = iface_a
        iface_a.attach(self.forward)
        iface_b.attach(self.reverse)
        self.name = name

    def add_observer(self, observer: LinkObserver) -> None:
        self.forward.add_observer(observer)
        self.reverse.add_observer(observer)

    def remove_observer(self, observer: LinkObserver) -> None:
        self.forward.remove_observer(observer)
        self.reverse.remove_observer(observer)
