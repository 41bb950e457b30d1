"""The endpoint capture buffer (§3.1).

Received data is buffered at the endpoint until the controller polls with
``npoll``; this keeps the access link free of control traffic during a
measurement. When the buffer fills, the endpoint "simply stops reading
(and buffering) experiment data": for UDP and raw sockets that means
counted drops, for TCP it creates flow-control back pressure (the socket
stops draining the TCP receive buffer, so its window closes). ``npoll``
reports the packets and bytes dropped due to buffer exhaustion.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.kernel import Event, Simulator
from repro.proto.messages import CaptureRecord

# Per-record bookkeeping overhead charged against the buffer, so that many
# tiny records cannot evade the byte limit.
RECORD_OVERHEAD = 16


class CaptureBuffer:
    """Byte-bounded FIFO of capture records with drop accounting."""

    def __init__(self, sim: Simulator, capacity: int) -> None:
        self._sim = sim
        self._obs = sim.obs
        self.capacity = capacity
        self.used = 0
        self._records: list[CaptureRecord] = []
        self.dropped_packets = 0
        self.dropped_bytes = 0
        # Made on the first wait, like the kernel's Event waiter lists.
        self._data_waiters: Optional[list[Event]] = None
        self._space_waiters: Optional[list[Event]] = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def is_empty(self) -> bool:
        return not self._records

    def space_for(self, size: int) -> bool:
        return self.used + size + RECORD_OVERHEAD <= self.capacity

    def push(self, record: CaptureRecord) -> bool:
        """Append a record; returns False (and counts the drop) if full."""
        size = len(record.data) + RECORD_OVERHEAD
        obs = self._obs
        if self.used + size > self.capacity:
            self.dropped_packets += 1
            self.dropped_bytes += len(record.data)
            if obs.enabled:
                obs.counter("endpoint.capture_dropped").inc()
            return False
        self._records.append(record)
        self.used += size
        if obs.enabled:
            obs.counter("endpoint.captured").inc()
            # Occupancy as a fraction so buffers of any size compare.
            obs.gauge("endpoint.capture_occupancy").set(
                self.used / self.capacity if self.capacity else 1.0
            )
        waiters, self._data_waiters = self._data_waiters, None
        for event in waiters or ():
            # An npoll's deadline may already have fired its event.
            event.fire_unless_fired()
        return True

    def note_drop(self, byte_count: int) -> None:
        """Account for data dropped before reaching the buffer (e.g. a
        UDP datagram discarded because the buffer had no room)."""
        self.dropped_packets += 1
        self.dropped_bytes += byte_count
        if self._obs.enabled:
            self._obs.counter("endpoint.capture_dropped").inc()

    def drain(self) -> tuple[tuple[CaptureRecord, ...], int, int]:
        """Remove and return all records plus the drop counters.

        Drop counters reset on drain: each npoll response reports the drops
        since the previous poll.
        """
        records = tuple(self._records)
        self._records.clear()
        self.used = 0
        if self._obs.enabled:
            self._obs.gauge("endpoint.capture_occupancy").set(0.0)
        dropped_packets, self.dropped_packets = self.dropped_packets, 0
        dropped_bytes, self.dropped_bytes = self.dropped_bytes, 0
        waiters, self._space_waiters = self._space_waiters, None
        for event in waiters or ():
            event.fire(None)
        return records, dropped_packets, dropped_bytes

    def wait_for_data(self) -> Event:
        """An event fired when the next record arrives (pre-fired if data
        is already buffered). A waiter may fire it first itself, at a
        deadline; the next record then passes it over."""
        event = Event(self._sim, name="capture-data")
        if self._records:
            event.fire(None)
        elif self._data_waiters is None:
            self._data_waiters = [event]
        else:
            self._data_waiters.append(event)
        return event

    def wait_for_space(self, size: int) -> Event:
        """An event fired once the buffer can hold ``size`` more bytes
        (a TCP socket waits for it before each read: back pressure)."""
        event = Event(self._sim, name="capture-space")
        if self.space_for(size):
            event.fire(None)
        elif self._space_waiters is None:
            self._space_waiters = [event]
        else:
            self._space_waiters.append(event)
        return event
