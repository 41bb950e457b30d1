"""Scheduled transmission (the ``nsend`` time parameter, §3.1).

"To send data, the experiment controller uses the nsend command with a
time parameter that tells the endpoint when it should send the data...
The endpoint then attempts to send the data at the specified time,
recording the time it was actually sent."

Times are endpoint-local clock values; the queue converts them to simulator
time through the host clock model. A time in the past sends immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.clock import HostClock
from repro.netsim.kernel import Simulator, Timer

if TYPE_CHECKING:
    from repro.endpoint.netio import EndpointSocket


class ScheduledSend:
    """One queued transmission.

    ``actual_ticks`` is the endpoint-local time the data actually left
    (the paper's "recording the time it was actually sent"); it stays
    ``None`` for sends that failed, were cancelled, or have not fired —
    tick 0 is a legitimate clock reading, not a sentinel. ``timer`` is
    the kernel timer while the send is pending, ``None`` after.
    """

    __slots__ = ("socket", "data", "due_ticks", "timer", "done", "actual_ticks")

    def __init__(self, socket: "EndpointSocket", data: bytes, due_ticks: int) -> None:
        self.socket = socket
        self.data = data
        self.due_ticks = due_ticks
        self.timer: Optional[Timer] = None
        self.done = False
        self.actual_ticks: Optional[int] = None


class SendQueue:
    """Per-session queue of time-scheduled sends."""

    def __init__(self, sim: Simulator, clock: HostClock) -> None:
        self._sim = sim
        self._obs = sim.obs
        self._clock = clock
        self._pending: list[ScheduledSend] = []
        self.sends_completed = 0
        self.sends_failed = 0

    def schedule(
        self,
        socket: "EndpointSocket",
        data: bytes,
        due_ticks: int,
        on_fire: Callable[[ScheduledSend], bool],
    ) -> ScheduledSend:
        """Queue ``data`` to be sent at local time ``due_ticks``.

        ``on_fire`` performs the actual transmission (including monitor
        checks) and returns success. Fires immediately when the time is in
        the past.
        """
        entry = ScheduledSend(socket, data, due_ticks)
        due_local = self._clock.from_ticks(due_ticks)
        due_sim = self._clock.to_true_time(due_local)
        delay = max(0.0, due_sim - self._sim.now)
        self._pending.append(entry)
        entry.timer = self._sim.schedule(delay, self._fire, entry, due_sim,
                                         on_fire)
        return entry

    def _fire(self, entry: ScheduledSend, due_sim: float,
              on_fire: Callable[[ScheduledSend], bool]) -> None:
        if entry.done:
            return
        entry.done = True
        # The timer's arguments hold the entry; dropping the way back
        # frees both (and the payload) as soon as the send is done.
        entry.timer = None
        fired_ticks = self._clock.ticks()
        try:
            self._pending.remove(entry)
        except ValueError:
            pass
        obs = self._obs
        if obs.enabled:
            # How late the send fired relative to its requested time
            # (past-due requests fire immediately, so their whole
            # overdue interval shows up here).
            lag = max(0.0, self._sim.now - due_sim)
            obs.histogram("endpoint.sendqueue_lag_s").observe(lag)
        if on_fire(entry):
            # Only a successful transmission records a send time.
            entry.actual_ticks = fired_ticks
            self.sends_completed += 1
            entry.socket.note_send(fired_ticks)
            if obs.enabled:
                obs.counter("endpoint.sends_completed").inc()
        else:
            self.sends_failed += 1
            if obs.enabled:
                obs.counter("endpoint.sends_failed").inc()

    def cancel(self, socket: Optional["EndpointSocket"] = None) -> int:
        """Cancel the pending sends of ``socket`` as it closes, or of every
        socket (``None``) as the session ends; returns the count."""
        cancelled = [entry for entry in self._pending
                     if socket is None or entry.socket is socket]
        for entry in cancelled:
            entry.done = True
            entry.timer.cancel()
            entry.timer = None
        self._pending = [entry for entry in self._pending if not entry.done]
        return len(cancelled)
