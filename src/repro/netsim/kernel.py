"""Deterministic discrete-event simulation kernel.

The simulator drives everything in this repository in virtual time. Links,
protocol stacks, endpoints, controllers and rendezvous servers run as
timer callbacks and event continuations; only experiments (job workers,
the campaign driver, experiment servers, baselines and Byzantine fault
loops) are simulated processes.

Design:

- Virtual time is a ``float`` number of seconds. Events scheduled for the
  same instant run in scheduling order (a monotonically increasing sequence
  number breaks ties), which makes every run bit-for-bit reproducible.
- The pending set is one binary heap owned by :class:`Simulator`;
  ``(time, seq)`` is the strict total order events drain in, which is
  what keeps a same-seed run byte-identical.
- Cancelled timers are purged lazily: the simulator counts cancellations
  and compacts the heap once more than half of the stored entries are
  dead, so tight create/cancel loops (RPC timeouts, retry backoff)
  cannot bloat the pending set.
- :meth:`Simulator.at_instant_end` defers a callback to the end of the
  current instant: after every live event at ``now``, before the clock
  advances. It is not a timer and takes no sequence number. The mini-TCP
  holds its in-order ACK there, so a reply sent in the same instant
  carries it.
- Concurrency uses plain Python generators (SimPy style). A process is a
  generator that ``yield``s what it wants to wait for:

  * a number — sleep that many seconds of virtual time,
  * an :class:`Event` — resume when the event fires (receiving its value),
  * a :class:`Process` — resume when that process finishes (receiving its
    return value, or re-raising its exception),
  * ``None`` — yield the scheduler for one tick (resume at the same time).

- A process finishes by returning; its return value becomes the result seen
  by joiners. An uncaught exception inside a process is delivered to its
  joiners, or — if nothing ever joins it — re-raised out of
  :meth:`Simulator.run` so that failures never pass silently.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.obs import Observability

ProcessGen = Generator[Any, Any, Any]

# Compact when more than half the stored entries are cancelled, but never
# bother below this floor (tiny pending sets are cheap to carry).
_PURGE_MIN = 64


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


class Timer:
    """Handle for a scheduled callback; may be cancelled before it fires."""

    __slots__ = ("time", "_callback", "_args", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple):
        self.time = time
        self._callback: Optional[Callable[..., None]] = callback
        self._args = args
        self.cancelled = False
        # The simulator whose heap stores this timer while it can still
        # fire; cancel() reports there for lazy-purge accounting. Cleared
        # when the timer fires, so a late cancel() is not counted.
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            # The entry waits in the heap until popped or purged; like
            # asyncio's Handle.cancel, let it pin nothing meanwhile.
            self._callback = None
            self._args = ()
            sim = self._sim
            if sim is not None:
                sim._note_cancel()


class Event:
    """One-shot broadcast event carrying an optional value.

    Processes wait on an event by yielding it, other code with :meth:`then`.
    Firing resumes every waiter (at the current virtual time) with the fired
    value; waiters arriving after the fire resume immediately.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        # Made on the first waiter: many events fire, or die, with none.
        self._waiters: Optional[list[Callable[..., None]]] = None
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimError(f"event {self.name or id(self)} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, None
        if waiters:
            sim = self._sim
            if len(waiters) == 1:
                sim._resume_soon(waiters[0], value)
            else:
                # One timer resumes the whole cohort in waiter order —
                # same relative order as per-waiter timers (they would
                # have held consecutive sequence numbers), minus the
                # per-waiter Timer and heap traffic.
                sim._resume_batch(waiters, value)

    def fire_unless_fired(self, value: Any = None) -> None:
        """Fire, unless something else already did: the callback for a
        deadline timer bounding a wait on this very event."""
        if not self._fired:
            self.fire(value)

    def then(self, step: Callable[..., None]) -> None:
        """Run ``step(value)`` once fired, in a heap entry of its own; a
        process waits by passing its ``_step``, other code a callback."""
        if self._fired:
            self._sim._resume_soon(step, self._value)
        elif self._waiters is None:
            self._waiters = [step]
        else:
            self._waiters.append(step)

    def drop_waiter(self, step: Callable[..., None]) -> None:
        """Withdraw a ``step`` passed to :meth:`then`; a no-op once fired."""
        if self._waiters is not None and step in self._waiters:
            self._waiters.remove(step)


class Queue:
    """Unbounded FIFO queue with blocking ``get`` for simulated processes.

    ``put`` never blocks. ``get`` returns an :class:`Event` to yield on; if
    an item is already available the event is pre-fired, so ``item = yield
    queue.get()`` works uniformly.
    """

    __slots__ = ("_sim", "_items", "_getters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self._sim)
        if self._items:
            event.fire(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Process:
    """A running simulated process wrapping a generator."""

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "alive",
        "result",
        "error",
        "_completion",
        "_waiting_on",
        "_joined",
    )

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._completion = Event(sim)
        self._waiting_on: Any = None
        self._joined = False

    @property
    def completion(self) -> Event:
        """Event fired (with the result) when the process finishes."""
        return self._completion

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if not self.alive:
            return
        self.alive = False
        if isinstance(self._waiting_on, Event):
            self._waiting_on.drop_waiter(self._step)
        elif isinstance(self._waiting_on, Timer):
            self._waiting_on.cancel()
        self._waiting_on = None
        self._gen.close()
        if not self._completion.fired:
            self._joined = True  # killed on purpose; never re-raise at run()
            self._completion.fire(None)

    def _add_waiter(self, proc: "Process") -> None:
        """Support ``yield process`` (join)."""
        self._joined = True
        self._completion.then(proc._step)

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._completion.fire(_Result(stop.value, None))
            return
        except BaseException as exc:  # noqa: BLE001 - delivered to joiners
            self.alive = False
            self.error = exc
            sim = self._sim
            if sim.obs.enabled:
                sim.obs.counter("kernel.process_failures").inc()
            if not self._joined:
                sim._record_orphan_error(self, exc)
            self._completion.fire(_Result(None, exc))
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        sim = self._sim
        if target is None:
            sim._resume_soon(self._step, None)
        elif isinstance(target, (int, float)):
            if target < 0:
                raise SimError(f"process {self.name} yielded negative delay {target}")
            self._waiting_on = sim.schedule(target, self._step, None)
        elif isinstance(target, Event):
            self._waiting_on = target
            target.then(self._step)
        elif isinstance(target, Process):
            self._waiting_on = target._completion
            target._add_waiter(self)
        else:
            raise SimError(
                f"process {self.name} yielded unsupported object {target!r}"
            )


class _Result:
    """Internal wrapper distinguishing results from exceptions at resume."""

    __slots__ = ("value", "error")

    def __init__(self, value: Any, error: Optional[BaseException]):
        self.value = value
        self.error = error


class Simulator:
    """The discrete-event scheduler."""

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._now = 0.0
        # The pending set: a heapq of (time, seq, timer). The tuple shape
        # keeps comparisons in C: ``seq`` is unique, so ordering never
        # reaches the (incomparable) Timer.
        self._heap: list[tuple[float, int, Timer]] = []
        self._cancelled = 0  # cancelled timers still stored in the heap
        self._seq = 0
        self._orphan_errors: list[tuple[Process, BaseException]] = []
        # at_instant_end() callbacks still to run at the current time.
        self._at_end: list[Callable[[], None]] = []
        self._running = False
        self._halt = False
        # Per-simulator observability hub; disabled unless a caller opts in.
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        # Written as a negated `>=` so that a NaN time, which compares
        # false both ways and would silently break heap order, is refused.
        if not time >= self._now:
            raise SimError(f"cannot schedule at {time} < now {self._now}")
        timer = Timer(time, callback, args)
        timer._sim = self
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, timer))
        return timer

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once every live event at the current time
        has run, before the clock advances.

        Callbacks run in registration order. Not a timer: no sequence
        number, no heap entry. An event a callback schedules at the
        current time runs before the clock moves, and so does any
        callback registered meanwhile. After :meth:`halt` pending
        callbacks wait for the next :meth:`run`.
        """
        self._at_end.append(callback)

    def cancel_instant_end(self, callback: Callable[[], None]) -> None:
        """Withdraw a pending :meth:`at_instant_end` callback (the first
        one equal to ``callback``); a no-op once it has been taken to
        run. An instant with nothing left pending ends for free."""
        try:
            self._at_end.remove(callback)
        except ValueError:
            pass

    def _end_instant(self) -> None:
        callbacks = self._at_end[:]
        self._at_end.clear()  # in place: run() holds a reference
        for callback in callbacks:
            callback()

    def _note_cancel(self) -> None:
        """Called by :meth:`Timer.cancel` while the timer is stored."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > _PURGE_MIN and self._cancelled * 2 > len(heap):
            # Compacted in place: run() holds a reference to this list.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def _resume_soon(self, step: Callable[..., None], value: Any) -> None:
        if isinstance(value, _Result):
            if value.error is not None:
                self.schedule(0.0, step, None, value.error)
            else:
                self.schedule(0.0, step, value.value)
        else:
            self.schedule(0.0, step, value)

    def _resume_batch(self, steps: list[Callable[..., None]], value: Any) -> None:
        """Resume a cohort of waiters with one heap entry."""
        self.schedule(0.0, self._step_batch, steps, value)

    def _step_batch(self, steps: list[Callable[..., None]], value: Any) -> None:
        if isinstance(value, _Result):
            if value.error is not None:
                error = value.error
                for step in steps:
                    step(None, error)
                return
            value = value.value
        for step in steps:
            step(value)

    # -- processes --------------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator; it runs from the next tick."""
        proc = Process(self, gen, name=name)
        self.schedule(0.0, proc._step, None)
        if self.obs.enabled:
            self.obs.counter("kernel.processes_spawned").inc()
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name=name)

    def _record_orphan_error(self, proc: Process, exc: BaseException) -> None:
        self._orphan_errors.append((proc, exc))
        if self.obs.enabled:
            self.obs.emit(
                "kernel", "process-failed", process=proc.name,
                error=type(exc).__name__,
            )

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run queued events until the heap drains or ``until`` is
        reached.

        Raises the first exception that escaped a process nobody joined.
        """
        if self._running:
            raise SimError("re-entrant Simulator.run")
        self._running = True
        # Hot loop: cancelled timers are skipped at pop, the callback is
        # invoked directly, and the orphan check only runs when an error
        # is actually pending. Telemetry accumulates in locals and is
        # flushed once per run() call, so a disabled run pays nothing
        # beyond the `enabled` read. With no at_instant_end() callback
        # pending, the instant's end costs one truthiness check.
        heap = self._heap
        heappop = heapq.heappop
        orphans = self._orphan_errors
        at_end = self._at_end
        enabled = self.obs.enabled
        events = 0
        max_depth = 0
        try:
            while True:
                if heap:
                    entry = heappop(heap)
                    timer = entry[2]
                    if timer.cancelled:
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if at_end and time > self._now:
                        # The instant is over. Its callbacks may schedule
                        # work before this entry, so the entry goes back.
                        heapq.heappush(heap, entry)
                        self._end_instant()
                        continue
                elif at_end:
                    self._end_instant()
                    continue
                else:
                    break
                if until is not None and time > until:
                    # Still stored, so a later cancel() is still counted.
                    heapq.heappush(heap, entry)
                    break
                timer._sim = None
                self._now = time
                timer._callback(*timer._args)
                if orphans:
                    self._check_orphans()
                events += 1
                if enabled:
                    depth = len(heap) - self._cancelled
                    if depth > max_depth:
                        max_depth = depth
                if self._halt:
                    # halt() leaves queued events in place (the clock is
                    # NOT advanced to `until`); a later run() resumes.
                    break
                if events >= max_events:
                    raise SimError(f"event budget exhausted ({max_events} events)")
            if until is not None and self._now < until and not self._halt:
                self._now = until
        finally:
            self._running = False
            self._halt = False
            if enabled:
                obs = self.obs
                obs.counter("kernel.run_calls").inc()
                if events:
                    obs.counter("kernel.events").inc(events)
                obs.gauge("kernel.heap_depth_max").set_max(max_depth)

    def halt(self) -> None:
        """Make the in-flight :meth:`run` return after the current event.

        Unlike reaching ``until``, a halt neither drains nor fast-forwards:
        pending events stay queued at their times and ``now`` stays put,
        so a later ``run()`` continues seamlessly.
        """
        self._halt = True

    def run_process(self, gen: ProcessGen, name: str = "",
                    timeout: Optional[float] = None,
                    halt_on_completion: bool = False) -> Any:
        """Spawn ``gen``, run until it completes, and return its result.

        Convenience used heavily by tests and examples. By default the
        run keeps draining events after the process finishes (work the
        process pre-scheduled — future ``nsend`` deliveries, in-flight
        packets — still lands). With ``halt_on_completion`` the run
        stops at the process's last event instead, so perpetual
        background timers (heartbeats, reconnect backoff) do not force
        the simulation to grind on to ``timeout`` after the work is done.
        """
        proc = self.spawn(gen, name=name)
        deadline = None if timeout is None else self._now + timeout
        if halt_on_completion:
            proc.completion.then(lambda *_: self.halt())
        self.run(until=deadline)
        if proc.error is not None:
            raise proc.error
        if proc.alive:
            raise SimError(f"process {proc.name} did not finish (timeout={timeout})")
        return proc.result

    def _check_orphans(self) -> None:
        if self._orphan_errors:
            proc, exc = self._orphan_errors[0]
            self._orphan_errors.clear()
            raise SimError(f"process {proc.name!r} failed: {exc!r}") from exc
