"""Unit tests for the discrete-event kernel."""

import random
import weakref

import pytest

from repro.netsim.kernel import SimError, Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for label in "abc":
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, seen.append, "x")
    timer.cancel()
    sim.run()
    assert seen == []


def test_cancelled_timer_pins_neither_its_callback_nor_its_args():
    """A cancelled entry waits in the heap for lazy deletion. Meanwhile
    it must not keep what it would have called alive, as asyncio's
    Handle.cancel does not (an answered RPC's deadline held its pending
    request, event and response for the whole RPC timeout)."""

    class Owner:
        def on_timeout(self, argument):
            raise AssertionError("a cancelled timer fired")

    class Argument:
        pass

    sim = Simulator()
    owner, argument = Owner(), Argument()
    owner_ref, argument_ref = weakref.ref(owner), weakref.ref(argument)
    timer = sim.schedule(5.0, owner.on_timeout, argument)
    del owner, argument
    assert owner_ref() is not None and argument_ref() is not None
    timer.cancel()
    assert [entry[2] for entry in sim._heap] == [timer]  # still stored
    assert owner_ref() is None and argument_ref() is None
    sim.run()
    assert sim._heap == [] and sim._cancelled == 0


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["early", "late"]


def test_process_sleep_and_result():
    sim = Simulator()

    def worker():
        yield 1.5
        yield 0.5
        return "done"

    result = sim.run_process(worker())
    assert result == "done"
    assert sim.now == 2.0


def test_process_join_receives_result():
    sim = Simulator()

    def child():
        yield 1.0
        return 42

    def parent():
        value = yield sim.spawn(child())
        return value + 1

    assert sim.run_process(parent()) == 43


def test_process_join_reraises_child_exception():
    sim = Simulator()

    def child():
        yield 1.0
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught boom"


def test_unjoined_process_error_surfaces_in_run():
    sim = Simulator()

    def crasher():
        yield 1.0
        raise RuntimeError("unattended failure")

    sim.spawn(crasher())
    with pytest.raises(SimError, match="unattended failure"):
        sim.run()


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    event = sim.event()
    results = []

    def waiter(tag):
        value = yield event
        results.append((tag, value, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(3.0, event.fire, "payload")
    sim.run()
    assert sorted(results) == [("a", "payload", 3.0), ("b", "payload", 3.0)]


def test_event_fired_before_wait_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.fire("early")

    def waiter():
        value = yield event
        return value

    assert sim.run_process(waiter()) == "early"


def test_event_cannot_fire_twice():
    sim = Simulator()
    event = sim.event()
    event.fire()
    with pytest.raises(SimError):
        event.fire()


def test_deadline_and_event_due_at_the_same_instant():
    """A deadline bounding a wait fires the awaited event itself; when
    the real firing lands at the same instant, first, the deadline
    timer still runs before the waiter can cancel it, and must pass."""
    sim = Simulator()
    event = sim.event()

    def waiter():
        timer = sim.schedule_at(1.0, event.fire_unless_fired, "deadline")
        value = yield event
        timer.cancel()
        return value

    sim.schedule_at(1.0, event.fire, "data")  # scheduled before the timer
    assert sim.run_process(waiter()) == "data"


def test_queue_fifo_order_and_blocking():
    sim = Simulator()
    queue = sim.queue()
    got = []

    def consumer():
        for _ in range(3):
            item = yield queue.get()
            got.append((sim.now, item))

    def producer():
        queue.put("x")
        yield 1.0
        queue.put("y")
        queue.put("z")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert [item for _, item in got] == ["x", "y", "z"]


def test_queue_try_get_nonblocking():
    sim = Simulator()
    queue = sim.queue()
    assert queue.try_get() is None
    queue.put(7)
    assert queue.try_get() == 7


def test_kill_process_stops_execution():
    sim = Simulator()
    progress = []

    def worker():
        progress.append("start")
        yield 10.0
        progress.append("never")

    proc = sim.spawn(worker())
    sim.run(until=1.0)
    proc.kill()
    sim.run()
    assert progress == ["start"]
    assert not proc.alive


def test_run_process_timeout_raises():
    sim = Simulator()

    def forever():
        while True:
            yield 1.0

    with pytest.raises(SimError, match="did not finish"):
        sim.run_process(forever(), timeout=5.0)


def test_yield_none_reschedules_same_time():
    sim = Simulator()

    def worker():
        yield None
        return sim.now

    assert sim.run_process(worker()) == 0.0


# -- the event heap -------------------------------------------------------


@pytest.mark.parametrize("nan_call", [
    lambda sim: sim.schedule(float("nan"), lambda: None),
    lambda sim: sim.schedule_at(float("nan"), lambda: None),
], ids=["schedule", "schedule_at"])
def test_nan_time_is_refused(nan_call):
    """A NaN key compares false both ways and would break heap order."""
    sim = Simulator()
    with pytest.raises(SimError):
        nan_call(sim)
    assert sim._heap == []


def test_adversarial_schedule_drains_in_time_seq_order():
    """An adversarial 2 000-op schedule/cancel plan, drained in paused
    steps, fires exactly the live entries in ``sorted((time, seq))``
    order — the oracle is the sort."""
    rng = random.Random(42)
    sim = Simulator()
    fired = []
    timers = []  # (time, seq, timer) in scheduling order
    for _ in range(2000):
        if rng.random() < 0.75:
            time = rng.random() * rng.choice([1e-6, 1e-3, 1.0, 500.0])
            seq = len(timers) + 1
            timers.append((time, seq, sim.schedule_at(time, fired.append,
                                                      (time, seq))))
        elif timers:
            timers[(rng.randrange(1, 50) * 31) % len(timers)][2].cancel()
    expected = sorted((time, seq) for time, seq, timer in timers
                      if not timer.cancelled)
    assert len(sim._heap) - sim._cancelled == len(expected)
    for until in [1e-7, 1e-4, 1e-4, 0.5, 100.0]:
        sim.run(until=until)
        assert fired == [key for key in expected if key[0] <= until]
    sim.run()
    assert fired == expected
    assert sim._heap == [] and sim._cancelled == 0


def test_cancelled_timers_are_purged():
    """A tight arm/cancel loop must not bloat the pending set."""
    sim = Simulator()
    for index in range(5000):
        sim.schedule(1000.0 + index, lambda: None).cancel()
    assert len(sim._heap) - sim._cancelled == 0
    # The backing storage must have been compacted, not merely
    # logically emptied (>50% cancelled triggers a purge).
    assert len(sim._heap) < 2500
    sim.run()
    assert sim.now == 0.0


def test_pushed_back_timer_cancel_is_still_counted():
    """run(until=) pops the first late timer and pushes it back; it must
    come back as a *stored* timer, or its later cancel() goes uncounted
    and the live count and the purge trigger drift."""
    sim = Simulator()
    seen = []
    late = [sim.schedule(5.0 + index, seen.append, index)
            for index in range(200)]
    sim.schedule(1.0, seen.append, "early")
    sim.run(until=2.0)
    assert seen == ["early"]
    late[0].cancel()  # the pushed-back entry
    assert len(sim._heap) - sim._cancelled == 199
    for timer in late[1:101]:
        timer.cancel()
    # 101 of 200 dead is the first count past half (and past _PURGE_MIN);
    # one uncounted cancel would leave the heap uncompacted at 200.
    assert len(sim._heap) == 99 and sim._cancelled == 0
    sim.run()
    assert seen == ["early"] + list(range(101, 200))


def test_deep_queue_drains_in_order():
    """Regression: list-backed Queue popped the head in O(n); the deque
    must stay FIFO and fast at depth."""
    sim = Simulator()
    queue = sim.queue()
    depth = 20000
    for index in range(depth):
        queue.put(index)
    drained = []

    def consumer():
        while len(drained) < depth:
            item = yield queue.get()
            drained.append(item)

    sim.spawn(consumer())
    sim.run()
    assert drained == list(range(depth))


def test_queue_try_get_batch_drain():
    sim = Simulator()
    queue = sim.queue()
    for index in range(100):
        queue.put(index)
    out = []
    while True:
        item = queue.try_get()
        if item is None:
            break
        out.append(item)
    assert out == list(range(100))


def test_event_batch_resume_preserves_waiter_order():
    sim = Simulator()
    event = sim.event()
    order = []

    def waiter(tag):
        yield event
        order.append(tag)

    for tag in "abcdef":
        sim.spawn(waiter(tag))
    sim.schedule(1.0, event.fire)
    sim.run()
    assert order == list("abcdef")


def test_run_until_pushback_keeps_order():
    """A timer past `until` must survive the pause and fire in order."""
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "late")
    sim.schedule(5.0, seen.append, "later")
    sim.schedule(1.0, seen.append, "early")
    sim.run(until=2.0)
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late", "later"]


# -- the end of an instant --------------------------------------------------


def _note(seen, sim, label):
    return lambda: seen.append((label, sim.now))


def test_instant_end_runs_after_the_instant_before_the_clock_moves():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.at_instant_end(_note(seen, sim, "end-a"))
        sim.at_instant_end(_note(seen, sim, "end-b"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, _note(seen, sim, "second"))
    sim.schedule(2.0, _note(seen, sim, "later"))
    sim.run()
    assert seen == [("first", 1.0), ("second", 1.0), ("end-a", 1.0),
                    ("end-b", 1.0), ("later", 2.0)]


def test_cancelled_entry_at_now_does_not_delay_the_instant_end():
    """A dead entry due now is still in the heap when the instant's live
    events are done; the callbacks must not wait for the next live one."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.at_instant_end, _note(seen, sim, "end"))
    sim.schedule(1.0, _note(seen, sim, "dead")).cancel()
    sim.schedule(2.0, _note(seen, sim, "later"))
    sim.run()
    assert seen == [("end", 1.0), ("later", 2.0)]


def test_instant_end_drains_at_run_until_and_on_an_empty_heap():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.at_instant_end, _note(seen, sim, "end"))
    sim.schedule(5.0, _note(seen, sim, "late"))
    sim.run(until=2.0)
    assert seen == [("end", 1.0)] and sim.now == 2.0
    sim.schedule(1.0, sim.at_instant_end, _note(seen, sim, "last"))
    sim.run()
    assert seen == [("end", 1.0), ("last", 3.0), ("late", 5.0)]
    sim.at_instant_end(_note(seen, sim, "idle"))
    sim.run()  # nothing queued at all
    assert seen[-1] == ("idle", 5.0)


def test_instant_end_waits_out_a_halt():
    sim = Simulator()
    seen = []

    def stop():
        sim.at_instant_end(_note(seen, sim, "end"))
        sim.halt()

    sim.schedule(1.0, stop)
    sim.schedule(3.0, _note(seen, sim, "later"))
    sim.run()
    assert seen == [] and sim.now == 1.0
    sim.run()
    assert seen == [("end", 1.0), ("later", 3.0)]


def test_work_scheduled_by_an_instant_end_callback_extends_the_instant():
    sim = Simulator()
    seen = []

    def extra():
        seen.append(("extra", sim.now))
        sim.at_instant_end(_note(seen, sim, "end-2"))

    def end():
        seen.append(("end-1", sim.now))
        sim.schedule(0.0, extra)
        sim.schedule(0.5, _note(seen, sim, "soon"))

    sim.schedule(1.0, sim.at_instant_end, end)
    sim.schedule(2.0, _note(seen, sim, "later"))
    sim.run()
    assert seen == [("end-1", 1.0), ("extra", 1.0), ("end-2", 1.0),
                    ("soon", 1.5), ("later", 2.0)]


def test_instant_end_is_not_a_timer():
    sim = Simulator()
    seen = []
    sim.at_instant_end(_note(seen, sim, "end"))
    assert sim._seq == 0 and sim._heap == []
    sim.run()
    assert seen == [("end", 0.0)] and sim._seq == 0


def test_cancelled_instant_end_callback_does_not_run():
    sim = Simulator()
    seen = []
    first, second, third = (_note(seen, sim, label) for label in "abc")

    def register():
        for callback in (first, second, third):
            sim.at_instant_end(callback)
        sim.cancel_instant_end(second)
        sim.cancel_instant_end(second)  # no longer pending: a no-op

    sim.schedule(1.0, register)
    sim.run()
    assert seen == [("a", 1.0), ("c", 1.0)]
