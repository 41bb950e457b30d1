"""Unit tests for endpoint internals: memory region, send queue, auth."""

import pytest

from repro.core.testbed import Testbed
from repro.crypto.certificate import Restrictions
from repro.crypto.chain import build_delegated_chain
from repro.crypto.keys import KeyPair
from repro.endpoint.auth import AuthError, verify_auth
from repro.endpoint.memory import (
    MEMORY_SIZE,
    MemoryError_,
    OFF_ADDR_IP,
    OFF_CAPS,
    OFF_CLOCK,
    OFF_VERSION,
    SCRATCH_START,
)
from repro.endpoint.sendqueue import SendQueue
from repro.netsim.clock import NANOSECONDS, HostClock
from repro.netsim.kernel import Simulator
from repro.proto.constants import CAP_RAW
from repro.proto.messages import Auth
from repro.rendezvous.descriptor import ExperimentDescriptor


def make_testbed_memory():
    testbed = Testbed()
    return testbed, testbed.endpoint.memory


class TestEndpointMemory:
    def test_version_and_caps(self):
        testbed, memory = make_testbed_memory()
        assert int.from_bytes(memory.read(OFF_VERSION, 2), "big") == 1
        caps = int.from_bytes(memory.read(OFF_CAPS, 2), "big")
        assert caps & CAP_RAW

    def test_address_fields(self):
        testbed, memory = make_testbed_memory()
        ip = int.from_bytes(memory.read(OFF_ADDR_IP, 4), "big")
        assert ip == testbed.endpoint_host.primary_address()

    def test_clock_read_refreshes(self):
        testbed, memory = make_testbed_memory()
        first = int.from_bytes(memory.read(OFF_CLOCK, 8), "big")
        testbed.sim.schedule(1.5, lambda: None)
        testbed.sim.run()
        second = int.from_bytes(memory.read(OFF_CLOCK, 8), "big")
        assert second - first == pytest.approx(1.5 * NANOSECONDS, rel=1e-9)

    def test_out_of_range_read_rejected(self):
        _, memory = make_testbed_memory()
        with pytest.raises(MemoryError_):
            memory.read(MEMORY_SIZE - 2, 4)
        with pytest.raises(MemoryError_):
            memory.read(-1, 4)

    def test_scratch_writable_info_not(self):
        _, memory = make_testbed_memory()
        memory.write(SCRATCH_START, b"ok")
        assert memory.read(SCRATCH_START, 2) == b"ok"
        with pytest.raises(MemoryError_):
            memory.write(OFF_CLOCK, b"\x00" * 8)
        with pytest.raises(MemoryError_):
            memory.write(MEMORY_SIZE - 1, b"xy")  # spills past the end

    def test_info_read_for_monitors_raises_vmfault(self):
        from repro.filtervm.vm import VmFault

        _, memory = make_testbed_memory()
        with pytest.raises(VmFault):
            memory.info_read(MEMORY_SIZE, 1)


class FakeSocket:
    def __init__(self):
        self.sent = []
        self.last_send_ticks = 0
        self.pending_sends = 0
        self.packets_sent = 0

    def note_send(self, ticks):
        self.last_send_ticks = ticks
        self.packets_sent += 1


class TestSendQueue:
    def test_future_send_fires_at_local_time(self):
        sim = Simulator()
        clock = HostClock(sim, offset=100.0)
        queue = SendQueue(sim, clock)
        socket = FakeSocket()
        fired = []

        def on_fire(entry):
            fired.append((sim.now, entry.data))
            return True

        from repro.netsim.clock import CLOCK_EPOCH

        # local epoch+102 = sim t=2 (clock offset 100).
        due_ticks = int((CLOCK_EPOCH + 100.0 + 2.0) * NANOSECONDS)
        queue.schedule(socket, b"data", due_ticks, on_fire)
        sim.run()
        assert fired == [(2.0, b"data")]
        assert queue.sends_completed == 1
        assert socket.packets_sent == 1
        assert socket.last_send_ticks >= due_ticks

    def test_past_time_fires_immediately(self):
        sim = Simulator()
        clock = HostClock(sim, offset=100.0)
        queue = SendQueue(sim, clock)
        socket = FakeSocket()
        fired = []
        queue.schedule(socket, b"x", 0, lambda entry: fired.append(sim.now) or True)
        sim.run()
        assert fired == [0.0]

    def test_cancel_for_socket(self):
        sim = Simulator()
        clock = HostClock(sim)
        queue = SendQueue(sim, clock)
        keep = FakeSocket()
        drop = FakeSocket()
        fired = []
        queue.schedule(keep, b"k", int(1e9), lambda e: fired.append(e.data) or True)
        queue.schedule(drop, b"d", int(1e9), lambda e: fired.append(e.data) or True)
        assert queue.cancel(drop) == 1
        sim.run()
        assert fired == [b"k"]

    def test_failed_send_counts(self):
        sim = Simulator()
        queue = SendQueue(sim, HostClock(sim))
        queue.schedule(FakeSocket(), b"x", 0, lambda e: False)
        sim.run()
        assert queue.sends_failed == 1
        assert queue.sends_completed == 0

    def test_skewed_clock_send_time(self):
        """A fast endpoint clock reaches the scheduled tick early in sim
        time — scheduling honours the local clock, per §3.1."""
        sim = Simulator()
        skew = 0.01  # 1% fast
        clock = HostClock(sim, skew=skew)
        queue = SendQueue(sim, clock)
        from repro.netsim.clock import CLOCK_EPOCH

        fired = []
        due_local = 10.0
        queue.schedule(
            FakeSocket(), b"x", int((CLOCK_EPOCH + due_local) * NANOSECONDS),
            lambda e: fired.append(sim.now) or True,
        )
        sim.run()
        assert fired[0] == pytest.approx(due_local / (1 + skew))


class TestVerifyAuth:
    def _descriptor(self):
        return ExperimentDescriptor(
            name="x", controller_addr=1, controller_port=2, url="u",
            experimenter_key_id=b"\x00" * 32,
        )

    def test_valid_auth_accepted(self):
        operator = KeyPair.from_name("op")
        experimenter = KeyPair.from_name("exp")
        descriptor = self._descriptor()
        chain = build_delegated_chain(operator, experimenter, descriptor.hash())
        auth = Auth(descriptor=descriptor.encode(), chains=(chain.encode(),), priority=0)
        result = verify_auth(auth, [operator.key_id], now=0.0)
        assert result.descriptor == descriptor

    def test_garbage_descriptor_rejected(self):
        with pytest.raises(AuthError, match="bad descriptor"):
            verify_auth(Auth(descriptor=b"junk", chains=(b"",), priority=0), [], 0.0)

    def test_garbage_chain_rejected(self):
        descriptor = self._descriptor()
        with pytest.raises(AuthError, match="bad certificate chain"):
            verify_auth(
                Auth(descriptor=descriptor.encode(), chains=(b"junk",), priority=0),
                [], 0.0,
            )

    def test_priority_cap_enforced(self):
        operator = KeyPair.from_name("op")
        experimenter = KeyPair.from_name("exp")
        descriptor = self._descriptor()
        chain = build_delegated_chain(
            operator, experimenter, descriptor.hash(),
            delegation_restrictions=Restrictions(max_priority=3),
        )
        auth = Auth(descriptor=descriptor.encode(), chains=(chain.encode(),), priority=4)
        with pytest.raises(AuthError, match="exceeds certificate cap"):
            verify_auth(auth, [operator.key_id], now=0.0)
        auth_ok = Auth(descriptor=descriptor.encode(), chains=(chain.encode(),),
                       priority=3)
        verify_auth(auth_ok, [operator.key_id], now=0.0)
