"""Soak tests: many sequential sessions must not leak endpoint state."""

from repro.core.testbed import Testbed
from repro.endpoint.endpoint import MAX_SOCKETS
from repro.experiments.ping import ping


def test_sequential_sessions_do_not_leak():
    """Ten back-to-back experiments on one endpoint: sessions, sockets,
    taps, and contention state all return to baseline each time."""
    testbed = Testbed()
    for round_index in range(10):
        server, descriptor = testbed.make_controller(f"round-{round_index}")
        testbed.connect_endpoint(descriptor)

        def driver():
            handle = yield server.wait_endpoint()
            yield from handle.nopen_udp(0, locport=4000 + round_index)
            yield from handle.nopen_raw(1)
            ticks = yield from handle.read_clock()
            assert ticks > 0
            handle.bye()
            return None

        testbed.sim.run_process(driver(), timeout=120.0)
        testbed.run(until=testbed.sim.now + 5.0)
        server.stop()
        assert testbed.endpoint.sessions == {}
        assert testbed.endpoint.contention.active is None
        assert testbed.endpoint.contention.suspended == []
        assert testbed.endpoint_host.ip._taps == []
    # All UDP ports were released along the way.
    for round_index in range(10):
        testbed.endpoint_host.udp.bind(4000 + round_index).close()


def test_experiment_reuses_endpoint_after_prior_bye():
    """A fresh experiment gets full service after a previous one ended."""
    testbed = Testbed()
    results = []
    for name in ("first", "second"):
        server, descriptor = testbed.make_controller(name)
        testbed.connect_endpoint(descriptor)

        def driver():
            handle = yield server.wait_endpoint()
            outcome = yield from ping(handle, testbed.target_address, count=2)
            handle.bye()
            return outcome

        results.append(testbed.sim.run_process(driver(), timeout=120.0))
        testbed.run(until=testbed.sim.now + 5.0)
        server.stop()
    assert all(result.received == 2 for result in results)
    # Same vantage point, same path: identical RTTs across sessions.
    assert results[0].rtt_min == results[1].rtt_min


def test_many_sockets_in_one_session():
    """Exercise the socket table up to its maximum."""
    testbed = Testbed()

    def experiment(handle):
        for sktid in range(MAX_SOCKETS):
            status = yield from handle.nopen_udp(sktid, locport=0)
            handle.expect_ok(status, f"nopen #{sktid}")
        # One past the limit is rejected.
        from repro.proto.constants import ST_BAD_SOCKET

        status = yield from handle.nopen_udp(MAX_SOCKETS, locport=0)
        assert status == ST_BAD_SOCKET
        # Close them all; ids become reusable.
        for sktid in range(MAX_SOCKETS):
            status = yield from handle.nclose(sktid)
            handle.expect_ok(status, f"nclose #{sktid}")
        status = yield from handle.nopen_udp(0, locport=0)
        handle.expect_ok(status, "reopen")
        return True

    assert testbed.run_experiment(experiment, timeout=600.0)
