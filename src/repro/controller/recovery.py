"""Fault-tolerant wrapper over :class:`EndpointHandle` (reconnect + retry).

The PacketLab interface deliberately leaves retry policy to the
controller: the endpoint is a dumb packet source/sink, so when the
control connection dies the controller must reacquire a session and
rebuild whatever state it still needs. :class:`ResilientHandle` packages
that policy behind the same Table 1 generator API as the raw handle:

- commands that fail with :class:`SessionClosed`/:class:`RpcTimeout` are
  retried under an exponential-backoff-with-jitter
  :class:`~repro.util.retry.RetryPolicy`;
- when the session is gone, the wrapper waits for the endpoint to
  re-dial the controller (endpoints contact controllers, §3.2), adopts
  the fresh handle, and replays the session state the paper's semantics
  let it replay: open sockets (``nopen``) and installed capture filters
  (``ncap``), optionally followed by a clock re-sync;
- state that is inherently session-scoped is *not* resurrected:
  scheduled-but-unsent ``nsend`` payloads and unpolled capture records
  died with the old session's send queue and capture buffer, and a
  retried command may execute twice (at-least-once semantics).

All jitter comes from a seeded ``random.Random``, so recovery schedules
are deterministic under fault injection.
"""

from __future__ import annotations

from random import Random
from typing import Generator, Optional, Union

from repro.controller.client import (
    ControllerServer,
    EndpointHandle,
    RpcTimeout,
    SessionClosed,
)
from repro.controller.clocksync import ClockEstimate, estimate_clock
from repro.filtervm.program import FilterProgram
from repro.netsim.clock import HostClock
from repro.proto.constants import SOCK_RAW, SOCK_TCP, SOCK_UDP, ST_BAD_SOCKET, ST_OK


class ResilientHandle:
    """Table 1 API with transparent retry, reconnect, and state replay."""

    def __init__(
        self,
        server: ControllerServer,
        handle: EndpointHandle,
        policy=None,
        seed: int = 0,
        reacquire_timeout: float = 30.0,
        poll_interval: float = 0.1,
        resync_clock: bool = False,
        controller_clock: Optional[HostClock] = None,
        endpoints_queue=None,
    ) -> None:
        from repro.util.retry import RetryPolicy

        self.server = server
        self.handle = handle
        # Where fresh sessions appear after a loss. A pooled fleet routes
        # each endpoint's reconnects to a per-endpoint queue — adopting
        # straight from server.endpoints would steal another endpoint's
        # session when many share one controller.
        self._endpoints_queue = endpoints_queue
        self.policy = policy or RetryPolicy()
        self.rng = Random(seed)
        self.reacquire_timeout = reacquire_timeout
        self.poll_interval = poll_interval
        self.resync_clock = resync_clock
        self.controller_clock = controller_clock
        self.sim = handle.sim
        self._obs = handle.sim.obs
        self.reconnects = 0
        self.retries = 0
        # Set (permanently) when a reacquire wait times out: the
        # endpoint is gone with no replacement session in sight. Pools
        # watch this through ``on_gone`` to stop advertising the
        # endpoint as ever-runnable (pinned jobs fail fast instead of
        # spinning until campaign timeout).
        self.gone = False
        self.on_gone = None  # callable(handle) -> None, set by the pool
        self.clock_estimate: Optional[ClockEstimate] = None
        self._open_sockets: dict[int, dict] = {}
        self._captures: dict[int, tuple[int, bytes]] = {}
        self._retries_last_invoke = 0
        # Late nsend_nowait failures harvested from sessions this handle
        # has already abandoned (see the deferred_errors property).
        self._deferred_prior: list = []
        # Misbehavior evidence carried across adopted sessions, so pool
        # scoring sees one continuous per-endpoint record rather than a
        # counter that resets on every reconnect.
        self._violations_prior: list = []
        self._exhaustions_prior = 0
        self._abandons_prior = 0
        self._timeouts_prior = 0

    # -- passthrough state ----------------------------------------------------

    @property
    def endpoint_name(self) -> str:
        return self.handle.endpoint_name

    @property
    def closed(self) -> bool:
        return self.handle.closed

    @property
    def interrupted(self) -> bool:
        return self.handle.interrupted

    @property
    def notifications(self):
        return self.handle.notifications

    @property
    def streamed_records(self):
        return self.handle.streamed_records

    @property
    def deferred_errors(self):
        """Late pipelined-command failures across every adopted session."""
        return self._deferred_prior + self.handle.deferred_errors

    @property
    def violations(self):
        """Protocol violations recorded across every adopted session."""
        return self._violations_prior + self.handle.violations

    @property
    def budget_exhaustions(self) -> int:
        """Budget trips across every adopted session."""
        return self._exhaustions_prior + self.handle.budget_exhaustions

    @property
    def abandons(self) -> int:
        """Sessions that died with RPCs in flight and no farewell."""
        return self._abandons_prior + (1 if self.handle.abandoned else 0)

    @property
    def rpc_timeouts(self) -> int:
        """Unanswered commands across every adopted session."""
        return self._timeouts_prior + self.handle.rpc_timeouts

    @property
    def misbehavior(self):
        """The current session's budget verdict, if any."""
        return self.handle.misbehavior

    # -- retry machinery ------------------------------------------------------

    def _invoke(self, factory, op: str) -> Generator:
        """Run ``factory(handle)`` with retry/reconnect on transport faults.

        ``factory`` must build a fresh generator per call (it is re-run
        against whatever handle is current after a reconnect). Semantic
        failures (:class:`CommandError`, non-OK statuses) pass through
        untouched — only transport-level faults are retried.
        """
        attempt = 0
        self._retries_last_invoke = 0
        while True:
            try:
                if self.handle.closed:
                    yield from self._reacquire(op)
                return (yield from factory(self.handle))
            # Narrower than client.RECOVERABLE on purpose: a CommandError
            # is the endpoint's answer, not a transport fault — retrying
            # would repeat the refusal, so it passes through to the caller.
            except (SessionClosed, RpcTimeout) as exc:
                if attempt >= self.policy.max_attempts:
                    raise
                delay = self.policy.delay_for(attempt, self.rng)
                attempt += 1
                self.retries += 1
                self._retries_last_invoke += 1
                obs = self._obs
                if obs.enabled:
                    obs.counter("rpc.retries", op=op).inc()
                    obs.emit("rpc", "retry", op=op, attempt=attempt,
                             delay=delay, reason=type(exc).__name__)
                yield delay

    def _reacquire(self, op: str) -> Generator:
        """Adopt the next session the endpoint re-establishes."""
        sim = self.sim
        deadline = sim.now + self.reacquire_timeout
        source = self._endpoints_queue or self.server.endpoints
        while True:
            fresh = source.try_get()
            if fresh is not None:
                self._deferred_prior.extend(self.handle.deferred_errors)
                self._violations_prior.extend(self.handle.violations)
                self._exhaustions_prior += self.handle.budget_exhaustions
                if self.handle.abandoned:
                    self._abandons_prior += 1
                self._timeouts_prior += self.handle.rpc_timeouts
                self.handle = fresh
                self.gone = False
                self.reconnects += 1
                obs = self._obs
                if obs.enabled:
                    obs.counter("rpc.reconnects").inc()
                    obs.emit("rpc", "reconnect", op=op,
                             endpoint=fresh.endpoint_name,
                             reconnects=self.reconnects)
                yield from self._replay_state()
                return
            if sim.now >= deadline:
                self.gone = True
                obs = self._obs
                if obs.enabled:
                    obs.counter("rpc.handle_gone").inc()
                    obs.emit("rpc", "handle-gone", op=op,
                             endpoint=self.handle.endpoint_name,
                             waited=self.reacquire_timeout)
                if self.on_gone is not None:
                    self.on_gone(self)
                raise SessionClosed(
                    f"endpoint did not reconnect within "
                    f"{self.reacquire_timeout:g}s (op={op})"
                )
            yield self.poll_interval

    def _replay_state(self) -> Generator:
        """Rebuild replayable session state on a fresh session.

        Open sockets and their capture filters are re-established;
        pending scheduled sends and unpolled capture records are gone
        (the old session's send queue and buffer died with it).
        """
        handle = self.handle
        sockets_restored = 0
        captures_restored = 0
        for sktid, spec in list(self._open_sockets.items()):
            status = yield from handle.nopen(sktid, **spec)
            if status != ST_OK:
                continue
            sockets_restored += 1
            cap = self._captures.get(sktid)
            if cap is not None:
                cap_status = yield from handle.ncap(sktid, cap[0], cap[1])
                if cap_status == ST_OK:
                    captures_restored += 1
        if self.resync_clock and self.controller_clock is not None:
            self.clock_estimate = yield from estimate_clock(
                handle, self.controller_clock
            )
        obs = self._obs
        if obs.enabled:
            obs.emit("rpc", "resume", endpoint=handle.endpoint_name,
                     sockets=sockets_restored, captures=captures_restored,
                     resynced=self.resync_clock)

    # -- Table 1 commands -----------------------------------------------------

    def nopen(self, sktid: int, proto: int, locport: int = 0,
              remaddr: int = 0, remport: int = 0) -> Generator:
        spec = dict(proto=proto, locport=locport, remaddr=remaddr,
                    remport=remport)
        epoch = self.reconnects
        status = yield from self._invoke(
            lambda h: h.nopen(sktid, **spec), f"nopen:{sktid}"
        )
        if (
            status == ST_BAD_SOCKET
            and self.reconnects == epoch
            and self._retries_last_invoke > 0
        ):
            # At-least-once artifact: a timed-out first attempt opened
            # the socket before its Result went missing.
            status = ST_OK
        if status == ST_OK:
            self._open_sockets[sktid] = spec
        return status

    def nopen_raw(self, sktid: int) -> Generator:
        return (yield from self.nopen(sktid, SOCK_RAW))

    def nopen_udp(self, sktid: int, locport: int = 0, remaddr: int = 0,
                  remport: int = 0) -> Generator:
        return (yield from self.nopen(sktid, SOCK_UDP, locport, remaddr, remport))

    def nopen_tcp(self, sktid: int, remaddr: int, remport: int,
                  locport: int = 0) -> Generator:
        return (yield from self.nopen(sktid, SOCK_TCP, locport, remaddr, remport))

    def nclose(self, sktid: int) -> Generator:
        self._open_sockets.pop(sktid, None)
        self._captures.pop(sktid, None)
        status = yield from self._invoke(
            lambda h: h.nclose(sktid), f"nclose:{sktid}"
        )
        return status

    def nsend(self, sktid: int, time_ticks: int, data: bytes) -> Generator:
        status = yield from self._invoke(
            lambda h: h.nsend(sktid, time_ticks, data), f"nsend:{sktid}"
        )
        return status

    def nsend_nowait(self, sktid: int, time_ticks: int, data: bytes) -> None:
        # Fire-and-forget has no response to retry on; best effort.
        self.handle.nsend_nowait(sktid, time_ticks, data)

    def ncap(self, sktid: int, time_ticks: int,
             filt: Union[FilterProgram, bytes]) -> Generator:
        program = filt.encode() if isinstance(filt, FilterProgram) else filt
        status = yield from self._invoke(
            lambda h: h.ncap(sktid, time_ticks, program), f"ncap:{sktid}"
        )
        if status == ST_OK:
            self._captures[sktid] = (time_ticks, program)
        return status

    def npoll(self, time_ticks: int) -> Generator:
        return (yield from self._invoke(
            lambda h: h.npoll(time_ticks), "npoll"
        ))

    def mread(self, memaddr: int, bytecnt: int) -> Generator:
        return (yield from self._invoke(
            lambda h: h.mread(memaddr, bytecnt), "mread"
        ))

    def mwrite(self, memaddr: int, data: bytes) -> Generator:
        return (yield from self._invoke(
            lambda h: h.mwrite(memaddr, data), "mwrite"
        ))

    # -- conveniences ---------------------------------------------------------

    def read_clock(self) -> Generator:
        return (yield from self._invoke(
            lambda h: h.read_clock(), "read_clock"
        ))

    def expect_ok(self, status: int, command: str) -> None:
        self.handle.expect_ok(status, command)

    def wait_resumed(self) -> Generator:
        return (yield from self.handle.wait_resumed())

    def yield_control(self) -> None:
        self.handle.yield_control()

    def bye(self) -> None:
        if not self.handle.closed:
            self.handle.bye()
