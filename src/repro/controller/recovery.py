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
  (``ncap``);
- state that is inherently session-scoped is *not* resurrected:
  scheduled-but-unsent ``nsend`` payloads and unpolled capture records
  died with the old session's send queue and capture buffer, and a
  retried command may execute twice (at-least-once semantics).

All jitter comes from a seeded ``random.Random``, so recovery schedules
are deterministic under fault injection.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from repro.controller.client import (
    ControllerServer,
    EndpointHandle,
    RpcTimeout,
    SessionClosed,
    SessionEvidence,
    Table1Commands,
    op_label,
)
from repro.proto.constants import ST_BAD_SOCKET, ST_OK
from repro.proto.messages import NCap, NClose, NOpen
from repro.util.retry import RetryPolicy
from repro.util.rng import LazyRandom

# How often a reacquire wait looks for the endpoint's fresh session: well
# under any RTT-scale backoff, so the poll never dominates recovery time.
REACQUIRE_POLL_S = 0.1


def _current(name: str) -> property:
    """Session state read off whichever session is current."""
    return property(lambda self: getattr(self.handle, name))


class ResilientHandle(Table1Commands):
    """Table 1 API with transparent retry, reconnect, and state replay.

    Only ``call`` differs from the raw handle: the inherited commands run
    over it, so each is retried on whichever session is current.
    """

    def __init__(
        self,
        server: ControllerServer,
        handle: EndpointHandle,
        policy=None,
        seed: int = 0,
        reacquire_timeout: float = 30.0,
        endpoints_queue=None,
    ) -> None:
        self.server = server
        self.handle = handle
        # Where fresh sessions appear after a loss. A pooled fleet routes
        # each endpoint's reconnects to a per-endpoint queue — adopting
        # straight from server.endpoints would steal another endpoint's
        # session when many share one controller.
        self._endpoints_queue = endpoints_queue
        self.policy = policy or RetryPolicy()
        self.rng = LazyRandom(seed)
        self.reacquire_timeout = reacquire_timeout
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
        # sktid -> the NOpen / NCap fields that succeeded, for replay.
        self._open_sockets: dict[int, dict] = {}
        self._captures: dict[int, dict] = {}
        # Evidence of the sessions this handle has already abandoned, so
        # rollups and pool scoring see one continuous per-endpoint record
        # rather than counters that reset on every reconnect.
        self._prior = SessionEvidence()

    # -- passthrough state ----------------------------------------------------

    endpoint_name = _current("endpoint_name")
    closed = _current("closed")
    interrupted = _current("interrupted")
    notifications = _current("notifications")
    streamed_records = _current("streamed_records")
    # The current session's budget verdict, if any.
    misbehavior = _current("misbehavior")

    def evidence(self) -> SessionEvidence:
        """Evidence summed across every adopted session."""
        return self._prior + self.handle.evidence()

    def open_sktids(self) -> list[int]:
        """Sockets a replay would reopen (what a failed job left behind)."""
        return sorted(self._open_sockets)

    # -- the request path -----------------------------------------------------

    def issue(self, message_cls: type, **fields):
        # Fire-and-forget has no response to retry on; best effort.
        return self.handle.issue(message_cls, **fields)

    def call(self, message_cls: type, **fields) -> Generator:
        """One command with retry/reconnect on transport faults.

        Each attempt is issued on whatever session is current after a
        reconnect. Semantic failures (non-OK statuses, and the
        :class:`CommandError` the named commands make of them) pass
        through untouched — only transport-level faults are retried.
        Replay bookkeeping is keyed on the message type.
        """
        op = op_label(message_cls, fields)
        sktid = fields.get("sktid")
        if message_cls is NClose:
            self._open_sockets.pop(sktid, None)
            self._captures.pop(sktid, None)
        epoch = self.reconnects
        attempt = 0
        while True:
            try:
                if self.handle.closed:
                    yield from self._reacquire(op)
                handle = self.handle
                response = yield from handle.wait(
                    handle.issue(message_cls, **fields)
                )
                break
            # Narrower than client.RECOVERABLE on purpose: a CommandError
            # is the endpoint's answer, not a transport fault — retrying
            # would repeat the refusal, so it passes through to the caller.
            except (SessionClosed, RpcTimeout) as exc:
                if attempt >= self.policy.max_attempts:
                    raise
                delay = self.policy.delay_for(attempt, self.rng)
                attempt += 1
                self.retries += 1
                obs = self._obs
                if obs.enabled:
                    obs.counter("rpc.retries", op=op).inc()
                    obs.emit("rpc", "retry", op=op, attempt=attempt,
                             delay=delay, reason=type(exc).__name__)
                yield delay
        if message_cls is NOpen:
            if (response.status == ST_BAD_SOCKET and attempt > 0
                    and self.reconnects == epoch):
                # At-least-once artifact: a timed-out first attempt opened
                # the socket before its Result went missing.
                response = replace(response, status=ST_OK)
            if response.status == ST_OK:
                self._open_sockets[sktid] = fields
        elif message_cls is NCap and response.status == ST_OK:
            self._captures[sktid] = fields
        return response

    def _reacquire(self, op: str) -> Generator:
        """Adopt the next session the endpoint re-establishes."""
        sim = self.sim
        deadline = sim.now + self.reacquire_timeout
        source = self._endpoints_queue or self.server.endpoints
        while True:
            fresh = source.try_get()
            if fresh is not None:
                self._prior += self.handle.evidence()
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
            yield REACQUIRE_POLL_S

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
            response = yield from handle.call(NOpen, **spec)
            if response.status != ST_OK:
                continue
            sockets_restored += 1
            capture = self._captures.get(sktid)
            if capture is not None:
                response = yield from handle.call(NCap, **capture)
                if response.status == ST_OK:
                    captures_restored += 1
        obs = self._obs
        if obs.enabled:
            obs.emit("rpc", "resume", endpoint=handle.endpoint_name,
                     sockets=sockets_restored, captures=captures_restored)

    # -- session control ------------------------------------------------------

    def wait_resumed(self) -> Generator:
        return (yield from self.handle.wait_resumed())

    def yield_control(self) -> None:
        self.handle.yield_control()

    def bye(self) -> None:
        if not self.handle.closed:
            self.handle.bye()
