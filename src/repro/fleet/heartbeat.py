"""Heartbeat liveness: drain churning endpoints before RPCs fail on them.

Endpoints beacon :class:`~repro.proto.messages.RdzHeartbeat` frames on
their open rendezvous subscription stream (one small frame per interval,
no extra connection — the shard is infrastructure the endpoint already
talks to, §3.2). Each shard keeps a
:class:`~repro.rendezvous.server.HeartbeatRecord` per endpoint;
:meth:`~repro.fleet.shard.ShardedRendezvous.liveness` merges them.

The controller side closes the loop: a :class:`HeartbeatMonitor` sweeps
the merged registry once per beacon ``interval`` (the world's
``heartbeat_interval``) and compares each pooled endpoint's freshness
(time since its latest beacon, or since adoption if it never beaconed)
against two thresholds, both counted in beats of that interval:

- :data:`STALE_BEATS` (3) missed: the endpoint is presumed churning —
  the pool drains it (no new work; in-flight jobs finish or fail on
  their own). If a fresh beacon arrives later, the endpoint is undrained
  and takes work again.
- :data:`DEPART_BEATS` (10) missed: the endpoint is presumed gone — the
  pool removes it, pinned jobs targeting it fail fast
  (``ENDPOINT_DEPARTED``), and a rejoin is handled as a fresh adoption.

Sweeps iterate endpoints in sorted name order and all timing comes from
the simulator clock, so monitored campaigns stay byte-identical across
same-seed runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from repro.fleet.pool import EndpointPool

# Beacon intervals of silence after which an endpoint is drained, and
# after which it is removed.
STALE_BEATS = 3
DEPART_BEATS = 10


class LivenessSource(Protocol):
    """Anything exposing a merged name -> HeartbeatRecord view."""

    def liveness(self) -> dict: ...


class HeartbeatMonitor:
    """Sweeps shard liveness into pool drain/undrain/remove decisions."""

    def __init__(
        self,
        pool: "EndpointPool",
        source: LivenessSource,
        interval: float = 5.0,
    ) -> None:
        self.pool = pool
        self.source = source
        self.interval = interval
        self.stale_after = STALE_BEATS * interval
        self.depart_after = DEPART_BEATS * interval
        self.sim = pool.sim
        self._obs = pool.sim.obs
        self._timer = None

    # -- the sweep timer ------------------------------------------------------

    def start(self) -> "HeartbeatMonitor":
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval, self._tick)
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self.sweep()
        self._timer = self.sim.schedule(self.interval, self._tick)

    # -- the decision procedure -----------------------------------------------

    @staticmethod
    def _freshness_base(pooled, record) -> float:
        """Latest proof of life: newest beacon, else adoption time."""
        if record is None:
            return pooled.adopted_at
        # An endpoint adopted after its last beacon (e.g. rejoined while
        # the registry still holds the pre-crash record) is as fresh as
        # its adoption.
        return max(record.last_seen, pooled.adopted_at)

    def sweep(self) -> None:
        """One pass: drain the stale, undrain the fresh, remove the gone.

        The pool's moves refuse what does not apply (draining a drained
        endpoint, undraining an active one), so each endpoint simply gets
        the move its age calls for.
        """
        pool = self.pool
        now = self.sim.now
        records = self.source.liveness()
        # Sorted for determinism, and a copy: removal mutates the dict.
        for name, pooled in sorted(pool.endpoints.items()):
            age = now - self._freshness_base(pooled, records.get(name))
            if age > self.depart_after:
                pool.remove(name, reason="heartbeat-departed")
            elif age > self.stale_after:
                pool.drain(name, reason="stale-heartbeat")
            else:
                pool.undrain(name, reason="heartbeat-fresh")
        if self._obs.enabled:
            self._obs.counter("fleet.heartbeat_sweeps").inc()
