"""Endpoint pool: the fleet-side view of accepted controller sessions.

A campaign runs one :class:`~repro.controller.client.ControllerServer`;
endpoints discovered through (sharded) rendezvous dial in and land on
the server's accepted queue. The pool's router drains that queue and
keys each session by endpoint name:

- the first session from an endpoint is adopted into a
  :class:`PooledEndpoint` and wrapped in a
  :class:`~repro.controller.recovery.ResilientHandle` whose reconnect
  source is the endpoint's *own* per-name queue — with hundreds of
  endpoints sharing one server, a recovering handle must never adopt
  some other endpoint's fresh session;
- later sessions from the same endpoint are routed to that queue, where
  the resilient handle's reacquire loop finds them.

Handles are reused across jobs (sessions are expensive: TCP + Hello/Auth
+ chain verification), so a 200-job campaign over 200 endpoints performs
exactly 200 handshakes, not 400.

Lifecycle: real fleets churn, so pooled endpoints move through an
explicit state machine, one row of :data:`TRANSITIONS` per move::

            adopt           quarantine (job failures, misbehavior)
    (new) -------> ACTIVE ----------------------------------> QUARANTINED
                   |  ^  <----------------------------------
             drain |  | undrain        readmit (backoff timer)
                   v  |
                 DRAINING

    remove: ACTIVE, DRAINING or QUARANTINED --> DEPARTED
            (popped from the pool; a rejoin is a fresh adopt)

- **ACTIVE** endpoints take work, one job per session at a time.
- **DRAINING** endpoints take no *new* work (in-flight jobs finish or
  fail on their own); a :class:`~repro.fleet.heartbeat.HeartbeatMonitor`
  drains endpoints whose liveness beacons go stale — before an RPC ever
  has to time out on them — and undrains them if beacons resume.
- **QUARANTINED** endpoints failed too many jobs; readmission is
  automatic after an exponential backoff (each quarantine doubles the
  penalty), so a transient fault burst no longer starves the fleet
  forever.
- **DEPARTED** endpoints are removed from the pool entirely. A pinned
  job targeting one fails fast (``can_ever_run`` is False); an endpoint
  that rejoins later is adopted from scratch.

Every transition is deterministic (backoff jitter comes from a seeded
RNG, timing from the simulator clock). Every move but quarantine fires
``on_change`` so a blocked scheduler wakes the moment dispatchability
shifts; quarantine only takes capacity away.
"""

from __future__ import annotations

import heapq
from random import Random
from typing import TYPE_CHECKING, Callable, Generator, Optional
from zlib import crc32

from repro.controller.recovery import ResilientHandle
from repro.netsim.kernel import Event, Queue
from repro.util.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.controller.client import ControllerServer, EndpointHandle

# PooledEndpoint lifecycle states.
ACTIVE = "active"
DRAINING = "draining"
QUARANTINED = "quarantined"
DEPARTED = "departed"

# Every legal move, (from, to) -> (obs counter, event, fires on_change).
# None is "not pooled yet"; DEPARTED endpoints are popped from the pool.
_REMOVED = ("fleet.endpoints_removed", "endpoint-removed", True)
TRANSITIONS: dict[tuple[Optional[str], str], tuple[str, str, bool]] = {
    (None, ACTIVE): ("fleet.endpoints_adopted", "endpoint-adopted", True),
    (ACTIVE, QUARANTINED): (
        "fleet.endpoints_quarantined", "endpoint-quarantined", False
    ),
    (QUARANTINED, ACTIVE): ("fleet.readmissions", "endpoint-readmitted", True),
    (ACTIVE, DRAINING): ("fleet.endpoints_drained", "endpoint-drained", True),
    (DRAINING, ACTIVE): ("fleet.readmissions", "endpoint-readmitted", True),
    (ACTIVE, DEPARTED): _REMOVED,
    (DRAINING, DEPARTED): _REMOVED,
    (QUARANTINED, DEPARTED): _REMOVED,
}

# The readmission schedule: 5 s after the first quarantine, doubling
# per repeat, capped at 5 minutes, jittered by the pool's seeded RNG.
# ``max_attempts`` is irrelevant here — readmission always happens — but
# RetryPolicy validates it, so give it a value documenting "the schedule
# stops growing after 8 doublings".
DEFAULT_QUARANTINE_BACKOFF = RetryPolicy(
    max_attempts=8, base_delay=5.0, max_delay=300.0, multiplier=2.0,
    jitter=0.1,
)

# Offence weights: how strongly each misbehavior kind moves an
# endpoint's score. Kinds are the statemachine/budget vocabulary plus
# the fleet-level detectors (result-mismatch, auth-failure, job-failure).
MISBEHAVIOR_WEIGHTS: dict[str, float] = {
    "sequence-violation": 1.0,
    "decode-error": 1.0,
    "stream-overflow": 3.0,
    "rpc-stalled": 3.0,
    "violation-budget": 3.0,
    "decode-budget": 3.0,
    "budget-exhausted": 3.0,
    "silent-abandon": 1.0,
    "result-mismatch": 4.0,
    "auth-failure": 2.0,
    "job-failure": 0.5,
    # One unanswered command. Callers often absorb RpcTimeout into a
    # partial result the job still completes with, so timeouts are
    # harvested from the handle directly — otherwise a stall adversary
    # that only eats probes mid-run leaves no scored evidence at all.
    "rpc-timeout": 0.5,
}
# The weight of a kind missing from MISBEHAVIOR_WEIGHTS.
OTHER_MISBEHAVIOR_WEIGHT = 1.0
# A score at or above QUARANTINE_SCORE quarantines an ACTIVE endpoint;
# at or above DEPART_SCORE the endpoint is removed for good.
QUARANTINE_SCORE = 5.0
DEPART_SCORE = 20.0
# Scores halve every SCORE_HALF_LIFE simulated seconds, so a burst of old
# offences is eventually forgiven while an endpoint that keeps offending
# ratchets upward.
SCORE_HALF_LIFE = 60.0


# One session carries one job at a time. sktids are a per-session
# namespace, and CampaignScheduler._scrub_session closes *every* socket
# left open on the handle after a failed job, so two jobs sharing a
# session would collide on sktids and tear each other's sockets down.
JOBS_PER_SESSION = 1


class PoolError(Exception):
    """Raised when the pool cannot satisfy a population request, or on a
    lifecycle move that is not in :data:`TRANSITIONS`."""


class PooledEndpoint:
    """One fleet endpoint: its resilient handle plus scheduling state."""

    __slots__ = (
        "name", "handle", "queue", "inflight",
        "failures", "state", "quarantines",
        "adopted_at", "reported", "_avail_queued",
        "_readmit_timer", "score", "score_at",
    )

    def __init__(self, name: str, handle: ResilientHandle, queue: Queue,
                 adopted_at: float) -> None:
        self.name = name
        self.handle = handle
        self.queue = queue
        self.inflight = 0
        self.failures = 0
        # None until the adoption move; then one of the four states.
        self.state: Optional[str] = None
        self.quarantines = 0  # lifetime count; drives the backoff exponent
        self.adopted_at = adopted_at  # liveness baseline until the first beacon
        # Evidence kind -> how much of handle.evidence() has already been
        # folded into campaign results and scoring: high-water marks, so
        # each late send failure and each offence counts exactly once.
        self.reported: dict[str, int] = {}
        # True while this endpoint's name sits in the pool's availability
        # heap (entries are invalidated lazily, not removed).
        self._avail_queued = False
        # Armed while quarantined: the pending readmission timer.
        self._readmit_timer = None
        # Misbehavior scoring state: current decayed score and the sim
        # time it was last decayed to.
        self.score = 0.0
        self.score_at = 0.0

    @property
    def available(self) -> bool:
        return self.state == ACTIVE and self.inflight < JOBS_PER_SESSION


class EndpointPool:
    """Routes accepted sessions into named, reusable endpoint slots."""

    def __init__(
        self,
        server: "ControllerServer",
        policy: Optional["RetryPolicy"] = None,
        seed: int = 0,
        quarantine_after: Optional[int] = None,
        reacquire_timeout: float = 30.0,
        misbehavior: bool = False,
    ) -> None:
        self.server = server
        self.sim = server.node.sim
        self.policy = policy
        self.seed = seed
        # How long a handle waits for its endpoint to re-dial before
        # giving up (-> removal). Churn-heavy campaigns set this low so
        # stuck jobs fail over to alternates instead of riding out the
        # endpoint's downtime; the endpoint is re-adopted when it
        # rejoins.
        self.reacquire_timeout = reacquire_timeout
        # After this many job failures an endpoint stops receiving
        # unpinned work (None = never quarantine) — until the backoff
        # readmission timer returns it to service.
        self.quarantine_after = quarantine_after
        # False leaves misbehavior scoring off (the default — honest-but-
        # faulty fleets should not be penalized for churn). On, scores
        # turn per-session evidence into quarantine (QUARANTINE_SCORE)
        # and permanent departure (DEPART_SCORE).
        self.misbehavior = misbehavior
        # Lifetime evidence, surviving departure/readoption: undecayed
        # score totals and per-kind offence counts per endpoint name.
        self.misbehavior_totals: dict[str, float] = {}
        self.offense_log: dict[str, dict[str, int]] = {}
        # Names removed for crossing DEPART_SCORE (chronic offenders).
        # `banned` makes the departure permanent: unlike ordinary churn
        # departure, a banned endpoint re-dialing is turned away at
        # adoption instead of rejoining with a clean slate.
        self.misbehavior_departed: list[str] = []
        self.banned: set[str] = set()
        self.endpoints: dict[str, PooledEndpoint] = {}
        # Names removed from the pool (crashed with no return, handle
        # gave up, operator withdrew). A rejoining endpoint is adopted
        # fresh and leaves this set again.
        self.departed: set[str] = set()
        # Min-heap of names with (possibly stale) free capacity: popping
        # the smallest name reproduces the old sorted-scan dispatch order
        # without an O(N log N) sort per acquire. Entries are checked
        # against the live `available` flag on pop.
        self._avail: list[str] = []
        # Seeded independently of the per-endpoint handles so backoff
        # jitter never perturbs their recovery schedules.
        self._rng = Random((seed << 1) ^ 0x9E3779B9)
        # Fired (no args) by every move whose TRANSITIONS row says so:
        # adoption, readmission, undrain, drain, removal. A scheduler
        # blocked on its wake queue hooks this to re-examine the pool.
        self.on_change: Optional[Callable[[], None]] = None
        self._obs = self.sim.obs
        self._arrival: Optional[Event] = None  # the pending wait_endpoint()
        self._population_event = None
        self._population_target = 0

    # -- adoption -------------------------------------------------------------

    def start(self) -> "EndpointPool":
        if self._arrival is None:
            self._await_endpoint()
        return self

    def _await_endpoint(self) -> None:
        self._arrival = self.server.wait_endpoint()
        self._arrival.then(self._route)

    def _route(self, handle: "EndpointHandle") -> None:
        if self._arrival is None:
            return  # handed over as shutdown() ran: nobody adopts it
        self._adopt(handle)
        self._await_endpoint()

    def _adopt(self, raw: "EndpointHandle") -> None:
        name = raw.endpoint_name
        if name in self.banned:
            # Departed for chronic misbehavior: permanently unwelcome.
            raw.bye()
            if self._obs.enabled:
                self._obs.counter("fleet.banned_rejected").inc()
                self._obs.emit("fleet", "banned-rejected", endpoint=name)
            return
        pooled = self.endpoints.get(name)
        if pooled is None:
            queue = self.sim.queue(name=f"pool-{name}")
            handle = ResilientHandle(
                self.server,
                raw,
                policy=self.policy,
                seed=(self.seed << 16) ^ crc32(name.encode()),
                reacquire_timeout=self.reacquire_timeout,
                endpoints_queue=queue,
            )
            handle.on_gone = self._handle_gone
            pooled = PooledEndpoint(name, handle, queue, self.sim.now)
            self.endpoints[name] = pooled
            self.departed.discard(name)
            # Before the move, so the populate waiter resumes ahead of
            # the scheduler that the move's on_change wakes.
            if (
                self._population_event is not None
                and not self._population_event.fired
                and len(self.endpoints) >= self._population_target
            ):
                self._population_event.fire(len(self.endpoints))
            self._transition(pooled, ACTIVE)
        else:
            # A reconnecting endpoint: hand the fresh session to its
            # resilient handle's reacquire loop.
            pooled.queue.put(raw)
            if self._obs.enabled:
                self._obs.counter("fleet.sessions_rerouted").inc()

    def populate(self, count: int, timeout: float = 60.0) -> Generator:
        """Wait until ``count`` distinct endpoints joined the pool.

        Generator — ``yield from pool.populate(n)``. Raises
        :class:`PoolError` if the fleet does not materialize in time.
        """
        self.start()
        if len(self.endpoints) >= count:
            return len(self.endpoints)
        self._population_target = count
        self._population_event = event = self.sim.event(name="pool-populated")
        # The deadline fires the same event, with None for "timed out".
        timer = self.sim.schedule(timeout, event.fire_unless_fired)
        try:
            if (yield event) is None:
                raise PoolError(
                    f"pool reached {len(self.endpoints)}/{count} endpoints "
                    f"within {timeout:g}s"
                )
        finally:
            # Disarm on every exit path: a leftover event would fire on
            # some later adoption with nobody awaiting it, and a stale
            # target would race the next populate() call.
            timer.cancel()
            self._population_event = None
            self._population_target = 0
        return len(self.endpoints)

    # -- scheduling support ---------------------------------------------------

    def _notify(self) -> None:
        callback = self.on_change
        if callback is not None:
            callback()

    def _mark_available(self, pooled: PooledEndpoint) -> None:
        """Enqueue an endpoint that (re)gained free capacity."""
        if not pooled._avail_queued and pooled.available:
            pooled._avail_queued = True
            heapq.heappush(self._avail, pooled.name)

    def has_available(self) -> bool:
        """True if any endpoint has free capacity right now (O(1) am.)."""
        avail = self._avail
        endpoints = self.endpoints
        while avail:
            pooled = endpoints.get(avail[0])
            if pooled is not None and pooled.available:
                return True
            # Stale entry (slot taken, state changed, or endpoint
            # removed since push): drop.
            heapq.heappop(avail)
            if pooled is not None:
                pooled._avail_queued = False
        return False

    def acquire(self, pinned: Optional[str] = None,
                avoid: Optional[str] = None,
                exclude=None) -> Optional[PooledEndpoint]:
        """Claim an endpoint slot, or None if nothing suitable is free.

        Deterministic: unpinned work goes to the first available
        endpoint in name order (stable across same-seed runs). ``avoid``
        steers a retried job away from the endpoint it just failed on —
        unless that endpoint is the only one available, in which case
        spinning on it beats stranding the job. ``exclude`` (a container
        of names) is a *hard* bar with no last resort: cross-validation
        replicas must land on distinct endpoints or their quorum proves
        nothing.
        """
        if pinned is not None:
            pooled = self.endpoints.get(pinned)
            if pooled is not None and pooled.available:
                pooled.inflight += 1
                return pooled
            return None
        avail = self._avail
        endpoints = self.endpoints
        deferred: Optional[PooledEndpoint] = None
        excluded: list[PooledEndpoint] = []
        chosen: Optional[PooledEndpoint] = None
        while avail:
            pooled = endpoints.get(heapq.heappop(avail))
            if pooled is None:
                continue  # removed since push
            pooled._avail_queued = False
            if not pooled.available:
                continue
            if exclude is not None and pooled.name in exclude:
                excluded.append(pooled)
                continue
            if avoid is not None and pooled.name == avoid \
                    and deferred is None:
                # Hold the avoided endpoint aside; keep looking for an
                # alternate.
                deferred = pooled
                continue
            chosen = pooled
            break
        if chosen is None and deferred is not None:
            # Nothing else free: last resort is the avoided endpoint.
            chosen, deferred = deferred, None
        # Put every held-aside endpoint back before returning.
        for held in excluded:
            self._mark_available(held)
        if deferred is not None:
            self._mark_available(deferred)
        if chosen is None:
            return None
        chosen.inflight += 1
        # Multi-slot endpoints stay in the heap while capacity remains.
        self._mark_available(chosen)
        return chosen

    def release(self, pooled: PooledEndpoint, failed: bool = False) -> None:
        pooled.inflight -= 1
        if failed:
            pooled.failures += 1
            if (
                self.quarantine_after is not None
                and pooled.failures >= self.quarantine_after
                and pooled.state == ACTIVE
            ):
                self._quarantine(pooled)
        # Either branch can free a slot (non-ACTIVE states gate via
        # `available`, so _mark_available is a no-op there).
        self._mark_available(pooled)

    def can_ever_run(self, pinned: Optional[str] = None) -> bool:
        """Could a job with this pin ever be dispatched (ignoring load)?

        Every pooled endpoint counts: a quarantined one always has a
        readmission timer pending, and a draining one either freshens
        (undrain) or departs (removal) — both moves fire ``on_change``
        so waiting schedulers re-check. Departed endpoints (and handles
        that gave up reacquiring) do not: pinned work on them must fail
        fast rather than spin until campaign timeout.
        """
        if pinned is not None:
            pooled = self.endpoints.get(pinned)
            return pooled is not None and not pooled.handle.gone
        return bool(self.endpoints)

    # -- misbehavior scoring ----------------------------------------------------

    def _decay_score(self, pooled: PooledEndpoint) -> None:
        if not self.misbehavior:
            return
        now = self.sim.now
        if pooled.score > 0.0:
            elapsed = now - pooled.score_at
            if elapsed > 0.0:
                pooled.score *= 0.5 ** (elapsed / SCORE_HALF_LIFE)
        pooled.score_at = now

    def misbehavior_score(self, name: str) -> float:
        """Current (decayed) score for a pooled endpoint; 0 if unknown."""
        pooled = self.endpoints.get(name)
        if pooled is None:
            return 0.0
        self._decay_score(pooled)
        return pooled.score

    def report_misbehavior(self, name: str, kind: str, count: int = 1,
                           detail: str = "") -> float:
        """Score an offence against an endpoint; returns the new score.

        No-op unless the pool was built with ``misbehavior=True``. Each
        offence weighs its kind's :data:`MISBEHAVIOR_WEIGHTS` entry.
        Crossing :data:`QUARANTINE_SCORE` sends an ACTIVE offender
        through the quarantine/backoff machinery; crossing
        :data:`DEPART_SCORE` removes it permanently.  Evidence is also
        logged to ``misbehavior_totals``/``offense_log``, which survive
        departure so reports and benches can audit detection even after
        the offender is gone.
        """
        if not self.misbehavior:
            return 0.0
        weight = MISBEHAVIOR_WEIGHTS.get(kind, OTHER_MISBEHAVIOR_WEIGHT)
        added = weight * count
        self.misbehavior_totals[name] = (
            self.misbehavior_totals.get(name, 0.0) + added
        )
        log = self.offense_log.setdefault(name, {})
        log[kind] = log.get(kind, 0) + count
        if self._obs.enabled:
            self._obs.counter("pool.misbehavior_score", kind=kind).inc(count)
            self._obs.emit("pool", "misbehavior", endpoint=name, kind=kind,
                           count=count, detail=detail)
        pooled = self.endpoints.get(name)
        if pooled is None:
            return 0.0  # already departed; evidence logged above
        self._decay_score(pooled)
        pooled.score += added
        score = pooled.score
        if score >= DEPART_SCORE:
            self.banned.add(name)
            self.misbehavior_departed.append(name)
            self.remove(name, reason="chronic-misbehavior")
        elif score >= QUARANTINE_SCORE and pooled.state == ACTIVE:
            self._quarantine(pooled, reason="misbehavior")
        return score

    def misbehavior_summary(self) -> dict:
        """Deterministic audit of all scored offences (for reports)."""
        return {
            "totals": {
                name: round(total, 6)
                for name, total in sorted(self.misbehavior_totals.items())
            },
            "offenses": {
                name: dict(sorted(kinds.items()))
                for name, kinds in sorted(self.offense_log.items())
            },
            "departed": sorted(self.misbehavior_departed),
        }

    # -- lifecycle transitions ------------------------------------------------

    def _transition(self, pooled: PooledEndpoint, to: str,
                    **fields) -> None:
        """Make one :data:`TRANSITIONS` move; anything else raises.

        The one place the pool changes an endpoint's state: entering
        ACTIVE offers its free slot, and the move's counter and event
        (``endpoint=`` first, then ``fields`` in the caller's order) are
        observed before ``on_change`` fires, if the row says it does.
        """
        previous = pooled.state
        move = TRANSITIONS.get((previous, to))
        if move is None:
            raise PoolError(
                f"illegal pool move for {pooled.name}: {previous} -> {to}"
            )
        counter, event, pokes = move
        pooled.state = to
        if to == ACTIVE:
            self._mark_available(pooled)
        if self._obs.enabled:
            self._obs.counter(counter).inc()
            if previous is None or to == DEPARTED:
                self._obs.gauge("fleet.pool_size").set(len(self.endpoints))
            self._obs.emit("fleet", event, endpoint=pooled.name, **fields)
        if pokes:
            self._notify()

    def _quarantine(self, pooled: PooledEndpoint,
                    reason: str = "job-failures") -> None:
        """ACTIVE -> QUARANTINED, with readmission pre-scheduled."""
        pooled.quarantines += 1
        delay = DEFAULT_QUARANTINE_BACKOFF.delay_for(
            pooled.quarantines - 1, self._rng
        )
        pooled._readmit_timer = self.sim.schedule(delay, self._readmit, pooled)
        self._transition(pooled, QUARANTINED, failures=pooled.failures,
                         reason=reason, readmit_in=delay)

    def _readmit(self, pooled: PooledEndpoint) -> None:
        """QUARANTINED -> ACTIVE once the backoff penalty elapsed
        (``remove`` and ``shutdown`` cancel the timer)."""
        pooled._readmit_timer = None
        # A fresh chance: the failure count restarts, but `quarantines`
        # keeps growing so a relapsing endpoint backs off harder.
        pooled.failures = 0
        self._transition(pooled, ACTIVE, reason="quarantine-backoff",
                         quarantines=pooled.quarantines)

    def drain(self, name: str, reason: str = "stale-heartbeat") -> bool:
        """ACTIVE -> DRAINING: stop offering new work, let in-flight
        jobs finish. Returns True if the transition happened."""
        pooled = self.endpoints.get(name)
        if pooled is None or pooled.state != ACTIVE:
            return False
        self._transition(pooled, DRAINING, reason=reason,
                         inflight=pooled.inflight)
        return True

    def undrain(self, name: str, reason: str = "heartbeat-fresh") -> bool:
        """DRAINING -> ACTIVE: the endpoint proved it is alive again.
        Returns True if the transition happened."""
        pooled = self.endpoints.get(name)
        if pooled is None or pooled.state != DRAINING:
            return False
        self._transition(pooled, ACTIVE, reason=reason)
        return True

    def remove(self, name: str, reason: str = "departed") -> bool:
        """Any pooled state -> DEPARTED: drop the endpoint from the pool.

        ``can_ever_run`` turns False for pins on it immediately; a
        rejoining endpoint (same name, fresh sessions) is adopted from
        scratch. In-flight jobs keep their handle reference and fail or
        finish on their own. Returns False if ``name`` is not pooled.
        """
        pooled = self.endpoints.pop(name, None)
        if pooled is None:
            return False
        if pooled._readmit_timer is not None:
            pooled._readmit_timer.cancel()
            pooled._readmit_timer = None
        self.departed.add(name)
        self._transition(pooled, DEPARTED, reason=reason,
                         state=pooled.state, inflight=pooled.inflight)
        return True

    def _handle_gone(self, handle: ResilientHandle) -> None:
        """A resilient handle gave up reacquiring: its endpoint is gone."""
        name = handle.endpoint_name
        pooled = self.endpoints.get(name)
        if pooled is not None and pooled.handle is handle:
            self.remove(name, reason="handle-gone")

    # -- teardown -------------------------------------------------------------

    def shutdown(self, bye: bool = True) -> None:
        """Stop routing; optionally wave goodbye to every live session."""
        if self._arrival is not None:
            self._arrival.drop_waiter(self._route)
            self._arrival = None
        for pooled in self.endpoints.values():
            if pooled._readmit_timer is not None:
                pooled._readmit_timer.cancel()
                pooled._readmit_timer = None
            pooled.handle.on_gone = None  # else the bound method keeps a cycle
        if bye:
            for name in sorted(self.endpoints):
                handle = self.endpoints[name].handle
                if handle is not None and not handle.closed:
                    handle.bye()
