"""Seeded, deterministic fault injection for the simulated network.

A :class:`FaultPlan` describes adversity — link outage windows, per-link
corruption/duplication/reordering probabilities, endpoint
crash-and-restart, rendezvous server restarts — and arms it on a
simulator. Everything is driven by the simulator clock and a single
``random.Random(seed)``, so two runs with the same plan, seed, and
workload produce bit-identical schedules and bit-identical ``fault.*``
event traces on ``sim.obs``.

Design notes:

- Links keep a ``faults`` slot that is ``None`` by default; the hot
  transmit path pays one attribute load and a branch when no plan is
  armed (same discipline as the observability guards).
- "Corruption" is modeled as consume-link-time-then-discard: the frame
  occupies the link exactly as a real transmission would, then is
  dropped, which is transport-equivalent to a checksum rejection at the
  receiver without manufacturing undecodable packet objects.
- Component faults (endpoint crash, rendezvous restart) only schedule
  calls into the components' own ``crash``/``restart``/``stop`` hooks;
  the recovery behavior lives with the component, the *timing* lives
  here.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random
from typing import TYPE_CHECKING, Generator, Iterable, Optional, Union
from zlib import crc32

from repro.netsim.kernel import Simulator
from repro.netsim.links import Link, LinkDirection
from repro.proto.messages import CaptureRecord, PollData, Resumed, Result

if TYPE_CHECKING:
    from repro.endpoint.endpoint import Endpoint
    from repro.rendezvous.server import RendezvousServer

LinkLike = Union[Link, LinkDirection]

#: Adversary behaviors :meth:`FaultPlan.byzantine` can assign, in the
#: round-robin order used when a plan seeds several adversaries.
BYZANTINE_BEHAVIORS = ("stall", "flood", "fabricate", "desequence", "tamper")
# A stall adversary swallows each reqid-bearing command with probability
# STALL_PROB; a flood adversary sends FLOOD_RECORDS records of
# FLOOD_RECORD_BYTES random bytes per PollData, one burst every
# FLOOD_INTERVAL * U(0.5, 1.5) seconds; a desequence adversary sends one
# illegal frame every DESEQUENCE_INTERVAL * U(0.5, 1.5) seconds; a
# fabricate adversary pads each reply with FABRICATE_RECORDS invented
# records.
STALL_PROB = 0.35
FLOOD_INTERVAL = 0.05
FLOOD_RECORDS = 32
FLOOD_RECORD_BYTES = 512
DESEQUENCE_INTERVAL = 0.25
FABRICATE_RECORDS = 4


class ByzantineAdversary:
    """Seeded misbehavior driver attached to one endpoint.

    An adversary reproduces one Byzantine behavior class against every
    session its endpoint serves:

    - ``stall``    — swallow a fraction of reqid-bearing commands so the
      controller's RPCs time out (slowloris).
    - ``flood``    — pump unsolicited reqid-0 PollData at the controller
      regardless of capture state (stream-budget abuse).
    - ``fabricate``— lie in PollData responses: suppress real capture
      records and substitute invented ones, yielding plausible,
      well-formed results that do not reflect what happened on the
      wire. Invisible to per-session checks; caught by cross-validating
      the job against honest replicas.
    - ``desequence``— emit protocol-illegal frames: Results for reqids
      never issued, Resumed without a preceding Interrupted.
    - ``tamper``   — bit-flip the payload of every shipped capture
      record (plausible frames, corrupt contents).

    All randomness comes from the per-endpoint ``Random`` handed in by
    :meth:`FaultPlan.byzantine`, so a given plan seed produces a
    bit-identical attack schedule. Activations are tallied on the plan
    (``byzantine_events`` / ``byzantine_activations``) and, when
    telemetry is on, as ``fault.byzantine`` counters.
    """

    __slots__ = (
        "plan",
        "endpoint_name",
        "behavior",
        "rng",
    )

    def __init__(
        self,
        plan: "FaultPlan",
        endpoint_name: str,
        behavior: str,
        rng: Random,
    ) -> None:
        if behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(f"unknown byzantine behavior {behavior!r}")
        self.plan = plan
        self.endpoint_name = endpoint_name
        self.behavior = behavior
        self.rng = rng

    def _activate(self, sim: Simulator) -> None:
        plan = self.plan
        key = (self.endpoint_name, self.behavior)
        count = plan.byzantine_activations.get(key, 0)
        plan.byzantine_activations[key] = count + 1
        obs = sim.obs
        if count == 0:
            plan.byzantine_events.append(
                (sim.now, self.endpoint_name, self.behavior)
            )
            if obs.enabled:
                obs.emit("fault", "byzantine", endpoint=self.endpoint_name,
                         behavior=self.behavior)
        if obs.enabled:
            obs.counter("fault.byzantine", endpoint=self.endpoint_name,
                        behavior=self.behavior).inc()

    # -- session hooks (called from repro.endpoint.endpoint.Session) ----------

    def on_session_start(self, session) -> None:
        """Arm active behaviors (flood/desequence) on a fresh session."""
        sim = session.endpoint.node.sim
        if self.behavior == "flood":
            sim.spawn(self._flood_loop(session, sim),
                      name=f"byz-flood-{session.name}")
        elif self.behavior == "desequence":
            sim.spawn(self._desequence_loop(session, sim),
                      name=f"byz-deseq-{session.name}")

    def intercept_command(self, session, message) -> bool:
        """True to swallow ``message`` before dispatch (stall only)."""
        if self.behavior != "stall":
            return False
        if getattr(message, "reqid", None) is None:
            return False
        sim = session.endpoint.node.sim
        if self.rng.random() >= STALL_PROB:
            return False
        self._activate(sim)
        return True

    def outgoing(self, session, message):
        """Transform an outbound frame (fabricate/tamper only)."""
        if self.behavior not in ("fabricate", "tamper"):
            return message
        if not isinstance(message, PollData) or message.reqid == 0:
            return message
        sim = session.endpoint.node.sim
        rng = self.rng
        if self.behavior == "fabricate":
            if not message.records:
                return message
            # Suppress at least one real record (claiming the packet was
            # never captured) and pad with invented ones. The response
            # stays well-formed and the session stays polite — only a
            # replica run on an honest endpoint exposes the lie.
            kept = [r for r in message.records if rng.random() >= 0.5]
            if len(kept) == len(message.records) and len(kept) > 1:
                kept = kept[1:]
            junk = tuple(
                CaptureRecord(
                    sktid=rng.randrange(8),
                    timestamp=rng.getrandbits(48),
                    data=rng.randbytes(24),
                )
                for _ in range(FABRICATE_RECORDS)
            )
            self._activate(sim)
            return replace(message, records=tuple(kept) + junk)
        if not message.records:
            return message
        tampered = tuple(
            replace(record, data=bytes(b ^ 0xFF for b in record.data))
            for record in message.records
        )
        self._activate(sim)
        return replace(message, records=tampered)

    # -- active loops ---------------------------------------------------------

    def _flood_loop(self, session, sim: Simulator) -> Generator:
        rng = self.rng
        while not session.ended:
            records = tuple(
                CaptureRecord(
                    sktid=rng.randrange(8),
                    timestamp=rng.getrandbits(48),
                    data=rng.randbytes(FLOOD_RECORD_BYTES),
                )
                for _ in range(FLOOD_RECORDS)
            )
            session.send_message(PollData(reqid=0, records=records))
            self._activate(sim)
            yield FLOOD_INTERVAL * (0.5 + rng.random())

    def _desequence_loop(self, session, sim: Simulator) -> Generator:
        rng = self.rng
        while not session.ended:
            if rng.random() < 0.5:
                message: object = Result(
                    reqid=0xDEAD0000 + rng.randrange(1 << 16), status=0
                )
            else:
                message = Resumed()
            session.send_message(message)
            self._activate(sim)
            yield DESEQUENCE_INTERVAL * (0.5 + rng.random())


class DirectionFaults:
    """Mutable fault state consulted by ``LinkDirection.transmit``.

    ``down`` is a nesting counter so overlapping outage windows compose;
    the probability fields are set when an impairment starts.
    """

    __slots__ = (
        "plan",
        "down",
        "corrupt_prob",
        "duplicate_prob",
        "reorder_prob",
        "reorder_delay",
    )

    def __init__(self, plan: "FaultPlan") -> None:
        self.plan = plan
        self.down = 0
        self.corrupt_prob = 0.0
        self.duplicate_prob = 0.0
        self.reorder_prob = 0.0
        self.reorder_delay = 0.0

    @property
    def rng(self) -> Random:
        return self.plan.rng


class FaultPlan:
    """A deterministic schedule of network and component faults.

    Describe faults with :meth:`link_outage`, :meth:`link_impairment`,
    :meth:`endpoint_crash`, and :meth:`rendezvous_restart`, then arm the
    plan with :meth:`install`. Faults described after installation are
    armed immediately.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = Random(seed)
        self._sim: Optional[Simulator] = None
        self._pending: list = []  # deferred (callable, args) until install
        self.faults_injected = 0
        # (time, endpoint, downtime-or-None) tuples from endpoint_churn().
        self.churn_events: list = []
        # Byzantine bookkeeping from byzantine(): endpoint-name ->
        # behavior assignments, first-activation (time, endpoint,
        # behavior) tuples, and (endpoint, behavior) -> count tallies.
        self.byzantine_assignments: dict[str, str] = {}
        self.byzantine_events: list = []
        self.byzantine_activations: dict[tuple[str, str], int] = {}

    # -- plumbing -------------------------------------------------------------

    def install(self, sim: Simulator) -> "FaultPlan":
        """Arm the plan on a simulator; idempotent for the same simulator."""
        if self._sim is sim:
            return self
        if self._sim is not None:
            raise RuntimeError("FaultPlan is already installed on a simulator")
        self._sim = sim
        pending, self._pending = self._pending, []
        for arm, args in pending:
            arm(*args)
        return self

    @property
    def installed(self) -> bool:
        return self._sim is not None

    def _arm(self, arm, *args) -> None:
        if self._sim is None:
            self._pending.append((arm, args))
        else:
            arm(*args)

    def _emit(self, name: str, **fields) -> None:
        assert self._sim is not None
        obs = self._sim.obs
        if obs.enabled:
            obs.counter(f"fault.{name.replace('-', '_')}").inc()
            obs.emit("fault", name, **fields)

    def note_packet_fault(self, name: str, direction: LinkDirection,
                          packet) -> None:
        """Per-packet fault accounting (called from the link layer)."""
        self.faults_injected += 1
        obs = direction._sim.obs
        if obs.enabled:
            obs.counter(f"fault.{name.replace('-', '_')}",
                        link=direction.name).inc()
            obs.emit(
                "fault", name, link=direction.name, proto=packet.proto,
                src=packet.src, dst=packet.dst, size=packet.total_length,
            )

    @staticmethod
    def _directions(link: LinkLike, direction: str) -> Iterable[LinkDirection]:
        if isinstance(link, LinkDirection):
            return (link,)
        if direction == "both":
            return (link.forward, link.reverse)
        if direction == "forward":
            return (link.forward,)
        if direction == "reverse":
            return (link.reverse,)
        raise ValueError(f"unknown direction {direction!r}")

    def _state_for(self, direction: LinkDirection) -> DirectionFaults:
        state = direction.faults
        if state is None:
            state = DirectionFaults(self)
            direction.faults = state
        elif state.plan is not self:
            raise RuntimeError(
                f"link {direction.name} is already driven by another FaultPlan"
            )
        return state

    # -- link faults ----------------------------------------------------------

    def link_outage(self, link: LinkLike, start: float, duration: float,
                    direction: str = "both") -> "FaultPlan":
        """Take ``link`` down for ``[start, start+duration)`` sim seconds.

        Packets offered to a downed direction are dropped before they
        consume any link time. Overlapping windows nest.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        states = [self._state_for(d) for d in self._directions(link, direction)]

        def arm() -> None:
            sim = self._sim
            assert sim is not None

            def begin() -> None:
                for state in states:
                    state.down += 1
                self.faults_injected += 1
                self._emit("link-down",
                           links=[d.name for d in
                                  self._directions(link, direction)],
                           until=start + duration)

            def end() -> None:
                for state in states:
                    state.down -= 1
                self._emit("link-up",
                           links=[d.name for d in
                                  self._directions(link, direction)])

            sim.schedule_at(start, begin)
            sim.schedule_at(start + duration, end)

        self._arm(arm)
        return self

    def link_impairment(
        self,
        link: LinkLike,
        corrupt: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_delay: float = 0.05,
        start: float = 0.0,
        direction: str = "both",
    ) -> "FaultPlan":
        """Impair ``link`` with per-packet fault probabilities.

        ``corrupt`` drops the frame after it has consumed its link time
        (checksum-failure analog); ``duplicate`` delivers a back-to-back
        second copy; ``reorder`` holds a packet back ``reorder_delay``
        seconds so later packets overtake it. Active from ``start`` on.
        """
        for prob in (corrupt, duplicate, reorder):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability out of range: {prob}")
        states = [self._state_for(d) for d in self._directions(link, direction)]

        def arm() -> None:
            sim = self._sim
            assert sim is not None

            def begin() -> None:
                for state in states:
                    state.corrupt_prob = corrupt
                    state.duplicate_prob = duplicate
                    state.reorder_prob = reorder
                    state.reorder_delay = reorder_delay
                self._emit("impairment-on",
                           links=[d.name for d in
                                  self._directions(link, direction)],
                           corrupt=corrupt, duplicate=duplicate,
                           reorder=reorder)

            sim.schedule_at(start, begin)

        self._arm(arm)
        return self

    # -- component faults -----------------------------------------------------

    def endpoint_crash(self, endpoint: "Endpoint", at: float,
                       downtime: Optional[float] = None) -> "FaultPlan":
        """Crash ``endpoint`` at ``at``; restart it after ``downtime``.

        A crash severs every control connection mid-stream (no FIN — the
        peer sees a reset) and discards all session state, exactly the
        churn a real deployment's endpoints exhibit. With ``downtime``
        None the endpoint stays down.
        """

        def arm() -> None:
            sim = self._sim
            assert sim is not None

            def crash() -> None:
                self.faults_injected += 1
                self._emit("endpoint-crash", endpoint=endpoint.config.name,
                           sessions=len(endpoint.sessions))
                endpoint.crash()

            sim.schedule_at(at, crash)
            if downtime is not None:

                def restart() -> None:
                    self._emit("endpoint-restart",
                               endpoint=endpoint.config.name)
                    endpoint.restart()

                sim.schedule_at(at + downtime, restart)

        self._arm(arm)
        return self

    def endpoint_churn(
        self,
        endpoints: list["Endpoint"],
        rate_per_min: float = 0.01,
        start: float = 0.0,
        duration: float = 60.0,
        downtime: tuple[float, float] = (5.0, 20.0),
        permanent_fraction: float = 0.0,
    ) -> "FaultPlan":
        """Seeded Poisson join/leave churn over a fleet of endpoints.

        Models the constant membership turnover of a real measurement
        platform: each endpoint leaves (crashes) at ``rate_per_min``
        expected events per endpoint per minute — ``0.01`` is the classic
        "1 %/min" community-platform churn — and rejoins after a
        ``downtime`` drawn uniformly from the given range. A
        ``permanent_fraction`` of leave events never rejoin (the device
        is gone for good; its pool entry must be removed, not drained).

        The whole event schedule is drawn from the plan's seeded RNG in
        one deterministic pass, so two runs with the same plan seed
        produce bit-identical churn. The generated ``(time, endpoint,
        downtime)`` tuples are recorded in :attr:`churn_events`.
        """
        if not endpoints:
            raise ValueError("endpoint_churn needs at least one endpoint")
        if rate_per_min < 0:
            raise ValueError(f"rate must be >= 0, got {rate_per_min}")
        if downtime[0] > downtime[1] or downtime[0] < 0:
            raise ValueError(f"bad downtime range {downtime}")
        if not 0.0 <= permanent_fraction <= 1.0:
            raise ValueError(
                f"permanent_fraction out of range: {permanent_fraction}"
            )
        # Fleet-level Poisson rate: superposition of the per-endpoint
        # processes (events per simulated second).
        fleet_rate = rate_per_min * len(endpoints) / 60.0
        events: list[tuple[float, "Endpoint", Optional[float]]] = []
        if fleet_rate > 0:
            at = start
            while True:
                at += self.rng.expovariate(fleet_rate)
                if at >= start + duration:
                    break
                victim = endpoints[self.rng.randrange(len(endpoints))]
                down: Optional[float] = self.rng.uniform(*downtime)
                if (
                    permanent_fraction > 0
                    and self.rng.random() < permanent_fraction
                ):
                    down = None  # leaves and never comes back
                events.append((at, victim, down))
        self.churn_events.extend(events)
        for at, victim, down in events:
            # Overlapping windows on one endpoint compose through the
            # crash()/restart() idempotence guards: a crash while down is
            # a no-op, as is a restart while up.
            self.endpoint_crash(victim, at=at, downtime=down)
        return self

    def byzantine(
        self,
        endpoints: list["Endpoint"],
        fraction: float = 0.05,
        count: Optional[int] = None,
        behaviors: tuple = BYZANTINE_BEHAVIORS,
    ) -> "FaultPlan":
        """Seed a fraction of the fleet with Byzantine adversaries.

        Picks ``count`` victims (or ``fraction`` of the fleet, at least
        one) with the plan RNG and assigns :data:`BYZANTINE_BEHAVIORS`
        round-robin, so a mixed fleet exercises every containment path.
        Each victim gets its own ``Random`` derived from the plan seed
        and the endpoint name — adversary schedules are independent of
        each other and of every other fault the plan injects.

        Assignments land in :attr:`byzantine_assignments`; the first
        activation of each (endpoint, behavior) pair is recorded in
        :attr:`byzantine_events` and per-pair counts in
        :attr:`byzantine_activations`. Adversaries are active from the
        start and keep :class:`ByzantineAdversary`'s default tuning.
        """
        if not endpoints:
            raise ValueError("byzantine needs at least one endpoint")
        if not behaviors:
            raise ValueError("byzantine needs at least one behavior")
        for behavior in behaviors:
            if behavior not in BYZANTINE_BEHAVIORS:
                raise ValueError(f"unknown byzantine behavior {behavior!r}")
        if count is None:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fraction out of range: {fraction}")
            count = max(1, round(len(endpoints) * fraction))
        count = min(count, len(endpoints))
        victims = sorted(self.rng.sample(range(len(endpoints)), count))
        for slot, index in enumerate(victims):
            endpoint = endpoints[index]
            name = endpoint.config.name
            if endpoint.adversary is not None:
                raise RuntimeError(f"endpoint {name} is already byzantine")
            endpoint.adversary = ByzantineAdversary(
                plan=self,
                endpoint_name=name,
                behavior=behaviors[slot % len(behaviors)],
                rng=Random((self.seed << 8) ^ crc32(name.encode())),
            )
            self.byzantine_assignments[name] = endpoint.adversary.behavior
        return self

    def rendezvous_restart(self, server: "RendezvousServer", at: float,
                           downtime: float = 1.0) -> "FaultPlan":
        """Restart a rendezvous server: down at ``at``, back after
        ``downtime``. Stored experiments survive (rendezvous servers are
        the persistent infrastructure, §3.2); live subscriptions are
        severed and must be re-established by endpoints."""

        def arm() -> None:
            sim = self._sim
            assert sim is not None

            def stop() -> None:
                self.faults_injected += 1
                self._emit("rendezvous-down", port=server.port,
                           subscribers=len(server.subscribers))
                server.stop()

            def restart() -> None:
                self._emit("rendezvous-up", port=server.port,
                           experiments=len(server.experiments))
                server.restart()

            sim.schedule_at(at, stop)
            sim.schedule_at(at + downtime, restart)

        self._arm(arm)
        return self
