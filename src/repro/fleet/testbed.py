"""The one world every testbed is, and its fleet-scale testbed.

A :class:`World` is the paper's Figure 1 cast on a simulated network —
a controller host with a port allocator, a measurement target, an
experimenter, and ``endpoints`` — and everything that does not depend on
how many endpoints there are is defined on it, once: ports,
``make_controller``, telemetry, ``run`` and ``run_campaign``.
:class:`repro.core.testbed.Testbed` is the world with one endpoint that
dials the controller directly; :class:`FleetTestbed` wires the cast at
fleet scale:

- a :func:`~repro.netsim.topology.fleet_topology` network with N
  endpoint hosts (star/tree/mesh),
- K operator keys with endpoints partitioned among them (so channel
  sharding has real structure),
- a :class:`~repro.fleet.shard.ShardedRendezvous` of one or more
  rendezvous servers,
- one controller host running the campaign's
  :class:`~repro.controller.client.ControllerServer`.

On a fleet ``run_campaign`` performs the whole Figure 1 workflow end to
end: publish to every shard, subscribe every endpoint at its shard, wait
for the pool to populate from inbound sessions, schedule the jobs, and
tear everything down — returning a deterministic
:class:`~repro.fleet.scheduler.CampaignReport`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator, Optional

from repro.controller.client import ControllerServer, SessionBudget
from repro.controller.session import Experimenter
from repro.crypto.certificate import Restrictions
from repro.crypto.keys import KeyPair
from repro.endpoint.config import EndpointConfig
from repro.endpoint.endpoint import Endpoint
from repro.fleet.aggregate import ResultAggregator
from repro.fleet.heartbeat import HeartbeatMonitor, LivenessSource
from repro.fleet.pool import EndpointPool
from repro.fleet.scheduler import (
    CampaignContext,
    CampaignJob,
    CampaignReport,
    CampaignScheduler,
    CrossValidation,
)
from repro.fleet.shard import ShardedRendezvous, subscribe_endpoint
from repro.netsim.node import Node
from repro.netsim.topology import Network, fleet_topology
from repro.obs import TelemetrySnapshot
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.rendezvous.server import RendezvousServer
from repro.util.retry import RetryPolicy

DEFAULT_CONTROLLER_PORT = 7000
# How long a campaign waits for every endpoint of the world to join the
# pool before giving up with a PoolError.
POPULATE_TIMEOUT = 120.0


class World:
    """A simulated network carrying the Figure 1 cast, any number of
    endpoints wide. Subclasses build the topology and the cast."""

    __test__ = False  # its subclasses are named *Testbed; not pytest classes

    def __init__(self, network: Network, controller_host: Node,
                 target_host: Node, experimenter: Experimenter) -> None:
        self.net = network
        self.sim = network.sim
        self.controller_host = controller_host
        self.target_host = target_host
        self.experimenter = experimenter
        # Every endpoint of this world; a campaign waits for all of them.
        self.endpoints: list[Endpoint] = []
        # Seeds the campaign's pool and scheduler RNGs.
        self.seed = 0
        # Seconds between endpoint liveness beacons; 0 = no beacons, and
        # campaigns then run without a heartbeat monitor.
        self.heartbeat_interval = 0.0
        self._next_port = DEFAULT_CONTROLLER_PORT
        # Ports already claimed on the controller host. Controllers
        # allocate upward from 7000 and rendezvous servers historically
        # sat at 7100, so the 101st controller used to collide with the
        # rendezvous listener; tracking reservations closes that hole.
        self._used_ports: set[int] = set()

    # -- ports and components --------------------------------------------------

    def allocate_port(self) -> int:
        """Next unused port on the controller host (collision-free even
        with many controllers and rendezvous servers coexisting)."""
        while self._next_port in self._used_ports:
            self._next_port += 1
        port = self._next_port
        self._used_ports.add(port)
        self._next_port += 1
        return port

    def reserve_port(self, port: int) -> int:
        """Claim a specific controller-host port; raises if already taken."""
        if port in self._used_ports:
            raise RuntimeError(f"port {port} already in use on "
                               f"{self.controller_host.name}")
        self._used_ports.add(port)
        return port

    def make_controller(
        self,
        experiment_name: str = "experiment",
        priority: int = 0,
        port: Optional[int] = None,
        experiment_restrictions: Optional[Restrictions] = None,
        experimenter: Optional[Experimenter] = None,
        rpc_timeout: Optional[float] = None,
        session_budget: Optional[SessionBudget] = None,
    ) -> tuple[ControllerServer, ExperimentDescriptor]:
        """Start a ControllerServer for a named experiment on the
        controller host."""
        host = self.controller_host
        who = experimenter or self.experimenter
        if port is None:
            port = self.allocate_port()
        else:
            self._used_ports.add(port)
        descriptor = who.make_descriptor(host, port, experiment_name)
        identity = who.identity(
            descriptor,
            priority=priority,
            experiment_restrictions=experiment_restrictions,
        )
        server = ControllerServer(
            host, port, identity, rpc_timeout=rpc_timeout,
            budget=session_budget,
        ).start()
        return server, descriptor

    @property
    def target_address(self) -> int:
        return self.target_host.primary_address()

    def enable_telemetry(self):
        """Switch on the observability layer for this world's simulator.

        Returns the in-memory ring sink that will collect structured
        events. Idempotent; ``run_experiment(collect_telemetry=True)``
        calls this automatically, and a warehouse campaign run with it
        on persists the events it collects.
        """
        obs = self.sim.obs
        obs.enabled = True
        return obs.ensure_ring_sink()

    def telemetry_snapshot(self) -> TelemetrySnapshot:
        """Bundle the current metrics + buffered events for export."""
        return self.sim.obs.telemetry_snapshot()

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    # -- how endpoints reach a campaign: the per-world part ---------------------

    @contextmanager
    def _campaign_rendezvous(self) -> Iterator[Optional[LivenessSource]]:
        """Hold up whatever rendezvous a campaign publishes through.

        Entered before the campaign's controller starts and left after
        it stops; yields the registry endpoint beacons land in, for the
        heartbeat monitor. Nothing here: a world without rendezvous
        servers of its own.
        """
        yield None

    def _attach_endpoints(self, descriptor: ExperimentDescriptor,
                          experiment_restrictions: Optional[Restrictions]
                          ) -> Generator:
        """Make every endpoint dial the campaign's controller (generator:
        the first step of the campaign's driver process)."""
        raise NotImplementedError

    # -- the campaign driver ---------------------------------------------------

    def run_campaign(
        self,
        jobs: list[CampaignJob],
        campaign_name: str = "campaign",
        max_concurrency: int = 16,
        rate: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        pool_policy: Optional[RetryPolicy] = None,
        rpc_timeout: Optional[float] = 5.0,
        quarantine_after: Optional[int] = None,
        reacquire_timeout: float = 30.0,
        timeout: float = 3600.0,
        experiment_restrictions: Optional[Restrictions] = None,
        session_budget: Optional[SessionBudget] = None,
        misbehavior: bool = False,
        cross_validate: Optional[CrossValidation] = None,
        warehouse: Optional[object] = None,
    ) -> CampaignReport:
        """Attach every endpoint, populate, schedule, tear down — one call.

        The same driver serves a one-endpoint :class:`Testbed` (a pool
        of size one: jobs queue up, the session is reused, failures
        reschedule with backoff) and an N-endpoint :class:`FleetTestbed`
        (publish to every shard, subscribe every endpoint at its shard).

        Deterministic: the same world seed and job list yield an
        identical schedule and a byte-identical ``report.to_json()``.

        When the world was built with ``heartbeat_interval`` > 0, a
        :class:`~repro.fleet.heartbeat.HeartbeatMonitor` sweeps once per
        beacon interval alongside the scheduler: endpoints silent for 3
        intervals are drained before RPCs fail on them, and ones silent
        for 10 intervals are removed.

        Byzantine containment is opt-in: ``session_budget`` arms
        per-session resource budgets on every handle,
        ``misbehavior=True`` turns endpoint-level scoring, quarantine and
        departure on, and ``cross_validate`` re-runs a seeded sample of
        jobs redundantly to catch fabricated results.

        Persistence is opt-in too: pass ``warehouse`` (a
        :class:`~repro.warehouse.segments.Warehouse` or a directory
        path) and every job completion is teed — per-job ``results``
        rows, raw ``samples`` values, the campaign summary, and
        materialized rollups — into an immutable columnar campaign,
        committed atomically after the run. When the world's telemetry
        is on (:meth:`enable_telemetry`), the obs event stream goes into
        the ``events`` table too. All persisted bytes are a pure function
        of the seed: same-seed campaigns produce byte-identical segments.
        """
        aggregator = ResultAggregator(campaign=campaign_name)
        store = event_ring = None
        if warehouse is not None:
            # Imported lazily: repro.warehouse builds its rollups on
            # repro.fleet.aggregate, so a top-level import would cycle.
            from repro.warehouse import (
                RecordingAggregator,
                Warehouse,
                persist_campaign,
            )

            store = (warehouse if isinstance(warehouse, Warehouse)
                     else Warehouse(str(warehouse)))
            aggregator = RecordingAggregator(
                campaign=campaign_name, time_fn=lambda: self.sim.now
            )
            if self.sim.obs.enabled:
                event_ring = self.sim.obs.ensure_ring_sink()
        with self._campaign_rendezvous() as liveness:
            server, descriptor = self.make_controller(
                campaign_name,
                rpc_timeout=rpc_timeout,
                experiment_restrictions=experiment_restrictions,
                session_budget=session_budget,
            )
            pool = EndpointPool(
                server,
                policy=pool_policy,
                seed=self.seed,
                quarantine_after=quarantine_after,
                reacquire_timeout=reacquire_timeout,
                misbehavior=misbehavior,
            )
            if misbehavior:
                server.on_auth_fail = (
                    lambda name, reason: pool.report_misbehavior(
                        name, "auth-failure", detail=reason
                    )
                )
            monitor: Optional[HeartbeatMonitor] = None
            if self.heartbeat_interval > 0:
                monitor = HeartbeatMonitor(
                    pool, liveness, interval=self.heartbeat_interval
                )
            context = CampaignContext(
                sim=self.sim,
                controller_host=self.controller_host,
                target_address=self.target_address,
            )
            scheduler = CampaignScheduler(
                pool,
                jobs,
                name=campaign_name,
                max_concurrency=max_concurrency,
                rate=rate,
                retry_policy=retry_policy,
                seed=self.seed,
                context=context,
                aggregator=aggregator,
                cross_validate=cross_validate,
            )

            def driver() -> Generator:
                yield from self._attach_endpoints(
                    descriptor, experiment_restrictions
                )
                yield from pool.populate(
                    len(self.endpoints), timeout=POPULATE_TIMEOUT
                )
                if monitor is not None:
                    monitor.start()
                return (yield from scheduler.run())

            try:
                report = self.sim.run_process(
                    driver(), name=f"campaign-{campaign_name}",
                    timeout=timeout,
                    # Heartbeat publishers never drain the event queue;
                    # stop the run when the campaign driver completes.
                    halt_on_completion=True,
                )
            finally:
                if monitor is not None:
                    monitor.stop()
                pool.shutdown()
                server.stop()
        if store is not None:
            persist_campaign(
                store, report,
                events=(event_ring.events() if event_ring is not None
                        else None),
            )
        return report


class FleetTestbed(World):
    """N endpoints, K rendezvous shards, one campaign controller."""

    def __init__(
        self,
        endpoint_count: int = 20,
        topology: str = "star",
        shards: int = 1,
        operator_count: int = 1,
        seed: int = 0,
        fanout: int = 8,
        scheduler: Optional[str] = None,
        heartbeat_interval: float = 0.0,
    ) -> None:
        # There is one event queue. The keyword survives only because the
        # frozen perf ledger (perf/workloads.py, its only caller) passes
        # scheduler="heap"; drop it with the next `benchmark` PR.
        if scheduler not in (None, "heap"):
            raise ValueError(f"unknown scheduler {scheduler!r} (only 'heap')")
        if operator_count < 1 or operator_count > endpoint_count:
            operator_count = max(1, min(operator_count, endpoint_count))
        net, endpoint_hosts, controller_host, target_host = fleet_topology(
            endpoint_count,
            kind=topology,
            fanout=fanout,
            seed=seed,
        )
        super().__init__(net, controller_host, target_host,
                         Experimenter("fleet-experimenter"))
        self.seed = seed
        self.heartbeat_interval = heartbeat_interval
        self.endpoint_hosts = endpoint_hosts

        # Figure 1 cast, pluralized.
        self.operators = [
            KeyPair.from_name(f"fleet-operator-{index}")
            for index in range(operator_count)
        ]
        self.rendezvous_operator = KeyPair.from_name("fleet-rdz-operator")
        for operator in self.operators:
            self.experimenter.granted_endpoint_access(operator)
        self.experimenter.granted_publish_access(self.rendezvous_operator)

        for index, host in enumerate(endpoint_hosts):
            operator = self.operators[index % operator_count]
            config = EndpointConfig(
                name=f"ep{index}",
                trusted_key_ids=[operator.key_id],
                # Fleet endpoints ride out churn: they re-dial their
                # controller and rendezvous after a loss or a restart.
                reconnect=True,
                heartbeat_interval=heartbeat_interval,
            )
            self.endpoints.append(Endpoint(host, config))

        self.rendezvous = ShardedRendezvous([
            RendezvousServer(
                controller_host,
                self.allocate_port(),
                trusted_publisher_key_ids=[self.rendezvous_operator.key_id],
            )
            for _ in range(max(1, shards))
        ])

    # -- how the fleet reaches a campaign's controller -------------------------

    def subscribe_fleet(self) -> None:
        """Point every endpoint at its rendezvous shard(s)."""
        for endpoint in self.endpoints:
            subscribe_endpoint(endpoint, self.rendezvous)

    @contextmanager
    def _campaign_rendezvous(self) -> Iterator[ShardedRendezvous]:
        self.rendezvous.start()
        try:
            yield self.rendezvous
        finally:
            self.rendezvous.stop()

    def _attach_endpoints(self, descriptor, experiment_restrictions):
        results = yield from self.rendezvous.publish(
            self.experimenter, self.controller_host, descriptor,
            experiment_restrictions=experiment_restrictions,
        )
        rejected = {idx: reason for idx, (ok, reason) in results.items()
                    if not ok}
        if rejected:
            raise RuntimeError(f"publish rejected by shards: {rejected}")
        self.subscribe_fleet()
