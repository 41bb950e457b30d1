"""One-stop PacketLab testbed assembly.

A :class:`Testbed` wires a full deployment on a simulated network: an
endpoint behind an access link, a controller host, a measurement target, an
endpoint operator key, and an experimenter with a delegation — the Figure 1
cast. Experiments, examples, and benchmarks all build on it. It is the
one-endpoint :class:`~repro.fleet.testbed.World`: ports, controllers,
telemetry and ``run_campaign`` are the shared definitions there.

Typical use::

    testbed = Testbed()
    def experiment(handle):
        ticks = yield from handle.read_clock()
        ...
        return result
    result = testbed.run_experiment(experiment)
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.controller.client import EndpointHandle
from repro.controller.recovery import ResilientHandle
from repro.controller.session import Experimenter
from repro.crypto.certificate import Restrictions
from repro.crypto.keys import KeyPair
from repro.endpoint.config import EndpointConfig
from repro.endpoint.endpoint import Endpoint
from repro.fleet.testbed import World
from repro.netsim.faults import FaultPlan
from repro.netsim.node import Node
from repro.netsim.topology import Network, access_topology
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.rendezvous.server import RendezvousServer

DEFAULT_RENDEZVOUS_PORT = 7100


class Testbed(World):
    """A ready-to-run PacketLab deployment on a simulated access network."""

    def __init__(
        self,
        access_bandwidth_bps: float = 10e6,
        access_delay: float = 0.010,
        core_delay: float = 0.020,
        uplink_bandwidth_bps: Optional[float] = None,
        access_jitter: float = 0.0,
        endpoint_clock_offset: float = 0.0,
        endpoint_clock_skew: float = 0.0,
        capture_buffer_bytes: int = 64 * 1024,
        allow_raw: bool = True,
        network: Optional[Network] = None,
        endpoint_host: Optional[Node] = None,
        controller_host: Optional[Node] = None,
        target_host: Optional[Node] = None,
        endpoint_reconnect: bool = False,
    ) -> None:
        self.access_link = None
        if network is None:
            network, endpoint_host, controller_host, target_host = access_topology(
                access_bandwidth_bps=access_bandwidth_bps,
                access_delay=access_delay,
                core_delay=core_delay,
                uplink_bandwidth_bps=uplink_bandwidth_bps,
                access_jitter=access_jitter,
            )
            # gw--endpoint is the first link access_topology creates; the
            # natural place to inject faults between endpoint and the world.
            self.access_link = network.links[0]
        assert endpoint_host is not None
        assert controller_host is not None
        assert target_host is not None
        super().__init__(network, controller_host, target_host,
                         Experimenter("experimenter"))
        self.endpoint_host = endpoint_host
        # Endpoint clocks are deliberately imperfect (§3.1 Timekeeping).
        self.endpoint_host.clock.offset = endpoint_clock_offset
        self.endpoint_host.clock.skew = endpoint_clock_skew

        # Figure 1 cast.
        self.operator = KeyPair.from_name("endpoint-operator")
        self.rendezvous_operator = KeyPair.from_name("rendezvous-operator")
        self.experimenter.granted_endpoint_access(self.operator)
        self.experimenter.granted_publish_access(self.rendezvous_operator)

        self.endpoint_config = EndpointConfig(
            name="ep0",
            trusted_key_ids=[self.operator.key_id],
            capture_buffer_bytes=capture_buffer_bytes,
            allow_raw=allow_raw,
            reconnect=endpoint_reconnect,
        )
        self.endpoint = Endpoint(self.endpoint_host, self.endpoint_config)
        self.endpoints.append(self.endpoint)
        self.rendezvous: Optional[RendezvousServer] = None
        self.rendezvous_servers: list[RendezvousServer] = []

    # -- component helpers --------------------------------------------------

    def start_rendezvous(self, port: Optional[int] = DEFAULT_RENDEZVOUS_PORT
                         ) -> RendezvousServer:
        """Start a rendezvous server on the controller host.

        ``port=None`` allocates a fresh port, so several rendezvous
        servers can coexist on the controller host alongside any number
        of controllers without listener collisions. Each server is
        recorded in ``rendezvous_servers``; ``self.rendezvous`` tracks
        the most recently started one.
        """
        port = self.allocate_port() if port is None \
            else self.reserve_port(port)
        self.rendezvous = RendezvousServer(
            self.controller_host, port,
            trusted_publisher_key_ids=[self.rendezvous_operator.key_id],
        ).start()
        self.rendezvous_servers.append(self.rendezvous)
        return self.rendezvous

    def connect_endpoint(self, descriptor: ExperimentDescriptor) -> None:
        """Point the endpoint directly at a controller (no rendezvous)."""
        self.endpoint.connect_to_controller(
            descriptor.controller_addr,
            descriptor.controller_port,
            descriptor.hash(),
        )

    def _attach_endpoints(self, descriptor, experiment_restrictions):
        self.connect_endpoint(descriptor)
        yield from ()  # a generator step with nothing to wait for

    # -- experiment driving ----------------------------------------------------

    def run_experiment(
        self,
        experiment: Callable[[EndpointHandle], Generator],
        experiment_name: str = "experiment",
        experiment_restrictions: Optional[Restrictions] = None,
        timeout: float = 600.0,
        collect_telemetry: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        resilient: bool = False,
        rpc_timeout: Optional[float] = None,
        recovery_seed: int = 0,
    ):
        """Run one experiment function against the testbed endpoint.

        ``experiment`` is a generator function taking an
        :class:`EndpointHandle`; its return value is returned here. The
        controller is started, the endpoint connects, the experiment runs,
        and the session is closed.

        With ``collect_telemetry=True`` the observability layer is enabled
        for the run and a ``(result, TelemetrySnapshot)`` pair is returned;
        the snapshot carries every layer's metrics plus the buffered event
        stream, ready for ``export_jsonl``.

        Fault tolerance: ``fault_plan`` arms a
        :class:`~repro.netsim.faults.FaultPlan` on this testbed's
        simulator before the run; ``resilient=True`` wraps the handle in
        a :class:`~repro.controller.recovery.ResilientHandle` (retry with
        backoff + reconnect + state replay); ``rpc_timeout`` bounds every
        command round trip so a dead session surfaces as
        :class:`RpcTimeout` instead of hanging until the run timeout.
        """
        if collect_telemetry:
            self.enable_telemetry()
        if fault_plan is not None:
            fault_plan.install(self.sim)
        obs = self.sim.obs
        span = (
            obs.span("core", "experiment", experiment=experiment_name)
            if obs.enabled else None
        )
        server, descriptor = self.make_controller(
            experiment_name,
            experiment_restrictions=experiment_restrictions,
            rpc_timeout=rpc_timeout,
        )
        self.connect_endpoint(descriptor)

        def driver() -> Generator:
            handle = yield server.wait_endpoint()
            if resilient:
                handle = ResilientHandle(server, handle, seed=recovery_seed)
            try:
                result = yield from experiment(handle)
            finally:
                if not handle.closed:
                    handle.bye()
            return result

        try:
            result = self.sim.run_process(
                driver(), name=f"experiment-{experiment_name}", timeout=timeout
            )
        finally:
            if span is not None:
                span.end()
            server.stop()
        if collect_telemetry:
            return result, self.telemetry_snapshot()
        return result
