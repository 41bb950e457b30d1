"""The rendezvous server (§3.2): publish/subscribe experiment dissemination.

"Rendezvous servers are persistent. They constitute the only permanent
infrastructure required by PacketLab." The server accepts publications
signed (directly or through delegation) by one of its trusted publisher
keys, and broadcasts each experiment to every subscribed endpoint whose
channels intersect the keys appearing in the experiment's delivery chains.

Channels are key hashes (§3.3): an endpoint subscribes to the hashes of
the keys it trusts to sign experiment certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.chain import CertificateChain, ChainError
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpError
from repro.proto.framing import MessageStream, UndecodableFrame
from repro.proto.messages import (
    RdzExperiment,
    RdzHeartbeat,
    RdzPublish,
    RdzPublishResult,
    RdzSubscribe,
)
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.util.byteio import DecodeError


@dataclass
class StoredExperiment:
    experiment_id: bytes  # descriptor hash — the stable identity
    descriptor_bytes: bytes
    delivery_chains: tuple[bytes, ...]
    channels: frozenset[bytes]  # key ids appearing in delivery chains


@dataclass
class Subscriber:
    stream: MessageStream
    channels: frozenset[bytes]
    ident: int = 0  # subscriber address, stable across reconnects
    alive: bool = True


@dataclass
class HeartbeatRecord:
    """Last-known liveness of one endpoint, as seen by this shard."""

    endpoint_name: str
    seq: int = 0
    last_seen: float = 0.0  # simulator time of the latest beacon
    beats: int = 0  # total beacons observed (across restarts)
    restarts: int = 0  # seq regressions observed (endpoint lost memory)


class RendezvousServer:
    """A persistent publish/subscribe server for experiment descriptors."""

    def __init__(self, node: Node, port: int,
                 trusted_publisher_key_ids: Optional[list[bytes]] = None) -> None:
        self.node = node
        self.port = port
        self._obs = node.sim.obs
        self.trusted_publisher_key_ids = list(trusted_publisher_key_ids or [])
        self.experiments: list[StoredExperiment] = []
        self.subscribers: list[Subscriber] = []
        # (subscriber address, experiment id) pairs already offered.
        # Survives stop()/restart() like the experiment store does, so a
        # resubscribing endpoint is not re-offered experiments it already
        # received (idempotent delivery).
        self._delivered: set[tuple[int, bytes]] = set()
        # Liveness registry: endpoint name -> last-known heartbeat.
        # Survives stop()/restart() like the experiment store — records
        # simply go stale during downtime and refresh once endpoints
        # resubscribe and beacon again.
        self.heartbeats: dict[str, HeartbeatRecord] = {}
        self.offers_deduplicated = 0
        self.publications_accepted = 0
        self.publications_rejected = 0
        self.experiments_delivered = 0
        self.restarts = 0
        self.running = False
        self._listener = None

    def start(self) -> "RendezvousServer":
        self._listener = self.node.tcp.listen(self.port)
        self._listener.accept().then(self._on_accept)
        self.running = True
        return self

    def stop(self) -> None:
        """Go down hard: sever every subscriber, stop accepting.

        Stored experiments survive — the rendezvous server is the
        persistent infrastructure (§3.2), and a restart replays them to
        resubscribing endpoints.
        """
        if not self.running:
            return
        self.running = False
        self._listener.close()
        self._listener = None
        for subscriber in list(self.subscribers):
            subscriber.alive = False
            subscriber.stream.conn.abort()
        self.subscribers.clear()
        if self._obs.enabled:
            self._obs.gauge("rendezvous.subscribers").set(0)
            self._obs.emit("rendezvous", "stopped", port=self.port)

    def restart(self) -> "RendezvousServer":
        """Come back up on the same port with stored experiments intact."""
        if self.running:
            return self
        self.restarts += 1
        if self._obs.enabled:
            self._obs.counter("rendezvous.restarts").inc()
            self._obs.emit("rendezvous", "restarted", port=self.port,
                           experiments=len(self.experiments))
        return self.start()

    def _on_accept(self, conn) -> None:
        if self._listener is None:
            return  # handed over as stop() ran: nobody serves it
        _Connection(self, MessageStream(conn))
        self._listener.accept().then(self._on_accept)

    # -- publication ----------------------------------------------------------

    def _handle_publish(self, stream: MessageStream,
                        message: RdzPublish) -> None:
        ok, reason = self._validate_publish(message)
        stream.send(RdzPublishResult(ok=ok, reason=reason))
        obs = self._obs
        if not ok:
            self.publications_rejected += 1
            if obs.enabled:
                obs.counter("rendezvous.publish_rejected").inc()
                obs.emit("rendezvous", "publish-rejected", reason=reason)
            return
        self.publications_accepted += 1
        if obs.enabled:
            obs.counter("rendezvous.publish_accepted").inc()
            obs.emit("rendezvous", "publish-accepted",
                     subscribers=len(self.subscribers))
        channels = self._chain_channels(message.delivery_chains)
        # The descriptor decoded during validation; its hash is the
        # experiment's stable identity. A republish of the same
        # experiment replaces the stored entry instead of duplicating it.
        experiment_id = ExperimentDescriptor.decode(message.descriptor).hash()
        stored = StoredExperiment(
            experiment_id=experiment_id,
            descriptor_bytes=message.descriptor,
            delivery_chains=message.delivery_chains,
            channels=channels,
        )
        for index, existing in enumerate(self.experiments):
            if existing.experiment_id == experiment_id:
                self.experiments[index] = stored
                break
        else:
            self.experiments.append(stored)
        for subscriber in list(self.subscribers):
            self._offer(subscriber, stored)

    def _validate_publish(self, message: RdzPublish) -> tuple[bool, str]:
        """Check the descriptor decodes and the publish chain is anchored
        in a trusted publisher key. "The reason a certificate is required
        at all is to protect the rendezvous server against anonymous
        abuse" (§3.3) — so acceptance is deliberately liberal beyond
        that."""
        try:
            descriptor = ExperimentDescriptor.decode(message.descriptor)
        except DecodeError as exc:
            return False, f"bad descriptor: {exc}"
        try:
            chain = CertificateChain.decode(message.chain)
        except DecodeError as exc:
            return False, f"bad chain: {exc}"
        try:
            chain.verify(
                self.trusted_publisher_key_ids,
                descriptor.hash(),
                self.node.sim.now,
            )
        except ChainError as exc:
            return False, f"publish not authorized: {exc}"
        return True, ""

    @staticmethod
    def _chain_channels(delivery_chains: tuple[bytes, ...]) -> frozenset[bytes]:
        """Every key id appearing in any delivery chain is a channel the
        experiment is broadcast on."""
        channels: set[bytes] = set()
        for chain_bytes in delivery_chains:
            try:
                chain = CertificateChain.decode(chain_bytes)
            except DecodeError:
                continue
            for cert in chain.certificates:
                channels.add(cert.signer_key_id)
                channels.add(cert.subject_hash)
        return frozenset(channels)

    # -- subscription ------------------------------------------------------------

    def _handle_subscribe(self, stream: MessageStream,
                          message: RdzSubscribe) -> Subscriber:
        subscriber = Subscriber(
            stream=stream,
            channels=frozenset(message.channels),
            ident=stream.conn.remote_ip,
        )
        self.subscribers.append(subscriber)
        if self._obs.enabled:
            self._obs.counter("rendezvous.subscriptions").inc()
            self._obs.gauge("rendezvous.subscribers").set(len(self.subscribers))
        # Replay stored experiments matching the subscription.
        for stored in self.experiments:
            self._offer(subscriber, stored)
        return subscriber

    def _unsubscribe(self, subscriber: Subscriber) -> None:
        subscriber.alive = False
        if subscriber in self.subscribers:  # stop() cleared it first
            self.subscribers.remove(subscriber)
        if self._obs.enabled:
            self._obs.gauge("rendezvous.subscribers").set(len(self.subscribers))

    def _record_heartbeat(self, beacon: RdzHeartbeat) -> None:
        record = self.heartbeats.get(beacon.endpoint_name)
        if record is None:
            record = HeartbeatRecord(endpoint_name=beacon.endpoint_name)
            self.heartbeats[beacon.endpoint_name] = record
        if beacon.seq < record.seq:
            # The counter went backwards: the endpoint restarted (lost
            # its memory) since its previous beacon.
            record.restarts += 1
        record.seq = beacon.seq
        record.last_seen = self.node.sim.now
        record.beats += 1
        if self._obs.enabled:
            self._obs.counter("fleet.heartbeats").inc()

    def _offer(self, subscriber: Subscriber, stored: StoredExperiment) -> None:
        if not subscriber.alive:
            return
        if not (subscriber.channels & stored.channels):
            return
        key = (subscriber.ident, stored.experiment_id)
        if key in self._delivered:
            # Idempotent delivery: this subscriber already received this
            # experiment (before a restart, or on a previous
            # subscription) — replays must not double-offer it.
            self.offers_deduplicated += 1
            if self._obs.enabled:
                self._obs.counter("rendezvous.offers_deduplicated").inc()
            return
        self._delivered.add(key)
        chain = stored.delivery_chains[0] if stored.delivery_chains else b""
        self.experiments_delivered += 1
        if self._obs.enabled:
            self._obs.counter("rendezvous.delivered").inc()
        try:
            subscriber.stream.send(
                RdzExperiment(descriptor=stored.descriptor_bytes, chain=chain)
            )
        except TcpError:
            subscriber.alive = False


class _Connection:
    """One accepted connection: the first frame publishes or subscribes;
    a subscriber's later frames are heartbeats (liveness costs no extra
    connection), and its close ends the subscription."""

    __slots__ = ("server", "stream", "subscriber")

    def __init__(self, server: RendezvousServer, stream: MessageStream) -> None:
        self.server = server
        self.stream = stream
        self.subscriber: Optional[Subscriber] = None
        stream.listen(self.on_message, self.on_close)

    def on_message(self, message) -> bool:
        if self.subscriber is not None:
            if isinstance(message, RdzHeartbeat):
                self.server._record_heartbeat(message)
            return not isinstance(message, UndecodableFrame)
        if isinstance(message, RdzSubscribe):
            self.subscriber = self.server._handle_subscribe(self.stream, message)
            return True
        if isinstance(message, RdzPublish):
            self.server._handle_publish(self.stream, message)
        return False

    def on_close(self) -> None:
        self.stream.abort_if_broken()
        if self.subscriber is None:
            self.stream.conn.close()
        else:
            self.server._unsubscribe(self.subscriber)
