"""Sharded rendezvous: several servers, channels partitioned by hash.

One rendezvous server fans every publication out to every matching
subscriber; at fleet scale that single server becomes both a hotspot and
a single point of failure. A :class:`ShardedRendezvous` runs K
independent :class:`~repro.rendezvous.server.RendezvousServer` instances
and partitions the channel space (channels are key hashes, §3.3) by a
stable hash of the channel id:

- an endpoint subscribes at the shard owning its trusted operator key;
- a publication is split per shard: each shard receives only the
  delivery chains whose anchoring operator key lives on that shard, so
  every offer stream stays shard-local and the merged view (the
  controller's accepted-endpoint queue) covers the whole fleet.

Sharding is pure client-side arithmetic — the servers themselves are
unmodified, which is the point: the paper's persistent infrastructure
stays dumb.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.netsim.node import Node
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.rendezvous.server import RendezvousServer

if TYPE_CHECKING:
    from repro.controller.session import Experimenter, OperatorGrant


def shard_for(channel: bytes, shard_count: int) -> int:
    """Stable shard index for a channel (a key id)."""
    if shard_count <= 1:
        return 0
    return int.from_bytes(channel[:8], "big") % shard_count


class ShardedRendezvous:
    """K rendezvous servers with channel-hash partitioning."""

    def __init__(self, servers: list[RendezvousServer]) -> None:
        if not servers:
            raise ValueError("ShardedRendezvous needs at least one server")
        self.servers = list(servers)

    @property
    def shard_count(self) -> int:
        return len(self.servers)

    def shard_index(self, channel: bytes) -> int:
        return shard_for(channel, self.shard_count)

    def start(self) -> "ShardedRendezvous":
        for server in self.servers:
            if not server.running:
                server.start()
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    # -- publication ----------------------------------------------------------

    def grants_by_shard(
        self, grants: list["OperatorGrant"]
    ) -> dict[int, list["OperatorGrant"]]:
        """Partition operator grants by the shard owning the operator key."""
        shards: dict[int, list["OperatorGrant"]] = {}
        for grant in grants:
            index = self.shard_index(grant.certificate.signer_key_id)
            shards.setdefault(index, []).append(grant)
        return shards

    def publish(
        self,
        experimenter: "Experimenter",
        node: Node,
        descriptor: ExperimentDescriptor,
        experiment_restrictions=None,
    ) -> Generator:
        """Publish a descriptor to every shard holding a delivery channel.

        Each shard receives only its own slice of delivery chains.
        Returns ``{shard_index: (ok, reason)}``; use as ``results = yield
        from sharded.publish(...)``.
        """
        results: dict[int, tuple[bool, str]] = {}
        for index, grants in sorted(
            self.grants_by_shard(experimenter.endpoint_grants).items()
        ):
            server = self.servers[index]
            ok, reason = yield from experimenter.publish(
                node,
                server.node.primary_address(),
                server.port,
                descriptor,
                experiment_restrictions=experiment_restrictions,
                grants=grants,
            )
            results[index] = (ok, reason)
        return results

    # -- merged liveness ------------------------------------------------------

    def liveness(self) -> dict:
        """Merged heartbeat registry across every shard.

        Endpoints normally beacon at exactly one shard (the one owning
        their operator key), but an endpoint trusting keys on several
        shards beacons at each — the freshest record wins.
        """
        merged: dict = {}
        for server in self.servers:
            for name, record in server.heartbeats.items():
                held = merged.get(name)
                if held is None or record.last_seen > held.last_seen:
                    merged[name] = record
        return merged

    # -- merged statistics ----------------------------------------------------

    @property
    def experiments_delivered(self) -> int:
        return sum(server.experiments_delivered for server in self.servers)


def subscribe_endpoint(endpoint, sharded: ShardedRendezvous,
                       channels: Optional[list[bytes]] = None):
    """Point an endpoint's rendezvous subscription at its shard(s).

    An endpoint subscribes once per distinct shard owning one of its
    channels (its trusted key ids); most fleet endpoints trust exactly
    one operator and therefore hold exactly one subscription.
    """
    channels = channels if channels is not None else list(
        endpoint.config.trusted_key_ids
    )
    for index in sorted({sharded.shard_index(ch) for ch in channels}):
        server = sharded.servers[index]
        endpoint.start_rendezvous(server.node.primary_address(), server.port)
