"""Fleet orchestration: campaigns over pools of PacketLab endpoints.

The paper's promise is one interface driving *many* heterogeneous
endpoints; this package supplies the layer above per-session machinery
that makes that true at scale:

- :mod:`repro.fleet.shard` — multiple rendezvous servers with the
  channel space partitioned by hash, offer streams merged at the
  controller;
- :mod:`repro.fleet.pool` — accepted sessions keyed by endpoint name
  and wrapped in reusable, reconnect-aware handles;
- :mod:`repro.fleet.scheduler` — a work queue multiplexing N concurrent
  sessions with rate limiting and failure-aware rescheduling;
- :mod:`repro.fleet.heartbeat` — liveness sweeps over the shard-merged
  heartbeat registry, draining stale endpoints before RPCs fail on them
  and removing the departed;
- :mod:`repro.fleet.aggregate` — streaming mergeable rollups (counters
  + quantile sketches) so campaigns report without buffering raw
  results;
- :mod:`repro.fleet.testbed` — the whole deployment assembled on a
  generated star/tree/mesh fleet topology.

Everything is deterministic under the discrete-event kernel: one seed,
one schedule, one byte-identical report.
"""

from repro.fleet.aggregate import (
    CounterSet,
    QuantileSketch,
    ResultAggregator,
    Rollup,
)
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.pool import (
    EndpointPool,
    PooledEndpoint,
    PoolError,
)
from repro.fleet.scheduler import (
    CampaignContext,
    CampaignJob,
    CampaignReport,
    CampaignScheduler,
    CrossValidation,
    TokenBucket,
)
from repro.fleet.shard import ShardedRendezvous, shard_for, subscribe_endpoint
from repro.fleet.testbed import FleetTestbed

__all__ = [
    "CampaignContext",
    "CampaignJob",
    "CampaignReport",
    "CampaignScheduler",
    "CounterSet",
    "CrossValidation",
    "EndpointPool",
    "FleetTestbed",
    "HeartbeatMonitor",
    "PoolError",
    "PooledEndpoint",
    "QuantileSketch",
    "ResultAggregator",
    "Rollup",
    "ShardedRendezvous",
    "TokenBucket",
    "shard_for",
    "subscribe_endpoint",
]
