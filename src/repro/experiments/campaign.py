"""Campaign-ready variants of the stock experiments.

Each factory wraps one controller-side experiment generator as a
:class:`~repro.fleet.scheduler.CampaignJob`: the ``run`` body executes
the experiment against a pooled endpoint handle, and the ``metrics``
extractor reduces the raw result to the mergeable
``{"counters": ..., "values": ...}`` shape the fleet aggregator folds
into per-endpoint and campaign rollups.

Failure semantics: the stock experiments degrade gracefully (they catch
transport faults and return partial results). A campaign wants the
opposite for *empty* runs — a job that produced no data re-raises as
:class:`~repro.controller.client.SessionClosed` so the scheduler's
failure-aware rescheduling retries it elsewhere in virtual time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.controller.client import SessionClosed
from repro.experiments.bandwidth import measure_uplink_bandwidth
from repro.experiments.ping import ping
from repro.experiments.traceroute import traceroute
from repro.fleet.scheduler import CampaignContext, CampaignJob


def ping_job(
    name: str,
    destination: Optional[int] = None,
    count: int = 4,
    interval: float = 0.2,
    timeout: float = 2.0,
    payload_size: int = 32,
    endpoint: Optional[str] = None,
) -> CampaignJob:
    """A ping run as a campaign job (``destination=None`` = the
    testbed's measurement target)."""

    def run(handle, ctx: CampaignContext) -> Generator:
        dest = destination if destination is not None else ctx.target_address
        result = yield from ping(
            handle, dest, count=count, interval=interval,
            timeout=timeout, payload_size=payload_size,
        )
        if result.partial and result.received == 0:
            raise SessionClosed(result.error or "ping produced no data")
        return result

    def metrics(result) -> dict:
        rtts = [probe.rtt for probe in result.probes
                if probe.rtt is not None]
        return {
            "counters": {
                "probes_sent": result.sent,
                "probes_received": result.received,
                "probes_lost": result.sent - result.received,
                "partial_runs": 1 if result.partial else 0,
            },
            "values": {"rtt_s": rtts},
        }

    return CampaignJob(name=name, run=run, metrics=metrics,
                       endpoint=endpoint)


def traceroute_job(
    name: str,
    destination: Optional[int] = None,
    max_ttl: int = 16,
    per_hop_timeout: float = 2.0,
    endpoint: Optional[str] = None,
) -> CampaignJob:
    """A traceroute run as a campaign job."""

    def run(handle, ctx: CampaignContext) -> Generator:
        dest = destination if destination is not None else ctx.target_address
        result = yield from traceroute(
            handle, dest, max_ttl=max_ttl,
            per_hop_timeout=per_hop_timeout,
        )
        if result.partial and not result.hops:
            raise SessionClosed(result.error or "traceroute produced no data")
        return result

    def metrics(result) -> dict:
        hop_rtts = [hop.rtt for hop in result.hops if hop.rtt is not None]
        return {
            "counters": {
                "traceroutes": 1,
                "destinations_reached": 1 if result.reached else 0,
                "hops_responding": sum(
                    1 for hop in result.hops if hop.responder is not None
                ),
                "partial_runs": 1 if result.partial else 0,
            },
            "values": {
                "hop_rtt_s": hop_rtts,
                "path_length": [float(len(result.hops))],
            },
        }

    return CampaignJob(name=name, run=run, metrics=metrics,
                       endpoint=endpoint)


def bandwidth_job(
    name: str,
    packet_count: int = 20,
    payload_size: int = 1000,
    lead_time: float = 0.5,
    settle_time: float = 3.0,
    endpoint: Optional[str] = None,
) -> CampaignJob:
    """An uplink bandwidth estimate as a campaign job.

    The controller-side UDP sink binds an ephemeral port on the controller
    host, so any number of concurrent bandwidth jobs coexist there without
    listener collisions, and each job gives its port back when it ends.
    """

    def run(handle, ctx: CampaignContext) -> Generator:
        if ctx.controller_host is None:
            raise SessionClosed(
                "bandwidth_job needs a campaign context with a controller host"
            )
        result = yield from measure_uplink_bandwidth(
            handle,
            ctx.controller_host,
            packet_count=packet_count,
            payload_size=payload_size,
            lead_time=lead_time,
            settle_time=settle_time,
            sink_port=0,
        )
        if result.partial and result.packets_received == 0:
            raise SessionClosed(result.error or "bandwidth run saw no packets")
        return result

    def metrics(result) -> dict:
        return {
            "counters": {
                "bw_packets_sent": result.packets_sent,
                "bw_packets_received": result.packets_received,
                "partial_runs": 1 if result.partial else 0,
            },
            "values": {"uplink_bps": [result.measured_bps]},
        }

    return CampaignJob(name=name, run=run, metrics=metrics,
                       endpoint=endpoint)
