"""Discrete-event network simulator: the substrate under PacketLab.

The paper's endpoints, controllers, and rendezvous servers all run as
processes on simulated hosts connected by links with real bandwidth, delay,
queueing, and loss — so every PacketLab mechanism (scheduled sends, capture
buffering, raw-mode filtering, clock sync) is exercised against genuine
packet dynamics.
"""

from repro.netsim.clock import HostClock
from repro.netsim.faults import DirectionFaults, FaultPlan
from repro.netsim.kernel import Event, Process, Queue, SimError, Simulator
from repro.netsim.links import Link, LinkDirection, LinkStats
from repro.netsim.nat import NatBox, natted_topology
from repro.netsim.node import Interface, Node
from repro.netsim.topology import (
    Network,
    access_topology,
    describe,
    fleet_topology,
    linear_topology,
)
from repro.netsim.trace import PacketTrace, TraceRecord

__all__ = [
    "DirectionFaults",
    "Event",
    "FaultPlan",
    "HostClock",
    "Interface",
    "Link",
    "LinkDirection",
    "LinkStats",
    "NatBox",
    "Network",
    "Node",
    "PacketTrace",
    "Process",
    "Queue",
    "SimError",
    "Simulator",
    "TraceRecord",
    "access_topology",
    "describe",
    "fleet_topology",
    "linear_topology",
    "natted_topology",
]
