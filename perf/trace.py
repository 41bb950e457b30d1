"""Phase spans and layer attribution for the traced repetition.

One mechanism, no edits to the program: ``cProfile`` records the timed
region, so every call into a layer function is a span (callee, caller,
count, self time). Explicit spans exist only for the phases of a
repetition. Everything is kept in memory; ``perf/run.py`` writes it to
``perf/out/trace-<workload>.json`` when the repetition ends.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> module paths under src/repro/ (a trailing "/" is a package).
# First match wins, so packet/checksum.py is listed before packet/.
LAYER_PATHS = (
    ("kernel", ("netsim/kernel.py", "netsim/clock.py")),
    ("links", ("netsim/links.py", "netsim/faults.py", "netsim/trace.py")),
    ("ip", ("netsim/node.py", "netsim/stack/ip.py", "netsim/nat.py",
            "netsim/topology.py")),
    ("tcp", ("netsim/stack/tcp.py",)),
    ("udp_icmp", ("netsim/stack/udp.py", "netsim/stack/icmp.py")),
    ("checksum", ("packet/checksum.py",)),
    ("packet", ("packet/",)),
    ("proto", ("proto/",)),
    ("endpoint", ("endpoint/",)),
    ("controller", ("controller/",)),
    ("rendezvous", ("rendezvous/",)),
    ("fleet", ("fleet/",)),
    ("crypto", ("crypto/",)),
    ("filtervm", ("filtervm/",)),
    ("cpf", ("cpf/",)),
    ("warehouse", ("warehouse/",)),
    ("obs", ("obs/",)),
    ("util", ("util/",)),
    ("experiments", ("experiments/", "core/")),
)
LAYERS = tuple(name for name, _ in LAYER_PATHS)

# The benchmark writes only here; perf/.gitignore covers it.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str):
    """Layer owning a source file, or None for stdlib/builtin/harness."""
    _, mark, rel = filename.rpartition(_REPRO_MARK)
    if not mark:
        return None
    rel = rel.replace(os.sep, "/")
    for layer, paths in LAYER_PATHS:
        for path in paths:
            if rel == path or (path.endswith("/") and rel.startswith(path)):
                return layer
    return None


# Exact counts read from profiler call counts. Each target is
# "module:qualname" of a plain (non-generator) function: cProfile counts
# every resume of a generator as a call, so generators would overcount.
# A pair (caller, callee) counts calls on that one edge only.
CALL_PROBES = {
    "kernel.process_steps": ["repro.netsim.kernel:Process._step"],
    "ip.route_lookups": ["repro.netsim.node:Node.lookup_route"],
    "tcp.segments_out": ["repro.netsim.stack.tcp:TcpConnection._emit"],
    "tcp.retransmits": ["repro.netsim.stack.tcp:TcpConnection._retransmit"],
    "packet.encodes": [
        "repro.packet.ipv4:IPv4Packet.encode",
        "repro.packet.tcp:TcpSegment.encode",
        "repro.packet.udp:UdpDatagram.encode",
        "repro.packet.icmp:IcmpMessage.encode",
    ],
    "packet.decodes": [
        "repro.packet.ipv4:IPv4Packet.decode",
        "repro.packet.tcp:TcpSegment.decode",
        "repro.packet.udp:UdpDatagram.decode",
        "repro.packet.icmp:IcmpMessage.decode",
    ],
    "checksum.calls": ["repro.packet.checksum:internet_checksum"],
    "proto.frames_out": ["repro.proto.messages:Message.encode"],
    "proto.frames_in": ["repro.proto.messages:decode_message"],
    "endpoint.sessions": ["repro.endpoint.endpoint:Session.__init__"],
    "endpoint.commands": [(
        "repro.endpoint.endpoint:Session._command_loop",
        "repro.proto.statemachine:SessionStateMachine.observe",
    )],
    "controller.rpcs": ["repro.controller.client:EndpointHandle._reqid"],
    "controller.rpc_timeouts": ["repro.controller.client:RpcTimeout.__init__"],
    "rendezvous.offers": ["repro.rendezvous.server:RendezvousServer._offer"],
    "crypto.verify_calls": ["repro.crypto.keys:verify_signature"],
    "crypto.verify_misses": ["repro.crypto.ed25519:verify"],
    "crypto.signs": ["repro.crypto.ed25519:sign"],
    "filtervm.invocations": ["repro.filtervm.vm:FilterVM.invoke"],
    "filtervm.verifications": ["repro.filtervm.verify:verify"],
    "cpf.compiles": ["repro.cpf.compiler:compile_cpf"],
}


def _code(target: str):
    """``"module:Class.attr"`` -> the function's code object.

    Resolved with getattr for every probe before anything is measured, so
    a rename under ``src/`` stops the benchmark with an AttributeError
    instead of silently zeroing a counter.
    """
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__func__", obj).__code__


def resolve_call_probes() -> dict:
    """metric -> list of code objects or (caller code, callee code)."""
    return {
        metric: [
            tuple(_code(t) for t in target) if isinstance(target, tuple)
            else _code(target)
            for target in targets
        ]
        for metric, targets in CALL_PROBES.items()
    }


class Spans:
    """Phase spans of one repetition: id, parent, name, start, end.

    Times are seconds since the child entered ``main``; a span opened
    inside a simulated process stays open across its yields, so it
    measures host time between the phase's first step and its return.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.remove(record["id"])

    def duration(self, name: str) -> float:
        """Total seconds of every closed span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def timed_generator(self, name: str, original):
        """Wrap a process-body method so its lifetime is one span."""
        spans = self

        def wrapper(self, *args, **kwargs):
            with spans.span(name):
                return (yield from original(self, *args, **kwargs))

        return wrapper


def _label(code) -> str:
    if isinstance(code, str):
        return code
    _, mark, rel = code.co_filename.rpartition(_REPRO_MARK)
    filename = "repro/" + rel if mark else os.path.basename(code.co_filename)
    return f"{filename}:{code.co_firstlineno} {code.co_name}"


def _owner_label(owner, shares: dict):
    """A function's layer, or ``via <layer>`` for a stdlib/builtin one
    whose time went mostly to that layer's callers."""
    if owner is not None or not shares:
        return owner
    return "via " + max(shares, key=shares.get)


def attribute(stats: list, probes: dict, traced_wall: float) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into per-layer numbers.

    - ``self_s``: a repro function's self time goes to its layer; the
      self time of a stdlib/builtin function goes, edge by edge, to the
      layer of the repro function that called it. When the caller is
      itself outside repro, the edge is split by where *that* function's
      cumulative time came from (the usual gprof assumption).
    - ``calls_in``: calls whose callee is in the layer and whose nearest
      repro caller is in another layer.
    - call-count probes are exact.
    """
    layer = {}
    for entry in stats:
        code = entry.code
        layer[code] = None if isinstance(code, str) \
            else layer_of(code.co_filename)
    inbound = defaultdict(list)  # callee code -> [(caller code, subentry)]
    for entry in stats:
        for sub in entry.calls or ():
            inbound[sub.code].append((entry.code, sub))

    # Where each non-repro function's invocations originate, as a
    # distribution over layers; iterated because such functions call
    # each other (json, copy, dataclasses).
    outside = [code for code, owner in layer.items() if owner is None]
    origin: dict = {code: {} for code in outside}
    for _ in range(6):
        for code in outside:
            weights: dict = defaultdict(float)
            for caller, sub in inbound[code]:
                weight = sub.totaltime + 1e-9 * sub.callcount
                owner = layer.get(caller)
                if owner is not None:
                    weights[owner] += weight
                else:
                    for name, share in origin.get(caller, {}).items():
                        weights[name] += weight * share
            total = sum(weights.values())
            origin[code] = ({name: w / total for name, w in weights.items()}
                            if total > 0 else {})

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0.0)
    profiled = 0.0
    for entry in stats:
        profiled += entry.inlinetime
        owner = layer[entry.code]
        if owner is not None:
            self_s[owner] += entry.inlinetime
        else:
            for caller, sub in inbound[entry.code]:
                caller_owner = layer.get(caller)
                if caller_owner is not None:
                    self_s[caller_owner] += sub.inlinetime
                else:
                    for name, share in origin.get(caller, {}).items():
                        self_s[name] += sub.inlinetime * share
        for sub in entry.calls or ():
            callee_owner = layer.get(sub.code)
            if callee_owner is None:
                continue
            if owner is not None:
                if owner != callee_owner:
                    calls_in[callee_owner] += sub.callcount
            else:
                shares = origin.get(entry.code) or {None: 1.0}
                calls_in[callee_owner] += sub.callcount * sum(
                    share for name, share in shares.items()
                    if name != callee_owner
                )

    by_code = {entry.code: entry for entry in stats}
    counts = {}
    for metric, targets in probes.items():
        total = 0
        for target in targets:
            if isinstance(target, tuple):
                caller, callee = target
                total += sum(sub.callcount for origin_code, sub
                             in inbound[callee] if origin_code is caller)
            elif target in by_code:
                total += by_code[target].callcount
        counts[metric] = total

    top = sorted(stats, key=lambda e: e.inlinetime, reverse=True)[:15]
    attributed = sum(self_s.values())
    return {
        "traced_wall_s": traced_wall,
        "profiled_s": profiled,
        # The profiler's own sum against the stopwatch around it.
        "closure_err": abs(profiled - traced_wall) / traced_wall,
        "unattributed_s": traced_wall - attributed,
        "self_s": self_s,
        "calls_in": {name: round(value) for name, value in calls_in.items()},
        "counts": counts,
        "top_self": [
            {"function": _label(e.code),
             "layer": _owner_label(layer[e.code], origin.get(e.code)),
             "self_s": e.inlinetime, "calls": e.callcount}
            for e in top
        ],
    }
