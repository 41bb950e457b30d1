"""Prebuilt filter programs for common cases.

These cover the everyday ``ncap`` filters an experimenter installs (capture
everything, capture one protocol, capture one UDP/TCP port) without writing
Cpf. The packet seen by a filter is a raw IPv4 packet, so offsets follow
the IPv4 header layout (protocol at byte 9, source at 12, destination at
16, L4 ports at 20/22 when IHL=5).
"""

from __future__ import annotations

from repro.filtervm.assembler import assemble
from repro.filtervm.program import FilterProgram
from repro.filtervm.vm import VERDICT_CONSUME, VERDICT_MIRROR
from repro.util.memo import BoundedMemo

IP_PROTO_OFFSET = 9
IP_SRC_OFFSET = 12
IP_DST_OFFSET = 16
L4_SPORT_OFFSET = 20
L4_DPORT_OFFSET = 22
ICMP_TYPE_OFFSET = 20

# Assembled programs (as snapshots) by source: an experiment asks for the
# same filter on every job, and the port and address variants are many.
_ASSEMBLED: BoundedMemo = BoundedMemo(64)


def _assembled(source: str) -> FilterProgram:
    """``assemble(source)``, run once per distinct source; each call
    still returns a program of its own."""
    snapshot = _ASSEMBLED.get(source)
    if snapshot is None:
        snapshot = _ASSEMBLED.put(source, assemble(source).snapshot())
    return FilterProgram.from_snapshot(snapshot)


def capture_all(verdict: int = VERDICT_CONSUME) -> FilterProgram:
    """Capture every packet with the given verdict."""
    return _assembled(
        f"""
        func recv args=2
            push {verdict}
            ret
        """
    )


def mirror_all() -> FilterProgram:
    """Passive capture: mirror everything to the controller, leave the OS
    alone (the paper's network-telescope use case)."""
    return capture_all(VERDICT_MIRROR)


def allow_all_monitor() -> FilterProgram:
    """A monitor that allows every send and recv (for open endpoints)."""
    return _assembled(
        """
        func send args=2
            ldl 1
            ret
        func recv args=2
            ldl 1
            ret
        """
    )


def deny_all_monitor() -> FilterProgram:
    """A monitor that denies everything (lockdown)."""
    return _assembled(
        """
        func send args=2
            push 0
            ret
        func recv args=2
            push 0
            ret
        """
    )


def capture_protocol(proto: int, verdict: int = VERDICT_CONSUME) -> FilterProgram:
    """Capture only packets of one IP protocol."""
    return _assembled(
        f"""
        func recv args=2
            push {IP_PROTO_OFFSET}
            pktld8
            push {proto}
            eq
            jz deny
            push {verdict}
            ret
        deny:
            push 0
            ret
        """
    )


def capture_udp_port(port: int, verdict: int = VERDICT_CONSUME) -> FilterProgram:
    """Capture UDP packets to or from a given port."""
    return _assembled(
        f"""
        func recv args=2
            push {IP_PROTO_OFFSET}
            pktld8
            push 17
            eq
            jz deny
            push {L4_DPORT_OFFSET}
            pktld16
            push {port}
            eq
            jnz accept
            push {L4_SPORT_OFFSET}
            pktld16
            push {port}
            eq
            jnz accept
            jmp deny
        accept:
            push {verdict}
            ret
        deny:
            push 0
            ret
        """
    )


def capture_from_host(addr: int, verdict: int = VERDICT_CONSUME) -> FilterProgram:
    """Capture packets whose source address matches."""
    return _assembled(
        f"""
        func recv args=2
            push {IP_SRC_OFFSET}
            pktld32
            push {addr}
            eq
            jz deny
            push {verdict}
            ret
        deny:
            push 0
            ret
        """
    )


def icmp_echo_monitor() -> FilterProgram:
    """Hand-assembled equivalent of Figure 2's corrected traceroute monitor.

    ``send``: allow only ICMP echo requests originating from this endpoint;
    remember the destination in persistent global 0.
    ``recv``: allow echo replies from the remembered destination, and
    time-exceeded errors whose quoted header matches the original probe.

    Globals layout: [0:4] = ping_dst.
    The endpoint's own address is read from the info block (offset 8, per
    :mod:`repro.endpoint.memory`).
    """
    return _assembled(
        """
        globals 4

        func send args=2
            ; IPv4 version/IHL byte must be 0x45
            push 0
            pktld8
            push 0x45
            eq
            jz deny_send
            ; protocol must be ICMP (1)
            push 9
            pktld8
            push 1
            eq
            jz deny_send
            ; source must equal the endpoint address (info offset 8)
            push 12
            pktld32
            push 8
            infold32
            eq
            jz deny_send
            ; ICMP type must be echo request (8)
            push 20
            pktld8
            push 8
            eq
            jz deny_send
            ; remember destination: ping_dst = pkt->ip.dst
            push 16
            pktld32
            push 0
            gst32
            ; allow: return len
            ldl 1
            ret
        deny_send:
            push 0
            ret

        func recv args=2
            ; must be IPv4, IHL 5
            push 0
            pktld8
            push 0x45
            eq
            jz deny_recv
            ; must be ICMP
            push 9
            pktld8
            push 1
            eq
            jz deny_recv
            ; echo reply from ping_dst?
            push 20
            pktld8
            push 0
            eq
            jz not_reply
            push 12
            pktld32
            push 0
            gld32
            eq
            jz deny_recv
            ldl 1
            ret
        not_reply:
            ; time exceeded (type 11) quoting our original probe?
            push 20
            pktld8
            push 11
            eq
            jz deny_recv
            ; quoted original IP header starts at offset 28:
            ; orig.src (28+12) == our address
            push 40
            pktld32
            push 8
            infold32
            eq
            jz deny_recv
            ; orig.dst (28+16) == ping_dst
            push 44
            pktld32
            push 0
            gld32
            eq
            jz deny_recv
            ldl 1
            ret
        deny_recv:
            push 0
            ret
        """
    )
