"""BSD-socket-style compatibility layer over the PacketLab interface.

§3.5: "Developers will need to adjust to the PacketLab model... We plan to
develop libraries and VPN-style drivers to allow developers to code
experiments to the old model but run them on PacketLab nodes."

This module is that library: a :class:`CompatStack` exposes UDP, TCP, and
raw sockets whose ``sendto``/``recv``-style calls are transparently backed
by Table 1 commands. Experiment code written against these sockets reads
like ordinary on-endpoint networking code, while every packet still
originates at the remote endpoint and every byte still flows through
``nsend``/``npoll``.

The inherent cost is the one §3.5 admits: each blocking receive and each
immediate send pays controller-endpoint latency. Time-critical sends can
still be scheduled via ``sendto_at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Union

from repro.controller.client import EndpointHandle
from repro.filtervm.program import FilterProgram
from repro.netsim.clock import NANOSECONDS
from repro.proto.constants import ST_OK


class CompatError(Exception):
    """Raised when a compat operation fails at the PacketLab layer."""


@dataclass
class ReceivedDatagram:
    data: bytes
    timestamp: int  # endpoint ticks


class CompatStack:
    """Shared npoll demultiplexer behind all compat sockets of a session."""

    def __init__(self, handle: EndpointHandle) -> None:
        self.handle = handle
        self._next_sktid = 0
        self._buffers: dict[int, list[ReceivedDatagram]] = {}
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def _allocate(self) -> int:
        sktid = self._next_sktid
        self._next_sktid += 1
        return sktid

    # -- socket constructors (generators) ----------------------------------

    def udp_socket(self, remaddr: int, remport: int,
                   locport: int = 0) -> Generator:
        """``sock = yield from stack.udp_socket(addr, port)``."""
        sktid = self._allocate()
        status = yield from self.handle.nopen_udp(
            sktid, locport=locport, remaddr=remaddr, remport=remport
        )
        if status != ST_OK:
            raise CompatError(f"udp socket open failed (status {status})")
        self._buffers[sktid] = []
        return CompatDatagramSocket(self, sktid)

    def tcp_connect(self, remaddr: int, remport: int,
                    locport: int = 0) -> Generator:
        """``conn = yield from stack.tcp_connect(addr, port)``."""
        sktid = self._allocate()
        status = yield from self.handle.nopen_tcp(
            sktid, remaddr=remaddr, remport=remport, locport=locport
        )
        if status != ST_OK:
            raise CompatError(f"tcp connect failed (status {status})")
        self._buffers[sktid] = []
        return CompatStreamSocket(self, sktid)

    def raw_socket(self, capture_filter: Union[FilterProgram, bytes],
                   capture_seconds: float = 3600.0) -> Generator:
        """Raw socket with an already-installed capture filter."""
        sktid = self._allocate()
        status = yield from self.handle.nopen_raw(sktid)
        if status != ST_OK:
            raise CompatError(f"raw socket open failed (status {status})")
        now = yield from self.handle.read_clock()
        status = yield from self.handle.ncap(
            sktid, now + int(capture_seconds * NANOSECONDS), capture_filter
        )
        if status != ST_OK:
            raise CompatError(f"ncap failed (status {status})")
        self._buffers[sktid] = []
        return CompatRawSocket(self, sktid)

    # -- shared receive path ---------------------------------------------------

    def _pump(self, deadline_ticks: int) -> Generator:
        """One npoll; route records into per-socket buffers."""
        poll = yield from self.handle.npoll(deadline_ticks)
        self.dropped_packets += poll.dropped_packets
        self.dropped_bytes += poll.dropped_bytes
        for record in poll.records:
            buffer = self._buffers.get(record.sktid)
            if buffer is not None:
                buffer.append(ReceivedDatagram(record.data, record.timestamp))
        return bool(poll.records)

    def _recv_into(self, sktid: int, timeout: float) -> Generator:
        """Block until the socket's buffer is non-empty or timeout."""
        buffer = self._buffers[sktid]
        if buffer:
            return buffer.pop(0)
        start = yield from self.handle.read_clock()
        deadline = start + int(timeout * NANOSECONDS)
        while True:
            yield from self._pump(deadline)
            if buffer:
                return buffer.pop(0)
            now = yield from self.handle.read_clock()
            if now >= deadline:
                return None

    def _close(self, sktid: int) -> Generator:
        self._buffers.pop(sktid, None)
        yield from self.handle.nclose(sktid)


class _CompatSocketBase:
    def __init__(self, stack: CompatStack, sktid: int) -> None:
        self._stack = stack
        self.sktid = sktid
        self.closed = False

    def close(self) -> Generator:
        if not self.closed:
            self.closed = True
            yield from self._stack._close(self.sktid)


class CompatDatagramSocket(_CompatSocketBase):
    """A connected UDP socket with the familiar sendto/recvfrom shape."""

    def sendto(self, data: bytes) -> Generator:
        """Send immediately (pays one controller->endpoint trip)."""
        status = yield from self._stack.handle.nsend(self.sktid, 0, data)
        if status != ST_OK:
            raise CompatError(f"sendto failed (status {status})")

    def sendto_at(self, data: bytes, when_ticks: int) -> Generator:
        """Escape hatch into PacketLab's native scheduled send."""
        status = yield from self._stack.handle.nsend(self.sktid, when_ticks, data)
        if status != ST_OK:
            raise CompatError(f"sendto_at failed (status {status})")

    def recvfrom(self, timeout: float = 5.0) -> Generator:
        """Receive one datagram payload, or None on timeout."""
        received = yield from self._stack._recv_into(self.sktid, timeout)
        return received.data if received is not None else None


class CompatStreamSocket(_CompatSocketBase):
    """A connected TCP socket: send/recv over the endpoint's native TCP."""

    def send(self, data: bytes) -> Generator:
        status = yield from self._stack.handle.nsend(self.sktid, 0, data)
        if status != ST_OK:
            raise CompatError(f"send failed (status {status})")

    def recv(self, timeout: float = 5.0) -> Generator:
        """Receive the next stream chunk, or None on timeout."""
        received = yield from self._stack._recv_into(self.sktid, timeout)
        return received.data if received is not None else None

    def recv_exactly(self, count: int, timeout: float = 10.0) -> Generator:
        parts: list[bytes] = []
        remaining = count
        while remaining > 0:
            chunk = yield from self.recv(timeout)
            if chunk is None:
                raise CompatError(
                    f"timeout with {remaining} of {count} bytes unread"
                )
            take = chunk[:remaining]
            if len(chunk) > remaining:
                # Push back the excess for the next read.
                self._stack._buffers[self.sktid].insert(
                    0, ReceivedDatagram(chunk[remaining:], 0)
                )
            parts.append(take)
            remaining -= len(take)
        return b"".join(parts)


class CompatRawSocket(_CompatSocketBase):
    """A raw socket: inject IPv4 packets, receive captured ones."""

    def send_packet(self, packet_bytes: bytes) -> Generator:
        status = yield from self._stack.handle.nsend(self.sktid, 0, packet_bytes)
        if status != ST_OK:
            raise CompatError(f"send_packet failed (status {status})")

    def recv_packet(self, timeout: float = 5.0) -> Generator:
        """Receive one captured packet as (bytes, endpoint_ticks)."""
        received = yield from self._stack._recv_into(self.sktid, timeout)
        if received is None:
            return None
        return received.data, received.timestamp
