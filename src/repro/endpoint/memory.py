"""Endpoint memory: the structured block behind ``mread``/``mwrite``.

§3.1: "A PacketLab endpoint makes this information such as its IP address,
DHCP parameters, and the current socket state available to the controller
via a structured block of memory that is accessed using the mread and
mwrite commands" and "an endpoint makes its clock available as a read-only
64-bit value via the memory".

Layout (big-endian; the first 52 bytes mirror ``struct plinfo`` in the Cpf
prelude, asserted by tests):

====== ===== =====================================================
offset size  field
====== ===== =====================================================
0      2     info version
2      2     capability flags (CAP_RAW / CAP_TCP / CAP_UDP)
4      4     reserved
8      4     internal IPv4 address
12     4     external IPv4 address (0 if unknown / no NAT)
16     4     gateway address
20     4     DNS server address (DHCP-style parameter)
24     8     local clock, 64-bit nanosecond ticks (read refreshes)
32     4     capture buffer capacity (bytes)
36     4     capture buffer bytes used
40     4     packets dropped due to buffer exhaustion
44     8     bytes dropped due to buffer exhaustion
52     12    reserved
64     16*32 socket state table (32 slots, 16 bytes each):
             u8 in_use, u8 proto, u16 local port,
             u32 pending sends, u64 last actual send time (ticks)
576    ...   reserved up to 2048
2048   2048  controller scratch area (writable with mwrite)
====== ===== =====================================================

The same block is exposed read-only to monitor programs as their info
space, so a monitor can, for example, compare a packet's source address
against the endpoint's own (Figure 2 does exactly this).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.filtervm.vm import VmFault

if TYPE_CHECKING:
    from repro.endpoint.endpoint import Endpoint

MEMORY_SIZE = 4096
SCRATCH_START = 2048
SCRATCH_SIZE = MEMORY_SIZE - SCRATCH_START

OFF_VERSION = 0
OFF_CAPS = 2
OFF_ADDR_IP = 8
OFF_ADDR_EXT = 12
OFF_ADDR_GW = 16
OFF_ADDR_DNS = 20
OFF_CLOCK = 24
OFF_BUF_CAPACITY = 32
OFF_BUF_USED = 36
OFF_BUF_DROPPED_PKTS = 40
OFF_BUF_DROPPED_BYTES = 44
OFF_SOCKET_TABLE = 64
SOCKET_SLOT_SIZE = 16
SOCKET_SLOTS = 32
_BUF_STATS_END = OFF_BUF_DROPPED_BYTES + 8
_SOCKET_TABLE_END = OFF_SOCKET_TABLE + SOCKET_SLOTS * SOCKET_SLOT_SIZE

INFO_VERSION = 1


class MemoryError_(Exception):
    """Raised on out-of-range or read-only memory access."""


class EndpointMemory:
    """The endpoint's controller-visible memory region.

    Dynamic fields (clock, buffer statistics, socket table) are refreshed
    by every read that covers them, so an ``mread`` of the clock offset
    always returns the current local time — the basis of the paper's
    timekeeping design. Buffer statistics keep their last values while
    no session holds the endpoint.
    """

    def __init__(self, endpoint: "Endpoint") -> None:
        self._endpoint = endpoint
        self._data = bytearray(MEMORY_SIZE)
        struct.pack_into(">H", self._data, OFF_VERSION, INFO_VERSION)

    # -- static configuration ----------------------------------------------

    def set_caps(self, caps: int) -> None:
        struct.pack_into(">H", self._data, OFF_CAPS, caps)

    def set_addresses(self, ip: int, ext_ip: int = 0, gateway: int = 0,
                      dns: int = 0) -> None:
        struct.pack_into(">IIII", self._data, OFF_ADDR_IP, ip, ext_ip, gateway, dns)

    # -- dynamic refresh ------------------------------------------------------

    def _refresh(self, start: int, end: int) -> None:
        """Rewrite the dynamic fields that overlap ``[start, end)``; a read
        sees only those, so the rest waits for a read that covers it."""
        endpoint = self._endpoint
        data = self._data
        if start < OFF_CLOCK + 8 and end > OFF_CLOCK:
            struct.pack_into(">Q", data, OFF_CLOCK, endpoint.clock_ticks())
        if start < _BUF_STATS_END and end > OFF_BUF_CAPACITY:
            buffer = endpoint.active_capture_buffer()
            if buffer is not None:
                struct.pack_into(
                    ">IIIQ",
                    data,
                    OFF_BUF_CAPACITY,
                    buffer.capacity & 0xFFFFFFFF,
                    buffer.used & 0xFFFFFFFF,
                    buffer.dropped_packets & 0xFFFFFFFF,
                    buffer.dropped_bytes & 0xFFFFFFFFFFFFFFFF,
                )
        if start < _SOCKET_TABLE_END and end > OFF_SOCKET_TABLE:
            first = max(0, start - OFF_SOCKET_TABLE) // SOCKET_SLOT_SIZE
            last = min(SOCKET_SLOTS, -(-(end - OFF_SOCKET_TABLE) // SOCKET_SLOT_SIZE))
            self._refresh_sockets(first, last)

    def _refresh_sockets(self, first: int, last: int) -> None:
        """Rewrite socket slots ``first`` up to ``last`` (exclusive)."""
        sockets = self._endpoint.active_sockets()
        for slot in range(first, last):
            base = OFF_SOCKET_TABLE + slot * SOCKET_SLOT_SIZE
            socket = sockets.get(slot)
            if socket is None:
                self._data[base : base + SOCKET_SLOT_SIZE] = b"\x00" * SOCKET_SLOT_SIZE
            else:
                struct.pack_into(
                    ">BBHIQ",
                    self._data,
                    base,
                    1,
                    socket.proto & 0xFF,
                    socket.local_port & 0xFFFF,
                    socket.pending_sends & 0xFFFFFFFF,
                    socket.last_send_ticks & 0xFFFFFFFFFFFFFFFF,
                )

    # -- controller access (mread/mwrite) ------------------------------------

    def read(self, offset: int, count: int) -> bytes:
        if offset < 0 or count < 0 or offset + count > MEMORY_SIZE:
            raise MemoryError_(
                f"mread [{offset}:{offset + count}] outside memory of "
                f"{MEMORY_SIZE} bytes"
            )
        self._refresh(offset, offset + count)
        return bytes(self._data[offset : offset + count])

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < SCRATCH_START or end > MEMORY_SIZE:
            raise MemoryError_(
                f"mwrite [{offset}:{end}] outside writable scratch "
                f"[{SCRATCH_START}:{MEMORY_SIZE}]"
            )
        self._data[offset:end] = data

    # -- monitor access (filter VM InfoSource protocol) -----------------------

    def info_read(self, offset: int, size: int) -> bytes:
        """Read for monitor programs; faults map to filter-VM faults."""
        if offset < 0 or offset + size > MEMORY_SIZE:
            raise VmFault(f"info read [{offset}:{offset + size}] out of bounds")
        self._refresh(offset, offset + size)
        return bytes(self._data[offset : offset + size])


class MonitorInfoView:
    """Adapter giving a FilterVM read access to the endpoint memory."""

    def __init__(self, memory: EndpointMemory) -> None:
        self._memory = memory

    def read(self, offset: int, size: int) -> bytes:
        return self._memory.info_read(offset, size)
