"""The reading processes the endpoint's native sockets used to run.

``UdpEndpointSocket`` and ``TcpEndpointSocket`` are read by ``Event.then``
continuations and run no process. This module keeps the straightforward
form they replace, one process per socket looping over ``recvfrom()`` or
over a capture-space wait and ``recv``, as subclasses that spawn that
loop instead of arming the continuation. The continuations are tested
against these loops (same records at the same instants, same drop
counters, and every heap entry a loop took except its spawn).
"""

from __future__ import annotations

from functools import partial
from typing import Generator

from repro.endpoint.netio import (
    TCP_READ_CHUNK,
    EndpointSocket,
    TcpEndpointSocket,
    UdpEndpointSocket,
    _frame,
)
from repro.netsim.stack.tcp import TcpError
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP


class PullUdpSocket(UdpEndpointSocket):
    """A UDP socket read by a ``udp-reader-N`` process."""

    def _recvfrom(self) -> None:  # called once, by __init__
        self._reader = self.node.spawn(self._read_loop(),
                                       name=f"udp-reader-{self.sktid}")

    def _read_loop(self) -> Generator:
        while not self.closed:
            item = yield self._udp.recvfrom()
            if item is None:
                return
            payload, src_ip, src_port, dst_ip = item
            if not self._check_recv(partial(
                _frame, PROTO_UDP, src_ip, src_port, dst_ip, self.local_port,
                payload,
            )):
                continue
            if not self._buffer.space_for(len(payload)):
                self._buffer.note_drop(len(payload))
                continue
            self._capture(payload)

    def close(self) -> None:
        if not self.closed:
            EndpointSocket.close(self)
            self._udp.close()
            self._reader.kill()


class PullTcpSocket(TcpEndpointSocket):
    """A TCP socket read by a ``tcp-reader-N`` process."""

    def _wait_for_space(self) -> None:  # called once, by __init__
        self._reader = self.node.spawn(self._read_loop(),
                                       name=f"tcp-reader-{self.sktid}")

    def _read_loop(self) -> Generator:
        while not self.closed:
            yield self._buffer.wait_for_space(TCP_READ_CHUNK)
            if self.closed:
                return
            try:
                chunk = yield from self.conn.recv(TCP_READ_CHUNK)
            except TcpError:
                return
            if not chunk:
                return
            if not self._check_recv(partial(
                _frame, PROTO_TCP, self.remaddr, self.remport,
                self.node.primary_address(), self.local_port, chunk,
            )):
                continue
            self._capture(chunk)

    def close(self) -> None:
        if not self.closed:
            EndpointSocket.close(self)
            self._reader.kill()
            self.conn.close()
