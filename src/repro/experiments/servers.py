"""Simulated server applications for experiment targets.

They run on simulated hosts (they are *not* PacketLab components) and give
experiments something realistic to measure against: UDP echo, a UDP sink
that records arrival times (the paper's bandwidth server), a DNS
authoritative server, and a minimal HTTP server. The echo, DNS and HTTP
servers are processes that live as long as the simulation. The sink lives
as long as the job that started it: it runs in no process, and ``stop()``
gives its port back.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.netsim.kernel import Event
from repro.netsim.node import Node
from repro.netsim.stack.udp import UdpSocket
from repro.packet.dns import DnsMessage, DnsRecord, RCODE_NXDOMAIN
from repro.util.byteio import DecodeError


def start_udp_echo(node: Node, port: int, prefix: bytes = b"") -> None:
    """Echo every UDP datagram back to its sender."""

    def server() -> Generator:
        sock = node.udp.bind(port)
        while True:
            payload, src_ip, src_port, _ = yield sock.recvfrom()
            sock.sendto(prefix + payload, src_ip, src_port)

    node.spawn(server(), name=f"udp-echo:{port}")


class UdpSink:
    """Records ``(sim_time, size)`` for every datagram received.

    A push consumer, like the endpoint's UDP socket: each datagram's
    continuation records it and re-arms ``recvfrom``. Port 0 binds an
    ephemeral port (read it from ``port``); ``stop()`` closes the socket.
    """

    def __init__(self, node: Node, port: int) -> None:
        self.node = node
        self.port = port
        self.arrivals: list[tuple[float, int]] = []
        self._sock: Optional[UdpSocket] = None
        self._waiting: Optional[Event] = None

    def start(self) -> "UdpSink":
        self._sock = self.node.udp.bind(self.port)
        self.port = self._sock.port
        self._recvfrom()
        return self

    def stop(self) -> None:
        """Close the socket and drop the pending receive; idempotent."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()
            self._waiting.drop_waiter(self._on_datagram)
            self._waiting = None

    def _recvfrom(self) -> None:
        self._waiting = self._sock.recvfrom()
        self._waiting.then(self._on_datagram)

    def _on_datagram(self, item: tuple) -> None:
        if self._sock is None:
            return
        self.arrivals.append((self.node.sim.now, len(item[0])))
        self._recvfrom()

    @property
    def count(self) -> int:
        return len(self.arrivals)

    def observed_rate_bps(self, wire_overhead: int = 42) -> float:
        """Arrival rate including per-packet wire overhead (UDP 8 + IP 20 +
        link 14 = 42 bytes), computed over the burst span."""
        if len(self.arrivals) < 2:
            return 0.0
        first_time = self.arrivals[0][0]
        last_time = self.arrivals[-1][0]
        if last_time <= first_time:
            return 0.0
        bits = sum(
            (size + wire_overhead) * 8 for _, size in self.arrivals[1:]
        )
        return bits / (last_time - first_time)


def start_dns_server(node: Node, port: int, zone: dict[str, int]) -> None:
    """Authoritative DNS for a static name -> IPv4 zone."""

    def server() -> Generator:
        sock = node.udp.bind(port)
        while True:
            payload, src_ip, src_port, _ = yield sock.recvfrom()
            try:
                query = DnsMessage.decode(payload)
            except DecodeError:
                continue
            if not query.questions:
                continue
            name = query.questions[0].name
            address = zone.get(name)
            if address is None:
                response = query.respond((), rcode=RCODE_NXDOMAIN)
            else:
                response = query.respond((DnsRecord.a(name, address),))
            sock.sendto(response.encode(), src_ip, src_port)

    node.spawn(server(), name=f"dns:{port}")


def start_http_server(
    node: Node, port: int, pages: Optional[dict[str, bytes]] = None
) -> None:
    """A minimal HTTP/1.0 server: GET <path>, Content-Length, close."""
    site = pages or {"/": b"<html>hello from the simulated web</html>"}

    def handle(conn) -> Generator:
        request = b""
        while b"\r\n\r\n" not in request:
            chunk = yield from conn.recv(1024)
            if not chunk:
                conn.close()
                return
            request += chunk
        line = request.split(b"\r\n", 1)[0].decode("ascii", "replace")
        parts = line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        body = site.get(path)
        if body is None:
            head = b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n"
            conn.write(head)
        else:
            head = (
                b"HTTP/1.0 200 OK\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
            )
            conn.write(head + body)
        conn.close()

    def server() -> Generator:
        listener = node.tcp.listen(port)
        while True:
            conn = yield listener.accept()
            node.spawn(handle(conn), name=f"http-conn:{port}")

    node.spawn(server(), name=f"http:{port}")
