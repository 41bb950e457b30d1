"""HTTP GET over the PacketLab interface.

The censorship-measurement use case from the paper's introduction
(observing Internet censorship needs the right vantage point): fetch a URL
from the endpoint's network position using a native TCP socket, and report
what came back. Comparing the body/status across vantage points is exactly
the OONI/ICLab measurement pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.controller.client import EndpointHandle
from repro.netsim.clock import NANOSECONDS
from repro.proto.constants import ST_CONNECT_FAILED


@dataclass
class HttpResult:
    connected: bool
    status_line: Optional[str]
    headers: dict[str, str]
    body: bytes
    fetch_time: Optional[float]  # endpoint-clock seconds to full response


def http_get(
    handle: EndpointHandle,
    server: int,
    path: str = "/",
    port: int = 80,
    host_header: str = "example.org",
    timeout: float = 10.0,
    sktid: int = 0,
) -> Generator:
    """Fetch ``path`` from ``server`` through the endpoint."""
    status = yield from handle.nopen_tcp(sktid, remaddr=server, remport=port)
    if status == ST_CONNECT_FAILED:
        return HttpResult(connected=False, status_line=None, headers={},
                          body=b"", fetch_time=None)
    handle.expect_ok(status, "nopen(tcp)")
    request = (
        f"GET {path} HTTP/1.0\r\nHost: {host_header}\r\n\r\n".encode("ascii")
    )
    t0 = yield from handle.read_clock()
    status = yield from handle.nsend(sktid, 0, request)
    handle.expect_ok(status, "nsend")
    deadline = t0 + int(timeout * NANOSECONDS)
    raw = b""
    finished_at: Optional[int] = None
    while True:
        poll = yield from handle.npoll(deadline)
        for record in poll.records:
            raw += record.data
            finished_at = record.timestamp
        if _response_complete(raw):
            break
        now = yield from handle.read_clock()
        if now >= deadline:
            break
    yield from handle.nclose(sktid)
    status_line, headers, body = _parse_response(raw)
    return HttpResult(
        connected=True,
        status_line=status_line,
        headers=headers,
        body=body,
        fetch_time=((finished_at - t0) / NANOSECONDS) if finished_at else None,
    )


def _response_complete(raw: bytes) -> bool:
    if b"\r\n\r\n" not in raw:
        return False
    head, body = raw.split(b"\r\n\r\n", 1)
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            try:
                expected = int(line.split(b":", 1)[1].strip())
            except ValueError:
                return True
            return len(body) >= expected
    return True  # no content-length: treat header end as complete


def _parse_response(raw: bytes):
    if b"\r\n\r\n" not in raw:
        return None, {}, b""
    head, body = raw.split(b"\r\n\r\n", 1)
    lines = head.split(b"\r\n")
    status_line = lines[0].decode("ascii", "replace")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if b":" in line:
            key, _, value = line.partition(b":")
            headers[key.decode("ascii", "replace").strip().lower()] = (
                value.decode("ascii", "replace").strip()
            )
    return status_line, headers, body
