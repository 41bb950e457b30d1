"""A miniature but real TCP for the simulator.

Implements the subset of TCP that PacketLab's design depends on:

- three-way handshake, graceful FIN teardown, abortive RST,
- **RST generation for segments that match no connection** — the kernel
  behaviour that motivates the `ncap` consume/ignore/mirror verdicts (§3.1),
- cumulative ACKs with go-back-N retransmission, RFC 6298 RTO estimation,
- **piggybacked ACKs**: the ACK for in-order data is held to the end of
  the sim instant (``Simulator.at_instant_end``), so any segment the
  connection sends in that instant — typically the application's reply —
  carries it; otherwise a bare ACK leaves at that same sim time (a
  delayed ACK in the sense of RFC 1122 §4.2.3.2, with zero delay).
  Duplicate, out-of-order, FIN, nothing-accepted, TIME_WAIT and
  handshake ACKs and window updates still leave at once,
- **receive-window flow control** — the mechanism behind the paper's claim
  that a full endpoint capture buffer creates back pressure on TCP (§3.1),
- zero-window probing and spontaneous window updates,
- sender-side silly-window avoidance: while data is in flight, a segment
  the window would cut short waits for it to open. Held ACKs advertise
  the window after the application's read, so a bulk sender would
  otherwise chase every sliver of it with a runt,
- slow start / congestion avoidance with fast retransmit.

Out-of-order segments are not queued (the receiver dup-ACKs and the sender
retransmits), which trades throughput under loss for simplicity without
changing correctness.

Application API: ``write`` and ``read`` never wait. ``write`` appends
to the send buffer at once and the peer's window and ``cwnd`` pace what
leaves, so back pressure stalls a sender on the wire, not in its code.
Only receiving has generator helpers: ``yield from conn.recv()`` (or
``recv_exactly``) waits in a process for bytes or EOF. A push consumer
sets ``on_readable``, which new bytes, EOF or an error clear and call once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.netsim.kernel import Event, Queue, Timer
from repro.packet.ipv4 import PROTO_TCP, IPv4Packet
from repro.packet.tcp import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from repro.util.byteio import DecodeError

if TYPE_CHECKING:
    from repro.netsim.node import Node

SEQ_MOD = 1 << 32

DEFAULT_MSS = 1460
DEFAULT_RCV_BUFFER = 65535
MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0
MAX_RETRIES = 8
TIME_WAIT_SECONDS = 1.0
PROBE_INTERVAL = 0.5
EPHEMERAL_PORT_BASE = 33000

# Connection states.
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"


def seq_lt(a: int, b: int) -> bool:
    """True if sequence number ``a`` precedes ``b`` (mod 2^32)."""
    return ((a - b) & (SEQ_MOD - 1)) > (SEQ_MOD >> 1)


def seq_le(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


def seq_add(a: int, n: int) -> int:
    return (a + n) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Distance from ``b`` to ``a`` (mod 2^32), assuming a >= b."""
    return (a - b) % SEQ_MOD


class TcpError(Exception):
    """Base class for TCP application errors."""


class ConnectionReset(TcpError):
    pass


class ConnectionRefused(TcpError):
    pass


class ConnectionTimeout(TcpError):
    pass


class TcpConnection:
    """One endpoint of a TCP connection."""

    # Past CPython's shared-key limit an instance dict is ~1.6 KB, and a
    # fleet holds four connections per endpoint.
    __slots__ = (
        "layer", "node", "sim", "local_ip", "local_port", "remote_ip",
        "remote_port", "state", "error", "mss",
        # Send state.
        "iss", "snd_una", "snd_nxt", "snd_max", "snd_wnd", "snd_wl2",
        "snd_buffer", "fin_pending", "fin_seq",
        # Receive state.
        "rcv_nxt", "rcv_buffer", "rcv_buffer_capacity", "rcv_eof",
        "_advertised_zero", "_ack_owed",
        # Congestion control and RTT estimation.
        "cwnd", "ssthresh", "dup_acks", "srtt", "rttvar", "rto",
        "_rtt_sample_seq", "_rtt_sample_time",
        # Timers, waiters, stats.
        "_rtx_timer", "_probe_timer", "_time_wait_timer", "_retries",
        "established", "_closed_event", "on_readable", "retransmissions",
    )

    def __init__(
        self,
        layer: "TcpLayer",
        local_ip: int,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        rcv_buffer: int = DEFAULT_RCV_BUFFER,
    ) -> None:
        self.layer = layer
        self.node = layer.node
        self.sim = layer.node.sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = CLOSED
        self.error: Optional[TcpError] = None

        self.mss = DEFAULT_MSS

        # Send state.
        self.iss = layer._next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_max = self.iss  # highest sequence ever sent (for go-back-N)
        self.snd_wnd = 0  # peer-advertised window
        # RFC 793 SND.WL2: the ack on the segment that last set snd_wnd.
        self.snd_wl2 = self.iss
        self.snd_buffer = bytearray()  # unacked + unsent bytes, from snd_una
        self.fin_pending = False
        self.fin_seq: Optional[int] = None

        # Receive state.
        self.rcv_nxt = 0
        self.rcv_buffer = bytearray()  # in-order bytes not yet read by the app
        self.rcv_buffer_capacity = rcv_buffer
        self.rcv_eof = False
        self._advertised_zero = False
        # In-order data not yet acknowledged: _flush_ack is pending at
        # the end of the instant, withdrawn if a segment carries the ACK.
        self._ack_owed = False

        # Congestion control.
        self.cwnd = 4 * self.mss
        self.ssthresh = 1 << 30
        self.dup_acks = 0

        # RTT estimation (RFC 6298).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rtt_sample_seq: Optional[int] = None
        self._rtt_sample_time = 0.0

        # Timers.
        self._rtx_timer: Optional[Timer] = None
        self._probe_timer: Optional[Timer] = None
        self._time_wait_timer: Optional[Timer] = None
        self._retries = 0

        # Waiters.
        # Fired when the handshake ends, either way; then dropped.
        self.established: Optional[Event] = Event(self.sim)
        self._closed_event = Event(self.sim)
        # The one reader's wake-up (recv's event.fire or a push drain).
        self.on_readable: Optional[Callable[[], None]] = None

        # Stats.
        self.retransmissions = 0

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------

    def wait_established(self) -> Generator:
        """Block until the handshake completes (or raise on failure)."""
        event = self.established
        if event is not None and self.state != ESTABLISHED and self.error is None:
            yield event
        self._raise_if_error()
        return self

    def write(self, data: bytes) -> None:
        """Append ``data`` without waiting for buffer space; the peer's
        window and ``cwnd`` still bound what is in flight."""
        self._check_writable()
        self.snd_buffer.extend(data)
        self._try_transmit()

    def read(self, max_bytes: int = 65536) -> Optional[bytes]:
        """Take up to ``max_bytes`` without waiting: ``b''`` at EOF, None
        while nothing is buffered; the error once the buffer is empty."""
        buffer = self.rcv_buffer
        if buffer:
            data = bytes(buffer[:max_bytes])
            del buffer[:max_bytes]
            self._maybe_send_window_update()
            return data
        self._raise_if_error()
        if self.rcv_eof or self.state in (CLOSED, TIME_WAIT):
            return b""
        return None

    def wait_readable(self) -> Event:
        """An event that fires when ``read`` may have news; yield it."""
        waiter = Event(self.sim)
        self.on_readable = waiter.fire
        return waiter

    def recv(self, max_bytes: int = 65536) -> Generator:
        """Read up to ``max_bytes``; returns ``b''`` at EOF."""
        while (data := self.read(max_bytes)) is None:
            yield self.wait_readable()
        return data

    def recv_exactly(self, count: int) -> Generator:
        """Read exactly ``count`` bytes or raise on premature EOF."""
        parts: list[bytes] = []
        remaining = count
        while remaining > 0:
            chunk = yield from self.recv(remaining)
            if not chunk:
                raise TcpError(
                    f"connection closed with {remaining} of {count} bytes unread"
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def close(self) -> None:
        """Graceful close: FIN after all queued data is sent."""
        if self.state in (ESTABLISHED, SYN_RCVD):
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        elif self.state in (SYN_SENT, CLOSED):
            self._teardown(None)
            return
        else:
            return
        self.fin_pending = True
        self._try_transmit()

    def abort(self) -> None:
        """Abortive close: send RST, drop everything."""
        if self.state not in (CLOSED, TIME_WAIT, LISTEN):
            self._emit(FLAG_RST | FLAG_ACK, seq=self.snd_nxt)
        self._teardown(ConnectionReset("connection aborted locally"))

    def wait_closed(self) -> Generator:
        if not self._closed_event.fired:
            yield self._closed_event
        return None

    @property
    def bytes_in_flight(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una)

    @property
    def advertised_window(self) -> int:
        return max(0, self.rcv_buffer_capacity - len(self.rcv_buffer))

    def _raise_if_error(self) -> None:
        if self.error is not None:
            raise self.error

    def _check_writable(self) -> None:
        self._raise_if_error()
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise TcpError(f"write in state {self.state}")

    # ------------------------------------------------------------------
    # Connection startup
    # ------------------------------------------------------------------

    def start_connect(self) -> None:
        self.state = SYN_SENT
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self._emit(FLAG_SYN, seq=self.iss, mss=self.mss)
        self._arm_rtx_timer()

    def start_accept(self, syn: TcpSegment) -> None:
        self.state = SYN_RCVD
        self.rcv_nxt = seq_add(syn.seq, 1)
        if syn.mss is not None:
            self.mss = min(self.mss, syn.mss)
            self.cwnd = 4 * self.mss
        self.snd_wnd = syn.window
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self._emit(FLAG_SYN | FLAG_ACK, seq=self.iss, mss=self.mss)
        self._arm_rtx_timer()

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------

    def _emit(
        self,
        flags: int,
        seq: int,
        payload: bytes = b"",
        mss: Optional[int] = None,
    ) -> None:
        if flags & FLAG_ACK:
            ack = self.rcv_nxt
            if self._ack_owed:
                self._ack_owed = False
                self.sim.cancel_instant_end(self._flush_ack)
        else:
            ack = 0
        window = self.advertised_window
        self._advertised_zero = window == 0
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=min(window, 0xFFFF),
            payload=payload,
            mss=mss,
        )
        self.node.send_ip(
            IPv4Packet(self.local_ip, self.remote_ip, PROTO_TCP, segment=segment)
        )

    def _send_window(self) -> int:
        return min(self.snd_wnd, self.cwnd)

    def _try_transmit(self) -> None:
        """Send as much queued data as the send and congestion windows allow."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            return
        window = self._send_window()
        sent_any = False
        while True:
            in_flight = self.bytes_in_flight
            unsent_offset = in_flight  # snd_buffer starts at snd_una
            available = len(self.snd_buffer) - unsent_offset
            if available <= 0:
                break
            allowance = window - in_flight
            if allowance <= 0:
                break
            count = min(self.mss, available, allowance)
            if count < available and count < self.mss and in_flight:
                # Sender-side silly-window avoidance (RFC 1122 §4.2.3.4):
                # a runt cut short by the window waits for the ACKs in
                # flight to open it.
                break
            chunk = bytes(self.snd_buffer[unsent_offset : unsent_offset + count])
            seq = self.snd_nxt
            self.snd_nxt = seq_add(self.snd_nxt, count)
            if seq_lt(self.snd_max, self.snd_nxt):
                self.snd_max = self.snd_nxt
            flags = FLAG_ACK | (FLAG_PSH if count == available else 0)
            self._emit(flags, seq=seq, payload=chunk)
            if self._rtt_sample_seq is None:
                self._rtt_sample_seq = self.snd_nxt
                self._rtt_sample_time = self.sim.now
            sent_any = True
        # FIN once the buffer is fully transmitted (or re-transmitted to
        # its old position after a go-back-N rewind).
        if self.fin_pending and len(self.snd_buffer) == self.bytes_in_flight:
            if self.fin_seq is None:
                self.fin_seq = self.snd_nxt
            if self.snd_nxt == self.fin_seq:
                self.snd_nxt = seq_add(self.snd_nxt, 1)
                if seq_lt(self.snd_max, self.snd_nxt):
                    self.snd_max = self.snd_nxt
                self._emit(FLAG_FIN | FLAG_ACK, seq=self.fin_seq)
                sent_any = True
        if sent_any:
            self._arm_rtx_timer()
        if (
            self.snd_wnd == 0
            and len(self.snd_buffer) > self.bytes_in_flight
            and self._probe_timer is None
        ):
            self._arm_probe_timer()

    def _retransmit(self) -> None:
        """RTO recovery.

        Handshake states resend their SYN/SYN-ACK. Data states use
        textbook go-back-N: rewind ``snd_nxt`` to ``snd_una`` (re-arming
        the FIN if it was in flight) and let :meth:`_try_transmit` resend
        under the collapsed congestion window — subsequent ACKs then clock
        out the rest through slow start.
        """
        if self.state == SYN_SENT:
            self._emit(FLAG_SYN, seq=self.iss, mss=self.mss)
            self.retransmissions += 1
            return
        if self.state == SYN_RCVD:
            self._emit(FLAG_SYN | FLAG_ACK, seq=self.iss, mss=self.mss)
            self.retransmissions += 1
            return
        if self.bytes_in_flight == 0:
            return
        self.retransmissions += 1
        self.snd_nxt = self.snd_una
        self._try_transmit()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
        self._rtx_timer = self.sim.schedule(self.rto, self._on_rtx_timeout)

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _on_rtx_timeout(self) -> None:
        if self.state in (CLOSED, TIME_WAIT):
            return
        outstanding = (
            self.bytes_in_flight > 0
            or self.state in (SYN_SENT, SYN_RCVD)
            or (self.fin_seq is not None and seq_lt(self.snd_una, self.snd_nxt))
        )
        if not outstanding:
            self._rtx_timer = None
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            error: TcpError
            if self.state == SYN_SENT:
                error = ConnectionTimeout("connect timed out")
            else:
                error = ConnectionTimeout("too many retransmissions")
            self._teardown(error)
            return
        # Timeout: multiplicative backoff, collapse cwnd, invalidate sample.
        self.rto = min(self.rto * 2, MAX_RTO)
        self.ssthresh = max(2 * self.mss, self.bytes_in_flight // 2)
        self.cwnd = self.mss
        self.dup_acks = 0
        self._rtt_sample_seq = None
        self._retransmit()
        self._arm_rtx_timer()

    def _arm_probe_timer(self) -> None:
        if self._probe_timer is not None:
            self._probe_timer.cancel()
        self._probe_timer = self.sim.schedule(PROBE_INTERVAL, self._on_probe_timeout)

    def _on_probe_timeout(self) -> None:
        self._probe_timer = None
        if self.state in (CLOSED, TIME_WAIT):
            return
        if self.snd_wnd == 0 and len(self.snd_buffer) > self.bytes_in_flight:
            # Window probe: one byte past the window edge.
            offset = self.bytes_in_flight
            chunk = bytes(self.snd_buffer[offset : offset + 1])
            if chunk:
                self._emit(FLAG_ACK, seq=self.snd_nxt, payload=chunk)
            self._arm_probe_timer()

    # ------------------------------------------------------------------
    # Segment reception
    # ------------------------------------------------------------------

    def handle_segment(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        if segment.has(FLAG_RST):
            self._handle_rst(segment)
            return
        if self.state == SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if self.state in (CLOSED,):
            return
        if self.state == TIME_WAIT:
            # Re-ACK whatever arrives during TIME_WAIT.
            if segment.seg_len > 0:
                self._emit(FLAG_ACK, seq=self.snd_nxt)
            return
        if segment.has(FLAG_SYN):
            # Duplicate SYN (lost SYN-ACK): re-send the SYN-ACK.
            if self.state == SYN_RCVD:
                self._emit(FLAG_SYN | FLAG_ACK, seq=self.iss, mss=self.mss)
            return
        if segment.has(FLAG_ACK):
            self._handle_ack(segment)
        if self.state in (CLOSED, TIME_WAIT):
            return
        if segment.payload or segment.has(FLAG_FIN):
            self._handle_data(segment)

    def _handle_rst(self, segment: TcpSegment) -> None:
        if self.state == SYN_SENT:
            if segment.has(FLAG_ACK) and segment.ack == self.snd_nxt:
                self._teardown(ConnectionRefused("connection refused (RST)"))
            return
        if self.state in (CLOSED,):
            return
        # Accept RSTs within the window (simplified check).
        self._teardown(ConnectionReset("connection reset by peer"))

    def _handle_syn_sent(self, segment: TcpSegment) -> None:
        if not (segment.has(FLAG_SYN) and segment.has(FLAG_ACK)):
            return
        if segment.ack != self.snd_nxt:
            self._emit(FLAG_RST, seq=segment.ack)
            return
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.snd_una = segment.ack
        self.snd_wnd = segment.window
        self.snd_wl2 = segment.ack
        if segment.mss is not None:
            self.mss = min(self.mss, segment.mss)
            self.cwnd = 4 * self.mss
        self._retries = 0
        self._cancel_rtx_timer()
        self.state = ESTABLISHED
        self._emit(FLAG_ACK, seq=self.snd_nxt)
        self._fire_established()

    def _handle_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        # Only a segment no older than the one that last set the window
        # may set it, so a reordered stale ACK cannot shrink it. RFC 793
        # orders segments by seq (SND.WL1), then ack (SND.WL2); that still
        # lets a stale copy tied on both, or one newer by seq than a data
        # retransmission with a later ack, shrink the window. So order by
        # ack, then window: the peer's ack never decreases, and at one ack
        # its window only grows (it never moves its right edge left). The
        # ack may run one past snd_max: a window probe's byte is not
        # counted there, yet the peer may accept it and acknowledge it.
        wl2 = self.snd_wl2
        if ack == wl2:
            fresh = segment.window >= self.snd_wnd
        else:
            # wl2 < ack <= snd_max + 1, in sequence space.
            fresh = (0 < (ack - wl2) % SEQ_MOD
                     <= (self.snd_max + 1 - wl2) % SEQ_MOD)
        if fresh:
            self.snd_wnd = segment.window
            self.snd_wl2 = ack
        if self.state == SYN_RCVD and ack == self.snd_nxt:
            self.state = ESTABLISHED
            self._retries = 0
            self._cancel_rtx_timer()
            self.layer._connection_established(self)
            self._fire_established()
        if seq_lt(self.snd_una, ack) and seq_le(ack, self.snd_max):
            # An ACK above snd_nxt is possible after a go-back-N rewind
            # (it acknowledges data sent before the rewind): jump forward.
            if seq_lt(self.snd_nxt, ack):
                self.snd_nxt = ack
            acked = seq_sub(ack, self.snd_una)
            data_acked = min(acked, len(self.snd_buffer))
            del self.snd_buffer[:data_acked]
            self.snd_una = ack
            self._retries = 0
            self.dup_acks = 0
            # RTT sample (Karn: only for never-retransmitted samples).
            if (
                self._rtt_sample_seq is not None
                and seq_le(self._rtt_sample_seq, ack)
            ):
                self._update_rtt(self.sim.now - self._rtt_sample_time)
                self._rtt_sample_seq = None
            # Congestion window growth.
            if self.cwnd < self.ssthresh:
                self.cwnd += data_acked  # slow start
            elif self.cwnd > 0:
                self.cwnd += max(1, self.mss * self.mss // self.cwnd)
            # FIN acked?
            if self.fin_seq is not None and seq_lt(self.fin_seq, ack):
                self._on_fin_acked()
            if self.bytes_in_flight == 0:
                self._cancel_rtx_timer()
            else:
                self._arm_rtx_timer()
            self._try_transmit()
        elif ack == self.snd_una and self.bytes_in_flight > 0:
            self.dup_acks += 1
            if self.dup_acks == 3:
                # Fast retransmit + simplified recovery.
                self.ssthresh = max(2 * self.mss, self.bytes_in_flight // 2)
                self.cwnd = self.ssthresh + 3 * self.mss
                self._rtt_sample_seq = None
                # Only bytes already sent: what lies past snd_nxt has never
                # been through the window check.
                chunk = bytes(
                    self.snd_buffer[: min(self.mss, self.bytes_in_flight)]
                )
                if chunk:
                    self._emit(FLAG_ACK, seq=self.snd_una, payload=chunk)
                    self.retransmissions += 1
        else:
            # Window update or duplicate; may unblock transmission.
            self._try_transmit()
        if self.snd_wnd > 0 and self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None
            self._try_transmit()

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)

    def _handle_data(self, segment: TcpSegment) -> None:
        seq = segment.seq
        payload = segment.payload
        # Trim any portion we already received.
        if seq_lt(seq, self.rcv_nxt):
            overlap = seq_sub(self.rcv_nxt, seq)
            if overlap >= len(payload) and not segment.has(FLAG_FIN):
                self._emit(FLAG_ACK, seq=self.snd_nxt)  # pure duplicate
                return
            payload = payload[overlap:]
            seq = self.rcv_nxt
        if seq != self.rcv_nxt:
            # Out of order: dup-ACK and drop (go-back-N receiver).
            self._emit(FLAG_ACK, seq=self.snd_nxt)
            return
        space = self.advertised_window
        accepted = payload[: max(0, space)]
        if accepted:
            self.rcv_buffer.extend(accepted)
            self.rcv_nxt = seq_add(self.rcv_nxt, len(accepted))
            self._wake_receivers()
        fin_in_order = (
            segment.has(FLAG_FIN)
            and len(accepted) == len(payload)
            and not self.rcv_eof
        )
        if fin_in_order:
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self.rcv_eof = True
            self._wake_receivers()
            self._on_fin_received()
        elif accepted:
            # Held to the end of the instant, so that a reply the
            # application sends meanwhile carries it.
            if not self._ack_owed:
                self._ack_owed = True
                self.sim.at_instant_end(self._flush_ack)
            return
        self._emit(FLAG_ACK, seq=self.snd_nxt)

    def _flush_ack(self) -> None:
        """End of the instant: nothing carried the owed ACK, so send it."""
        if self._ack_owed:
            self._ack_owed = False
            if self.state != CLOSED:
                self._emit(FLAG_ACK, seq=self.snd_nxt)

    def _on_fin_received(self) -> None:
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()

    def _on_fin_acked(self) -> None:
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._teardown(None)

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._cancel_rtx_timer()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
        self._time_wait_timer = self.sim.schedule(
            TIME_WAIT_SECONDS, self._teardown, None
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _teardown(self, error: Optional[TcpError]) -> None:
        if self.state == CLOSED and self._closed_event.fired:
            return
        self.state = CLOSED
        self.error = error
        self.rcv_eof = True
        self._cancel_rtx_timer()
        for timer in (self._probe_timer, self._time_wait_timer):
            if timer is not None:
                timer.cancel()
        self._probe_timer = None
        self._time_wait_timer = None
        self.layer._forget(self)
        self._fire_established()
        self._wake_receivers()
        if not self._closed_event.fired:
            self._closed_event.fire(None)

    def _fire_established(self) -> None:
        """Fire the handshake's event once; nothing waits on it after."""
        event, self.established = self.established, None
        if event is not None:
            event.fire(self)

    def _wake_receivers(self) -> None:
        callback, self.on_readable = self.on_readable, None
        if callback is not None:
            callback()

    def _maybe_send_window_update(self) -> None:
        """After the app drains the receive buffer, reopen the window."""
        if self.state in (CLOSED, TIME_WAIT, SYN_SENT):
            return
        if self._advertised_zero and self.advertised_window > 0:
            self._emit(FLAG_ACK, seq=self.snd_nxt)

    def __repr__(self) -> str:
        return (f"<TcpConnection {self.node.name}:{self.local_port}"
                f"->{self.remote_port} {self.state}>")


class TcpListener:
    """A passive socket; ``accept()`` yields established connections."""

    def __init__(self, layer: "TcpLayer", port: int,
                 rcv_buffer: int = DEFAULT_RCV_BUFFER) -> None:
        self.layer = layer
        self.port = port
        self.rcv_buffer = rcv_buffer
        self.backlog: Queue = Queue(layer.node.sim, name=f"accept:{port}")
        self.closed = False

    def accept(self) -> Event:
        """Returns an event firing with the next established connection."""
        return self.backlog.get()

    def close(self) -> None:
        self.closed = True
        self.layer._listeners.pop(self.port, None)


class TcpLayer:
    """Per-node TCP: demux table, listeners, RST generation."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._connections: dict[tuple[int, int, int, int], TcpConnection] = {}
        self._listeners: dict[int, TcpListener] = {}
        self._pending: dict[tuple[int, int, int, int], TcpConnection] = {}
        self._next_port = EPHEMERAL_PORT_BASE
        self._isn_counter = 1000
        self.rsts_sent = 0
        self.rx_rejected = 0

    def _next_isn(self) -> int:
        self._isn_counter = (self._isn_counter + 64001) % SEQ_MOD
        return self._isn_counter

    def _allocate_port(self) -> int:
        for _ in range(0xFFFF - EPHEMERAL_PORT_BASE):
            port = self._next_port
            self._next_port += 1
            if self._next_port > 0xFFFF:
                self._next_port = EPHEMERAL_PORT_BASE
            if port not in self._listeners and not any(
                key[1] == port for key in self._connections
            ):
                return port
        raise RuntimeError("out of ephemeral TCP ports")

    # -- application entry points ------------------------------------------

    def listen(self, port: int, rcv_buffer: int = DEFAULT_RCV_BUFFER) -> TcpListener:
        if port in self._listeners:
            raise RuntimeError(f"TCP port {port} already listening on {self.node.name}")
        listener = TcpListener(self, port, rcv_buffer=rcv_buffer)
        self._listeners[port] = listener
        return listener

    def connect(
        self,
        dst_ip: int,
        dst_port: int,
        src_port: int = 0,
        src_ip: int = 0,
        rcv_buffer: int = DEFAULT_RCV_BUFFER,
    ) -> TcpConnection:
        """Initiate a connection (returns immediately; wait_established to
        block)."""
        local_ip = src_ip or self.node.primary_address()
        local_port = src_port or self._allocate_port()
        key = (local_ip, local_port, dst_ip, dst_port)
        if key in self._connections:
            raise RuntimeError(f"connection {key} already exists")
        conn = TcpConnection(
            self, local_ip, local_port, dst_ip, dst_port,
            rcv_buffer=rcv_buffer,
        )
        self._connections[key] = conn
        conn.start_connect()
        return conn

    def open_connection(self, dst_ip: int, dst_port: int, **kwargs) -> Generator:
        """Generator helper: connect and wait for establishment."""
        conn = self.connect(dst_ip, dst_port, **kwargs)
        yield from conn.wait_established()
        return conn

    # -- wire entry point ----------------------------------------------------

    def receive(self, packet: IPv4Packet) -> None:
        segment = packet.segment
        if segment is None:
            # The packet entered as bytes (raw nsend): verify them.
            try:
                segment = TcpSegment.decode(packet.payload, packet.src, packet.dst)
            except DecodeError:
                self.rx_rejected += 1
                obs = self.node.sim.obs
                if obs.enabled:
                    obs.counter("tcp.rx_rejected", node=self.node.name).inc()
                return
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(packet, segment)
            return
        # New connection request?
        if segment.has(FLAG_SYN) and not segment.has(FLAG_ACK):
            listener = self._listeners.get(segment.dst_port)
            if listener is not None and not listener.closed:
                conn = TcpConnection(
                    self,
                    packet.dst,
                    segment.dst_port,
                    packet.src,
                    segment.src_port,
                    rcv_buffer=listener.rcv_buffer,
                )
                self._connections[key] = conn
                self._pending[key] = conn
                conn.start_accept(segment)
                return
        self._send_rst(packet, segment)

    def _connection_established(self, conn: TcpConnection) -> None:
        """A SYN_RCVD connection reached ESTABLISHED; hand to the listener."""
        key = (conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        if key in self._pending:
            del self._pending[key]
            listener = self._listeners.get(conn.local_port)
            if listener is not None and not listener.closed:
                listener.backlog.put(conn)
            else:
                conn.abort()

    def _send_rst(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        """RST for a segment that matches no socket — the kernel behaviour
        the paper's raw-mode consume filter exists to suppress."""
        if segment.has(FLAG_RST):
            return
        self.rsts_sent += 1
        if segment.has(FLAG_ACK):
            reply = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=segment.ack,
                ack=0,
                flags=FLAG_RST,
                window=0,
            )
        else:
            reply = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=0,
                ack=seq_add(segment.seq, segment.seg_len),
                flags=FLAG_RST | FLAG_ACK,
                window=0,
            )
        self.node.send_ip(
            IPv4Packet(packet.dst, packet.src, PROTO_TCP, segment=reply)
        )

    def _forget(self, conn: TcpConnection) -> None:
        key = (conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        self._connections.pop(key, None)
        self._pending.pop(key, None)
