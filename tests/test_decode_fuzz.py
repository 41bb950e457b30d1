"""Decode fuzzing: arbitrary bytes must be rejected cleanly.

Every decoder in the system faces attacker-controlled input (wire
messages, certificates, filter programs, packets). Feeding random bytes
must produce a DecodeError (or equivalent typed error) — never an
IndexError, struct.error, infinite loop, or silent nonsense.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.certificate import Certificate
from repro.crypto.chain import CertificateChain
from repro.filtervm.program import FilterProgram
from repro.packet.dns import DnsMessage
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet
from repro.packet.tcp import TcpSegment
from repro.packet.udp import UdpDatagram
from repro.proto.messages import decode_message
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.util.byteio import DecodeError

RANDOM_BYTES = st.binary(min_size=0, max_size=300)


def _expect_clean(decoder, data):
    """The decoder either succeeds or raises DecodeError — nothing else."""
    try:
        decoder(data)
    except DecodeError:
        pass


class TestDecodeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_wire_messages(self, data):
        _expect_clean(decode_message, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_certificates(self, data):
        _expect_clean(Certificate.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_chains(self, data):
        _expect_clean(CertificateChain.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_descriptors(self, data):
        _expect_clean(ExperimentDescriptor.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_filter_programs(self, data):
        _expect_clean(FilterProgram.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_ipv4(self, data):
        _expect_clean(IPv4Packet.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_icmp(self, data):
        _expect_clean(IcmpMessage.decode, data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_udp(self, data):
        _expect_clean(lambda d: UdpDatagram.decode(d, 1, 2), data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_tcp(self, data):
        _expect_clean(lambda d: TcpSegment.decode(d, 1, 2), data)

    @settings(max_examples=200, deadline=None)
    @given(data=RANDOM_BYTES)
    def test_dns(self, data):
        _expect_clean(DnsMessage.decode, data)

    @settings(max_examples=100, deadline=None)
    @given(data=RANDOM_BYTES, flips=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 255)), max_size=4))
    def test_corrupted_valid_message(self, data, flips):
        """Start from a VALID message, corrupt it, decode must stay clean."""
        from repro.proto.messages import NSend

        valid = bytearray(NSend(reqid=1, sktid=0, time=5, data=data).encode())
        for position, flip in flips:
            valid[position % len(valid)] ^= flip
        _expect_clean(decode_message, bytes(valid))
