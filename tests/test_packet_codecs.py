"""Unit + property tests for the packet header codecs."""

import struct

import pytest
from hypothesis import assume, example, given, strategies as st

from repro.packet.checksum import internet_checksum
from repro.packet.dns import (
    FLAG_QR,
    QTYPE_A,
    RCODE_NXDOMAIN,
    DnsMessage,
    DnsRecord,
    decode_name,
    encode_name,
)
from repro.packet.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    IcmpMessage,
)
from repro.packet.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packet.tcp import FLAG_ACK, FLAG_SYN, TcpSegment
from repro.packet.udp import UdpDatagram
from repro.util.byteio import DecodeError
from repro.util.inet import parse_ip

SRC = parse_ip("10.0.0.1")
DST = parse_ip("10.0.0.2")


# -- reference oracle -----------------------------------------------------------
#
# The per-word loop `internet_checksum` was before it became one big-integer
# modulo, and the codecs' old way of checksumming a segment (pseudo-header
# bytes concatenated in front, checksum spliced in afterwards). Kept here, and
# only here, as what the fast versions are compared against.


def reference_checksum(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def reference_pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    return struct.pack(">IIBBH", src, dst, 0, proto, length)


def reference_ipv4(packet: IPv4Packet) -> bytes:
    header = struct.pack(
        ">BBHHHBBHII", 0x45, packet.dscp << 2, packet.total_length,
        packet.ident, 0x4000 if packet.dont_fragment else 0, packet.ttl,
        packet.proto, 0, packet.src, packet.dst,
    )
    checksum = reference_checksum(header)
    return header[:10] + struct.pack(">H", checksum) + header[12:] + packet.payload


def reference_tcp(segment: TcpSegment, src: int, dst: int) -> bytes:
    options = b"" if segment.mss is None else struct.pack(">BBH", 2, 4, segment.mss)
    raw = struct.pack(
        ">HHIIBBHHH", segment.src_port, segment.dst_port, segment.seq,
        segment.ack, (20 + len(options)) // 4 << 4, segment.flags,
        segment.window, 0, 0,
    ) + options + segment.payload
    checksum = reference_checksum(
        reference_pseudo_header(src, dst, PROTO_TCP, len(raw)) + raw)
    return raw[:16] + struct.pack(">H", checksum) + raw[18:]


def reference_udp(datagram: UdpDatagram, src: int, dst: int) -> bytes:
    raw = struct.pack(">HHHH", datagram.src_port, datagram.dst_port,
                      datagram.wire_len, 0) + datagram.payload
    checksum = reference_checksum(
        reference_pseudo_header(src, dst, PROTO_UDP, len(raw)) + raw)
    return raw[:6] + struct.pack(">H", checksum or 0xFFFF) + raw[8:]


def reference_icmp(message: IcmpMessage) -> bytes:
    raw = struct.pack(">BBHI", message.icmp_type, message.code, 0,
                      message.rest) + message.body
    return raw[:2] + struct.pack(">H", reference_checksum(raw)) + raw[4:]


def flip_bit(raw: bytes, bit: int) -> bytes:
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(flipped)


addresses = st.integers(0, 0xFFFFFFFF)
ports = st.integers(0, 0xFFFF)
# Odd and even lengths, empty, all-zero, all-ones, and segment-sized.
payloads = st.one_of(
    st.binary(max_size=69),
    st.binary(min_size=1399, max_size=1401),
    st.integers(0, 1500).map(bytes),
    st.integers(0, 1500).map(lambda n: b"\xff" * n),
)
segments = st.builds(
    TcpSegment, src_port=ports, dst_port=ports, seq=addresses, ack=addresses,
    flags=st.integers(0, 0x3F), window=ports, payload=payloads,
    mss=st.none() | ports,
)
datagrams = st.builds(UdpDatagram, src_port=ports, dst_port=ports, payload=payloads)
icmp_messages = st.builds(
    IcmpMessage, icmp_type=st.integers(0, 255), code=st.integers(0, 255),
    rest=addresses, body=payloads,
)
ip_packets = st.builds(
    IPv4Packet, src=addresses, dst=addresses, proto=st.integers(0, 255),
    payload=st.binary(max_size=64), ttl=st.integers(0, 255), ident=ports,
    dscp=st.integers(0, 63), dont_fragment=st.booleans(),
)


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"hello world packet"
        checksum = internet_checksum(data + b"\x00\x00")
        combined = data + bytes([checksum >> 8, checksum & 0xFF])
        assert internet_checksum(combined) == 0

    def test_odd_length_padding(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    @given(payloads)
    @example(b"")
    @example(b"\x00")
    @example(bytes(65535))
    @example(b"\xff" * 65535)
    @example(b"\xff\xff")  # word sum == 0xFFFF: folds to 0xFFFF, not to 0
    @example(b"\x80\x00\x7f\xff" * 3 + b"\x00")  # 3 * 0xFFFF, odd length
    @example(b"\xff\xfe\x00\x01")
    def test_matches_the_word_loop(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @given(st.lists(ports, min_size=1, max_size=40), st.booleans())
    def test_word_sums_that_are_multiples_of_0xffff(self, words, odd):
        # Top the buffer up so its word sum is an exact multiple of 0xFFFF:
        # the one case where `% 0xFFFF` alone would say 0 for a buffer
        # whose one's-complement sum is 0xFFFF (negative zero).
        words.append(0xFFFF - sum(words) % 0xFFFF)
        data = struct.pack(f">{len(words)}H", *words)
        if odd:
            data += b"\x00"
        assert reference_checksum(data) == 0
        assert internet_checksum(data) == 0

    @given(payloads, st.lists(addresses, max_size=6))
    def test_initial_sum_equals_prepended_words(self, data, prefix):
        prepended = struct.pack(f">{len(prefix)}I", *prefix) + data
        assert internet_checksum(data, sum(prefix)) == reference_checksum(prepended)


class TestIPv4:
    def test_round_trip(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"abc", ttl=17)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded == packet

    def test_header_checksum_verified(self):
        raw = bytearray(IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(DecodeError, match="checksum"):
            IPv4Packet.decode(bytes(raw))

    def test_rejects_short_buffer(self):
        with pytest.raises(DecodeError):
            IPv4Packet.decode(b"\x45\x00")

    def test_rejects_wrong_version(self):
        raw = bytearray(IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(DecodeError, match="version"):
            IPv4Packet.decode(bytes(raw))

    def test_decremented_lowers_ttl(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"", ttl=2)
        assert packet.decremented().ttl == 1

    def test_decremented_rejects_zero(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"", ttl=0)
        with pytest.raises(ValueError):
            packet.decremented()

    def test_trailing_bytes_ignored_via_total_length(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"xy")
        decoded = IPv4Packet.decode(packet.encode() + b"PAD")
        assert decoded.payload == b"xy"

    @given(
        payload=st.binary(max_size=64),
        ttl=st.integers(min_value=0, max_value=255),
        proto=st.integers(min_value=0, max_value=255),
        src=st.integers(min_value=0, max_value=0xFFFFFFFF),
        dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_round_trip_property(self, payload, ttl, proto, src, dst):
        packet = IPv4Packet(src=src, dst=dst, proto=proto, payload=payload, ttl=ttl)
        assert IPv4Packet.decode(packet.encode()) == packet


class TestIcmp:
    def test_echo_round_trip(self):
        message = IcmpMessage.echo_request(ident=0x1234, seq=7, payload=b"ping!")
        decoded = IcmpMessage.decode(message.encode())
        assert decoded.icmp_type == ICMP_ECHO_REQUEST
        assert decoded.echo_ident == 0x1234
        assert decoded.echo_seq == 7
        assert decoded.body == b"ping!"

    def test_echo_reply_mirrors_fields(self):
        reply = IcmpMessage.echo_reply(ident=1, seq=2, payload=b"data")
        decoded = IcmpMessage.decode(reply.encode())
        assert decoded.icmp_type == ICMP_ECHO_REPLY
        assert (decoded.echo_ident, decoded.echo_seq) == (1, 2)

    def test_time_exceeded_quotes_original(self):
        original = IPv4Packet(src=SRC, dst=DST, proto=PROTO_ICMP, payload=b"x" * 32)
        raw = original.encode()
        error = IcmpMessage.time_exceeded(raw)
        assert error.icmp_type == ICMP_TIME_EXCEEDED
        assert error.original_datagram() == raw[:28]

    def test_checksum_validation(self):
        raw = bytearray(IcmpMessage.echo_request(1, 1).encode())
        raw[-1] ^= 0x55 if len(raw) > 8 else 0
        raw[4] ^= 0x55
        with pytest.raises(DecodeError):
            IcmpMessage.decode(bytes(raw))

    def test_original_datagram_requires_error_type(self):
        with pytest.raises(ValueError):
            IcmpMessage.echo_request(1, 1).original_datagram()

    @given(ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=128))
    def test_echo_round_trip_property(self, ident, seq, payload):
        message = IcmpMessage.echo_request(ident, seq, payload)
        decoded = IcmpMessage.decode(message.encode())
        assert (decoded.echo_ident, decoded.echo_seq, decoded.body) == (
            ident, seq, payload,
        )


class TestUdp:
    def test_round_trip_with_checksum(self):
        datagram = UdpDatagram(src_port=1000, dst_port=53, payload=b"query")
        decoded = UdpDatagram.decode(datagram.encode(SRC, DST), SRC, DST)
        assert decoded == datagram

    def test_checksum_covers_pseudo_header(self):
        datagram = UdpDatagram(src_port=1, dst_port=2, payload=b"pp")
        raw = datagram.encode(SRC, DST)
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(raw, SRC, DST + 1)

    def test_short_buffer_rejected(self):
        with pytest.raises(DecodeError):
            UdpDatagram.decode(b"\x00\x01", SRC, DST)

    @given(src_port=st.integers(0, 0xFFFF), dst_port=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=256))
    def test_round_trip_property(self, src_port, dst_port, payload):
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        assert UdpDatagram.decode(datagram.encode(SRC, DST), SRC, DST) == datagram


class TestTcp:
    def test_round_trip_plain(self):
        segment = TcpSegment(
            src_port=80, dst_port=5000, seq=100, ack=200,
            flags=FLAG_ACK, window=8192, payload=b"http",
        )
        decoded = TcpSegment.decode(segment.encode(SRC, DST), SRC, DST)
        assert decoded == segment

    def test_round_trip_syn_with_mss(self):
        segment = TcpSegment(
            src_port=1, dst_port=2, seq=0, ack=0,
            flags=FLAG_SYN, window=100, mss=1400,
        )
        decoded = TcpSegment.decode(segment.encode(SRC, DST), SRC, DST)
        assert decoded.mss == 1400
        assert decoded.has(FLAG_SYN)

    def test_seg_len_counts_syn_fin(self):
        from repro.packet.tcp import FLAG_FIN

        syn = TcpSegment(1, 2, 0, 0, FLAG_SYN, 0)
        fin = TcpSegment(1, 2, 0, 0, FLAG_FIN | FLAG_ACK, 0, payload=b"abc")
        assert syn.seg_len == 1
        assert fin.seg_len == 4

    def test_checksum_validation(self):
        segment = TcpSegment(1, 2, 3, 4, FLAG_ACK, 5, payload=b"data")
        raw = bytearray(segment.encode(SRC, DST))
        raw[-1] ^= 0x01
        with pytest.raises(DecodeError, match="checksum"):
            TcpSegment.decode(bytes(raw), SRC, DST)

    @given(
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(0, 0x3F),
        window=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=200),
    )
    def test_round_trip_property(self, seq, ack, flags, window, payload):
        segment = TcpSegment(
            src_port=1234, dst_port=80, seq=seq, ack=ack,
            flags=flags, window=window, payload=payload,
        )
        assert TcpSegment.decode(segment.encode(SRC, DST), SRC, DST) == segment


class TestAgainstReference:
    """Wire bytes are those of the old concatenate-and-splice codecs, and
    every bit the old decoders protected is still protected."""

    @given(ip_packets, st.data())
    def test_ipv4(self, packet, data):
        raw = packet.encode()
        assert raw == reference_ipv4(packet)
        assert IPv4Packet.decode(raw) == packet
        assert packet.quoted() == raw[:28]
        bit = data.draw(st.integers(0, 20 * 8 - 1))  # header checksum: header only
        with pytest.raises(DecodeError):
            IPv4Packet.decode(flip_bit(raw, bit))

    @given(segments, addresses, addresses, st.data())
    def test_tcp(self, segment, src, dst, data):
        raw = segment.encode(src, dst)
        assert raw == reference_tcp(segment, src, dst)
        assert TcpSegment.decode(raw, src, dst) == segment
        bit = data.draw(st.integers(0, len(raw) * 8 - 1))
        with pytest.raises(DecodeError):
            TcpSegment.decode(flip_bit(raw, bit), src, dst)
        address_bit = 1 << data.draw(st.integers(0, 31))
        with pytest.raises(DecodeError, match="checksum"):
            TcpSegment.decode(raw, src ^ address_bit, dst)
        with pytest.raises(DecodeError, match="checksum"):
            TcpSegment.decode(raw, src, dst ^ address_bit)

    @given(datagrams, addresses, addresses, st.data())
    def test_udp(self, datagram, src, dst, data):
        raw = datagram.encode(src, dst)
        assert raw == reference_udp(datagram, src, dst)
        assert UdpDatagram.decode(raw, src, dst) == datagram
        # Ports, checksum and payload. A flipped length bit changes what
        # is summed, not a summed bit; flipping the checksum to zero turns
        # verification off (RFC 768) — neither is a detectable flip.
        bit = data.draw(st.integers(0, len(raw) * 8 - 1).filter(
            lambda bit: not 32 <= bit < 48))
        flipped = flip_bit(raw, bit)
        assume(flipped[6:8] != b"\x00\x00")
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(flipped, src, dst)
        address_bit = 1 << data.draw(st.integers(0, 31))
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(raw, src ^ address_bit, dst)
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(raw, src, dst ^ address_bit)

    @given(datagrams, addresses, addresses)
    def test_udp_computed_zero_is_transmitted_as_0xffff(self, datagram, src, dst):
        # Append the word that brings the datagram's checksum to zero.
        payload = datagram.payload + b"\x00" * (len(datagram.payload) % 2)
        probe = UdpDatagram(datagram.src_port, datagram.dst_port, payload + b"\x00\x00")
        unadjusted = probe.encode(src, dst)[6:8]
        zero_sum = UdpDatagram(datagram.src_port, datagram.dst_port, payload + unadjusted)
        raw = zero_sum.encode(src, dst)
        assert raw[6:8] == b"\xff\xff"
        assert raw == reference_udp(zero_sum, src, dst)
        assert UdpDatagram.decode(raw, src, dst) == zero_sum

    @given(icmp_messages, st.data())
    def test_icmp(self, message, data):
        raw = message.encode()
        assert raw == reference_icmp(message)
        assert IcmpMessage.decode(raw) == message
        bit = data.draw(st.integers(0, len(raw) * 8 - 1))
        with pytest.raises(DecodeError, match="checksum"):
            IcmpMessage.decode(flip_bit(raw, bit))


class TestDns:
    def test_name_round_trip(self):
        raw = encode_name("www.example.com")
        name, offset = decode_name(raw, 0)
        assert name == "www.example.com"
        assert offset == len(raw)

    def test_root_name(self):
        raw = encode_name("")
        assert raw == b"\x00"
        assert decode_name(raw, 0) == ("", 1)

    def test_compression_pointer(self):
        base = encode_name("example.com")
        # A name that is just a pointer to offset 0.
        data = base + b"\xc0\x00"
        name, offset = decode_name(data, len(base))
        assert name == "example.com"
        assert offset == len(data)

    def test_pointer_loop_rejected(self):
        data = b"\xc0\x00"
        with pytest.raises(DecodeError, match="loop"):
            decode_name(data, 0)

    def test_query_round_trip(self):
        query = DnsMessage.query(ident=99, name="probe.example.net")
        decoded = DnsMessage.decode(query.encode())
        assert decoded.ident == 99
        assert not decoded.is_response
        assert decoded.questions[0].name == "probe.example.net"
        assert decoded.questions[0].qtype == QTYPE_A

    def test_response_round_trip(self):
        query = DnsMessage.query(ident=7, name="a.example.org")
        answer = DnsRecord.a("a.example.org", parse_ip("192.0.2.55"))
        response = query.respond((answer,))
        decoded = DnsMessage.decode(response.encode())
        assert decoded.is_response
        assert decoded.flags & FLAG_QR
        assert decoded.answers[0].a_address == parse_ip("192.0.2.55")

    def test_nxdomain_rcode(self):
        query = DnsMessage.query(ident=7, name="missing.example.org")
        response = query.respond((), rcode=RCODE_NXDOMAIN)
        assert DnsMessage.decode(response.encode()).rcode == RCODE_NXDOMAIN

    @given(
        ident=st.integers(0, 0xFFFF),
        labels=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                    min_size=1, max_size=20),
            min_size=1, max_size=4,
        ),
    )
    def test_query_round_trip_property(self, ident, labels):
        name = ".".join(labels)
        query = DnsMessage.query(ident=ident, name=name)
        decoded = DnsMessage.decode(query.encode())
        assert decoded.questions[0].name == name
        assert decoded.ident == ident
